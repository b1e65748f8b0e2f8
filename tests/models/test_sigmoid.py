"""``repro.models.linear._sigmoid`` is pinned bit for bit to the masked
two-branch formula: 1/(1 + exp(−z)) where z ≥ 0 and exp(z)/(1 + exp(z))
elsewhere."""

import numpy as np
import pytest

from repro.models.linear import _sigmoid

EDGES = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 1e308, -1e308,
     np.inf, -np.inf, np.nan, -np.nan]
)


def masked_sigmoid(z):
    """The two branches, each gathered and scattered through a mask."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def assert_same_bits(actual, expected):
    """Same type, shape, memory layout and bits (a NaN's sign included)."""
    assert type(actual) is np.ndarray and actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous == expected.flags.c_contiguous
    assert actual.flags.f_contiguous == expected.flags.f_contiguous
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def grid():
    rng = np.random.default_rng(0)
    z = rng.normal(scale=40.0, size=(9, 14))
    z[0] = EDGES
    return z


@pytest.mark.parametrize("value", EDGES, ids=repr)
def test_edge_values_zero_d(value):
    """0-d in, 0-d out: an in-place form over ``np.add``'s scalar result
    would raise ``TypeError`` here."""
    z = np.array(value)
    assert_same_bits(_sigmoid(z), masked_sigmoid(z))


@pytest.mark.parametrize(
    "layout",
    [
        pytest.param(lambda z: z[0], id="1-d"),
        pytest.param(lambda z: z, id="2-d"),
        pytest.param(lambda z: z[::2, 1::3], id="strided"),
        pytest.param(lambda z: z.T, id="transposed"),
        pytest.param(lambda z: np.asfortranarray(z), id="fortran"),
    ],
)
def test_layouts(layout):
    z = layout(grid())
    assert_same_bits(_sigmoid(z), masked_sigmoid(z))


def test_integer_input():
    info = np.iinfo(np.int64)
    z = np.array([info.min, -800, -37, -1, 0, 1, 37, 800, info.max])
    assert_same_bits(_sigmoid(z), masked_sigmoid(z))
    assert_same_bits(_sigmoid(z.reshape(3, 3).T), masked_sigmoid(z.reshape(3, 3).T))


@pytest.mark.parametrize("z", [np.array(-3.0), grid()[0], grid()], ids=["0-d", "1-d", "2-d"])
def test_read_only_argument(z):
    expected, before = masked_sigmoid(z), z.copy()
    z.flags.writeable = False
    assert_same_bits(_sigmoid(z), expected)
    np.testing.assert_array_equal(z.view(np.uint64), before.view(np.uint64))
