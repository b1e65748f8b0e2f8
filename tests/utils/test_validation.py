"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_1d,
    check_2d,
    check_binary_labels,
    check_same_length,
)


class TestCheck1d:
    def test_accepts_vector(self):
        out = check_1d(np.arange(3))
        assert out.shape == (3,)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_1d(np.zeros((2, 2)), "foo")

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="myarg"):
            check_1d(np.zeros((2, 2)), "myarg")


class TestCheck2d:
    def test_accepts_matrix(self):
        assert check_2d(np.zeros((2, 3))).shape == (2, 3)

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_2d(np.zeros(3))


class TestSameLength:
    def test_equal_ok(self):
        check_same_length(np.zeros(3), np.zeros(3))

    def test_mismatch_raises(self):
        with pytest.raises(ValueError, match="same length"):
            check_same_length(np.zeros(3), np.zeros(4), ("X", "y"))


class TestBinaryLabels:
    def test_accepts_binary(self):
        out = check_binary_labels(np.array([0, 1, 1, 0]))
        assert out.dtype == np.int64

    def test_accepts_all_ones(self):
        assert check_binary_labels(np.ones(4)).sum() == 4

    def test_rejects_multiclass(self):
        with pytest.raises(ValueError, match="binary"):
            check_binary_labels(np.array([0, 1, 2]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_binary_labels(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([True, False, True]),
            np.array([0.0, 1.0, 1.0]),
            np.array([1, 0, 1], dtype=np.int8),
            np.array([1, 1], dtype=np.uint8),
            np.zeros(0),
        ],
        ids=["bool", "float", "int8", "uint8", "empty"],
    )
    def test_accepted_label_arrays(self, labels):
        out = check_binary_labels(labels)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, labels.astype(np.int64))

    @pytest.mark.parametrize(
        "labels, shown",
        [
            (np.array([0, 2, 1]), "[0 1 2]"),
            (np.array([1, -1]), "[-1  1]"),
            (np.array([0.0, 0.5, 1.0]), "[0.  0.5 1. ]"),
            (np.array([0.0, np.nan]), "[ 0. nan]"),
        ],
        ids=["two", "minus-one", "half", "nan"],
    )
    def test_rejected_label_arrays_name_their_sorted_values(self, labels, shown):
        with pytest.raises(ValueError) as error:
            check_binary_labels(labels, "relabel_labels")
        assert str(error.value) == (
            f"relabel_labels must contain only binary labels 0/1, got values {shown}"
        )
