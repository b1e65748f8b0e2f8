"""Tests for repro.tabular.table."""

import numpy as np
import pytest

from repro.tabular import NumericColumn, Table


@pytest.fixture
def table():
    return Table.from_dict(
        {
            "age": [30.0, 50.0, 45.0, 22.0],
            "gender": ["F", "M", "F", "M"],
        }
    )


class TestConstruction:
    def test_from_dict_infers_types(self, table):
        assert table.is_numeric("age")
        assert table.is_categorical("gender")

    def test_bool_values_become_categorical(self):
        t = Table.from_dict({"flag": [True, False]})
        assert t.is_categorical("flag")
        assert t.distinct("flag") == ["False", "True"]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="inconsistent lengths"):
            Table([NumericColumn("a", [1.0]), NumericColumn("b", [1.0, 2.0])])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table([NumericColumn("a", [1.0]), NumericColumn("a", [2.0])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one column"):
            Table([])


class TestAccess:
    def test_num_rows_len(self, table):
        assert table.num_rows == len(table) == 4

    def test_contains(self, table):
        assert "age" in table
        assert "nope" not in table

    def test_missing_column_raises(self, table):
        with pytest.raises(KeyError, match="no column named"):
            table.column("nope")

    def test_distinct(self, table):
        assert table.distinct("gender") == ["F", "M"]

    def test_row(self, table):
        assert table.row(1) == {"age": 50.0, "gender": "M"}

    def test_row_out_of_range(self, table):
        with pytest.raises(IndexError):
            table.row(10)


class TestRowOps:
    def test_filter(self, table):
        mask = table.column("age").greater_equal_mask(45)
        sub = table.filter(mask)
        assert sub.num_rows == 2
        assert sub.column("gender").to_list() == ["M", "F"]

    def test_filter_wrong_shape(self, table):
        with pytest.raises(ValueError, match="mask shape"):
            table.filter(np.ones(3, dtype=bool))

    def test_take_order(self, table):
        sub = table.take(np.array([3, 0]))
        assert sub.column("age").to_list() == [22.0, 30.0]

    def test_select_and_drop(self, table):
        assert table.select(["gender"]).column_names == ["gender"]
        assert table.drop(["gender"]).column_names == ["age"]

    def test_drop_missing_raises(self, table):
        with pytest.raises(KeyError, match="missing"):
            table.drop(["nope"])

    def test_with_column_replaces(self, table):
        t2 = table.with_column(NumericColumn("age", [1.0, 2.0, 3.0, 4.0]))
        assert t2.column("age").to_list() == [1.0, 2.0, 3.0, 4.0]
        assert table.column("age").to_list()[0] == 30.0  # original untouched

    def test_with_column_wrong_length(self, table):
        with pytest.raises(ValueError, match="length"):
            table.with_column(NumericColumn("z", [1.0]))

    def test_concat(self, table):
        combined = table.concat(table)
        assert combined.num_rows == 8
        assert combined.column("gender").to_list()[:4] == ["F", "M", "F", "M"]

    def test_concat_schema_mismatch(self, table):
        other = Table.from_dict({"age": [1.0]})
        with pytest.raises(ValueError, match="schema"):
            table.concat(other)

    def test_replicate(self, table):
        assert table.replicate(3).num_rows == 12

    def test_replicate_invalid(self, table):
        with pytest.raises(ValueError, match=">= 1"):
            table.replicate(0)


class TestAggregation:
    def test_group_by_count_categorical(self, table):
        assert table.group_by_count("gender") == {"F": 2, "M": 2}

    def test_group_by_count_numeric(self):
        t = Table.from_dict({"x": [1.0, 1.0, 2.0]})
        assert t.group_by_count("x") == {1.0: 2, 2.0: 1}

    def test_to_dict_roundtrip(self, table):
        data = table.to_dict()
        rebuilt = Table.from_dict(data)
        assert rebuilt.to_dict() == data
