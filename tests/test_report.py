"""Tests for the one table renderer, ``report.table``."""

import pytest

from ffemu.report import table


def test_titles_and_cells_are_right_aligned_one_space_apart():
    columns = [("id", 3, ""), ("value", 8, ".2f"), ("n", 4, "d")]
    assert table(columns, [("x", 1.5, 7), ("yy", -12.25, 10)]) == [
        " id    value    n",
        "  x     1.50    7",
        " yy   -12.25   10",
    ]


def test_none_prints_as_a_dash():
    assert table([("a", 3, ".1f"), ("b", 2, "d")], [(None, 4), (0.5, None)]) == [
        "  a  b",
        "  -  4",
        "0.5  -",
    ]


def test_no_rows_is_the_header_alone():
    assert table([("mode", 4, ""), ("err %", 8, ".2f")], []) == ["mode    err %"]


@pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0)])
def test_row_with_more_or_fewer_cells_than_columns_raises(row):
    with pytest.raises(ValueError, match=f"a row of {len(row)} cells in a table of 2 columns"):
        table([("a", 4, ".1f"), ("b", 4, ".1f")], [(1.0, 2.0), row])
