"""Tests for the one table renderer, ``report.table``, and the curve CSV writers."""

import csv

import numpy as np
import pytest

from ffemu.fuzzy import AlphaCutStack, alpha_cuts
from ffemu.report import _cov_percent, _cut_rows, _write_curves, table


def stack_of(tfn, levels) -> AlphaCutStack:
    """The (L, 1) alpha-cut stack of one triangle at ``levels``."""
    levels = np.asarray(levels, dtype=float)
    return AlphaCutStack(levels, *alpha_cuts([tfn], levels))


def write_cuts_csv(names, stack, path):
    """The cuts CSV of ``stack``, written as ``regenerate_curves`` writes one."""
    _write_curves(path, ["alpha", "lo", "hi"], names, _cut_rows(stack))


def write_membership_csv(names, stack, path):
    """The membership CSV of ``stack``, written as ``regenerate_curves`` writes one."""
    _write_curves(path, ["x", "mu"], names, map(stack.to_membership, range(len(names))))


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


class TestCsvExport:
    def test_cuts_csv_round_trip(self, tmp_path):
        stack = stack_of((0, 1, 3), [1.0, 0.5, 0.0])
        path = tmp_path / "cuts.csv"
        write_cuts_csv(["q1"], stack, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[1]["quantity_id"] == "q1"
        assert float(rows[1]["alpha"]) == 0.5
        assert float(rows[1]["lo"]) == 0.5
        assert float(rows[1]["hi"]) == 2.0

    def test_membership_csv(self, tmp_path):
        stack = stack_of((0, 1, 3), [1.0, 0.5, 0.0])
        path = tmp_path / "mem.csv"
        write_membership_csv(["q1"], stack, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        xs = [float(r["x"]) for r in rows]
        mus = [float(r["mu"]) for r in rows]
        assert xs == [0.0, 0.5, 1.0, 2.0, 3.0]
        assert mus == [0.0, 0.5, 1.0, 0.5, 0.0]

    def test_many_quantities_are_written_in_column_order(self, tmp_path):
        levels = [1.0, 0.5, 0.0]
        tfns = [(0, 1, 3), (2, 2, 2)]
        stack = AlphaCutStack(levels, *alpha_cuts(tfns, levels))
        for write in (write_cuts_csv, write_membership_csv):
            write(["a", "b"], stack, tmp_path / "both.csv")
            for name, tfn in zip("ab", tfns):
                write([name], stack_of(tfn, levels), tmp_path / f"{name}.csv")
            parts = [(tmp_path / f"{name}.csv").read_text().splitlines() for name in "ab"]
            assert (tmp_path / "both.csv").read_text().splitlines() == parts[0] + parts[1][1:]


def test_cov_is_100_sd_over_mean():
    assert _cov_percent({"mean": [2.0, 4.0], "sd": [2.0**0.5, 0.0]}) == [70.71067811865476, 0.0]
