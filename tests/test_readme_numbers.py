"""The basis-cut numbers README.md prints are runs' values, rounded to the
printed digits.

The numbers are read from README itself, so an edit to one without a run
fails here. They are the Henon-Heiles exact crossing at three cuts, the
Kepler exact crossing at three cuts and its first-order crossing at the
first and last of them (the two cut sentences), and each cell of the
Henon-Heiles hbar table, which must be the common rounding of its stated
cut and of that cut plus the larger-cut step README names. Every config is
run through ``specfrag run`` once per session (see conftest.cli_run), so
Kepler's max_n 30 shares its run with LARGER_RUNS' byte test.
"""

import json
import re
from pathlib import Path

import pytest

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the sentences wrap across lines, and the tables print a minus as U+2212
PROSE = " ".join(TEXT.replace("−", "-").split())
NUMBER = r"(-?\d+\.\d+)"

HH_ROWS = re.findall(r"^\| ħ (\S+) \| (\d+) shells \(to (\d+)\) \|(.*)\|$", TEXT, re.M)
HH_COLUMNS = re.search(r"^\| Hénon–Heiles, λ = 1 \| basis cut \(scan\) \|(.*)\|$", TEXT, re.M)
LARGER_CUT = re.search(r"one larger cut \(\+(\d+) shells", PROSE)


def _critical(cli_run, args: list[str]) -> dict:
    return json.loads((cli_run(args) / "manifest.json").read_text(encoding="utf-8"))["critical"]


def _henon_heiles(cli_run, hbar: str, shells, scan_to: str) -> dict:
    return _critical(cli_run, ["--system", "henon-heiles", "--hbar", hbar, "--shells",
                               str(shells), "--shell-max", scan_to])


def _rounded(value: float, printed: str) -> str:
    """value rounded to as many decimals as printed shows."""
    return f"{value:.{len(printed.split('.')[1])}f}"


def _sentence(pattern: str) -> tuple:
    found = re.search(pattern, PROSE)
    assert found, f"README no longer has a sentence matching {pattern!r}"
    return found.groups()


def test_henon_heiles_exact_crossing_at_each_stated_cut(cli_run):
    *printed, a, b, c = _sentence(
        rf"exact crossing {NUMBER}, {NUMBER} and {NUMBER} with (\d+), (\d+) and (\d+) shells")
    hbar, = _sentence(r"the cubic coupling, hbar = (\S+)\.")
    scan_to, = _sentence(r"default scan still runs to shell (\d+)")
    found = [_henon_heiles(cli_run, hbar, shells, scan_to)["exact_critical_energy"]
             for shells in (a, b, c)]
    assert [_rounded(v, p) for v, p in zip(found, printed)] == printed, found


def test_kepler_crossings_at_each_stated_cut(cli_run):
    *printed, a, b, c = _sentence(rf"the exact crossing is {NUMBER}, {NUMBER} and {NUMBER} "
                                  r"at `max_n` (\d+), (\d+) and (\d+)\.")
    # the first-order crossing is printed at the first and the last cut
    pt_printed = list(_sentence(rf"first-order crossing moves only from {NUMBER} to {NUMBER}\."))
    runs = [_critical(cli_run, ["--system", "kepler", "--max-n", max_n]) for max_n in (a, b, c)]
    exact = [run["exact_critical_scaled_energy"] for run in runs]
    assert [_rounded(v, p) for v, p in zip(exact, printed)] == printed, exact
    pt = [run["pt_critical_scaled_energy"] for run in (runs[0], runs[-1])]
    assert [_rounded(v, p) for v, p in zip(pt, pt_printed)] == pt_printed, pt


def test_henon_heiles_hbar_table_is_read():
    assert HH_COLUMNS and LARGER_CUT, "README's hbar table or its larger-cut rule changed form"
    # every row of the table parses, so none goes untested
    assert 0 < len(HH_ROWS) == TEXT.count("\n| ħ "), HH_ROWS


@pytest.mark.parametrize("hbar, shells, scan_to, cells", HH_ROWS,
                         ids=[f"hbar{row[0]}" for row in HH_ROWS])
def test_henon_heiles_hbar_table_cell_is_common_rounding_of_two_cuts(
        cli_run, hbar, shells, scan_to, cells):
    columns = [c.strip() for c in HH_COLUMNS.group(1).split("|")]
    printed = [c.strip() for c in cells.split("|")]
    larger = int(shells) + int(LARGER_CUT.group(1))
    runs = [_henon_heiles(cli_run, hbar, cut, scan_to) for cut in (shells, larger)]
    wrong = {}
    for column, cell in zip(columns, printed, strict=True):
        values = [run[f"{column}_critical_energy"] for run in runs]
        if any(_rounded(v, cell) != cell for v in values):
            wrong[column] = (cell, values)
    assert not wrong, f"printed cell, then values at {shells} and {larger} shells: {wrong}"
