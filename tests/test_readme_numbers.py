"""The basis-cut numbers README.md prints are runs' values, rounded to the
printed digits.

The numbers are read from README itself, so an edit to one without a run
fails here. They are the Henon-Heiles exact crossing at three cuts, the
Kepler exact crossing at three cuts and its first-order crossing at the
first and last of them (the two cut sentences), Kepler's n = 6 exact
crossing at two cuts, each cell of the Henon-Heiles hbar table and of the
Kepler n table's columns up to max_n 24, each of which must be the common
rounding of its stated cut and of that cut plus the larger-cut step README
names, and the ratios and exponents README computes from those tables.
Every config is run through ``specfrag run`` once per session (see
conftest.cli_run), so Kepler's max_n 30 shares its run with LARGER_RUNS'
byte test, and the n = 10 column its runs with the cut sentence.

The n table's columns n = 14 and 18 (max_n 28 to 40) are left for a slower
tier: their four runs would take most of this module's time.
"""

import json
import math
import re
from pathlib import Path

import pytest

from specfrag.kepler import KeplerConfig

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the sentences wrap across lines, and the tables print a minus as U+2212
PROSE = " ".join(TEXT.replace("−", "-").split())
NUMBER = r"(-?\d+\.\d+)"

HH_ROWS = re.findall(r"^\| ħ (\S+) \| (\d+) shells \(to (\d+)\) \|(.*)\|$", TEXT, re.M)
HH_COLUMNS = re.search(r"^\| Hénon–Heiles, λ = 1 \| basis cut \(scan\) \|(.*)\|$", TEXT, re.M)
LARGER_CUT = re.search(r"one larger cut \(\+(\d+) shells", PROSE)
LARGER_MAX_N = re.search(r"or `max_n` \+ (\d+)\)", PROSE)
KEPLER_TABLE = re.search(r"^\| Kepler, default γ grid \|(.*)\|\n\|[-|]+\|\n"
                         r"\| basis cut \|(.*)\|\n\| pt ε_c \|(.*)\|\n\| exact ε_c \|(.*)\|$",
                         TEXT, re.M)
# the largest cut a tier-1 run of the n table takes
TIER_1_MAX_N = 24
DEFAULT_SHELL = str(KeplerConfig.target_shell)


def _cells(row: str) -> list[str]:
    """A table row's cells, each its last word, with U+2212 read as a minus."""
    return [cell.split()[-1].replace("−", "-") for cell in row.split("|")]


# per column of the n table: n, its cut, its pt cell and its exact cell
KEPLER_COLUMNS = list(zip(*map(_cells, KEPLER_TABLE.groups()))) if KEPLER_TABLE else []
KEPLER_TIER_1 = [column for column in KEPLER_COLUMNS
                 if LARGER_MAX_N and int(column[1]) + int(LARGER_MAX_N.group(1)) <= TIER_1_MAX_N]


def _critical(cli_run, args: list[str]) -> dict:
    return json.loads((cli_run(args) / "manifest.json").read_text(encoding="utf-8"))["critical"]


def _henon_heiles(cli_run, hbar: str, shells, scan_to: str) -> dict:
    return _critical(cli_run, ["--system", "henon-heiles", "--hbar", hbar, "--shells",
                               str(shells), "--shell-max", scan_to])


def _kepler(cli_run, max_n, n=DEFAULT_SHELL) -> dict:
    # the default target shell goes unsaid, so its runs are the cut sentence's
    shell = [] if n == DEFAULT_SHELL else ["--target-shell", n]
    return _critical(cli_run, ["--system", "kepler", *shell, "--max-n", str(max_n)])


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
    runs = [_kepler(cli_run, max_n) for max_n in (a, b, c)]
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


def test_kepler_exact_crossing_at_each_stated_cut_of_a_low_shell(cli_run):
    n, *printed, a, b = _sentence(rf"at n = (\d+) it goes from {NUMBER} to {NUMBER} when "
                                  r"`max_n` goes from (\d+) to (\d+)\.")
    found = [_kepler(cli_run, max_n, n)["exact_critical_scaled_energy"] for max_n in (a, b)]
    assert [_rounded(v, p) for v, p in zip(found, printed)] == printed, found


def test_kepler_n_table_is_read():
    assert KEPLER_TABLE and LARGER_MAX_N, "README's n table or its larger-cut rule changed form"
    assert [n for n, *_ in KEPLER_COLUMNS] == ["6", "8", "10", "14", "18"]
    assert [n for n, *_ in KEPLER_TIER_1] == ["6", "8", "10"]


@pytest.mark.parametrize("n, cut, pt, exact", KEPLER_TIER_1,
                         ids=[f"n{column[0]}" for column in KEPLER_TIER_1])
def test_kepler_n_table_cell_is_common_rounding_of_two_cuts(cli_run, n, cut, pt, exact):
    larger = int(cut) + int(LARGER_MAX_N.group(1))
    runs = [_kepler(cli_run, max_n, n) for max_n in (cut, larger)]
    wrong = {}
    for column, cell in (("pt", pt), ("exact", exact)):
        values = [run[f"{column}_critical_scaled_energy"] for run in runs]
        if any(_rounded(v, cell) != cell for v in values):
            wrong[column] = (cell, values)
    assert not wrong, f"printed cell, then values at max_n {cut} and {larger}: {wrong}"


def _hh_column(name: str) -> list[float]:
    """The hbar table's column of that name, in row order."""
    at = [c.strip() for c in HH_COLUMNS.group(1).split("|")].index(name)
    return [float(cells.split("|")[at]) for *_, cells in HH_ROWS]


def test_henon_heiles_ratios_and_exponent_come_from_the_hbar_table():
    *ratios, limit, power = _sentence(
        rf"The pt ratios per halving of ħ are {NUMBER} and {NUMBER}, against "
        r"2\^\{-2/3\} = " + NUMBER + r"; the exact crossing follows at about ħ\^\{"
        + NUMBER + r"\}\.")
    hbar = [float(row[0]) for row in HH_ROWS]
    assert [b / a for a, b in zip(hbar, hbar[1:])] == [0.5, 0.5]
    pt, exact = _hh_column("pt"), _hh_column("exact")
    found = [b / a for a, b in zip(pt, pt[1:])]
    assert [_rounded(v, p) for v, p in zip(found, ratios)] == ratios, found
    assert _rounded(2.0 ** (-2 / 3), limit) == limit
    fitted = math.log(exact[-1] / exact[0]) / math.log(hbar[-1] / hbar[0])
    assert _rounded(fitted, power) == power, fitted


def test_kepler_exponents_come_from_the_n_table():
    first, a, b, second, c, d = _sentence(
        rf"local exponent of \|ε_c\^pt\| is {NUMBER} between n (\d+) and (\d+) and {NUMBER} "
        r"between (\d+) and (\d+), against 1/3\.")
    pt = {int(n): abs(float(cell)) for n, _, cell, _ in KEPLER_COLUMNS}
    for printed, lo, hi in ((first, a, b), (second, c, d)):
        lo, hi = int(lo), int(hi)
        found = math.log(pt[hi] / pt[lo]) / math.log(hi / lo)
        assert _rounded(found, printed) == printed, (lo, hi, found)
