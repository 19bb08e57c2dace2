"""The default runs' curves and headline critical values, pinned.

tests/data holds the hh_curves.csv (Henon-Heiles, 30 shells) and
kepler_curves.csv (Kepler, max_n 20) of the two default runs, and in
reference.json their five headline critical values (acceptance criteria
1-5) with the numpy and BLAS they were made with. Every value must stay
within 1e-9 (absolute) of the pinned one, far inside every acceptance gate;
a failure lists the largest |difference| per column, which says which
digits moved. On the recorded platform the data lines must also be
byte-identical and the critical values bitwise equal; on any other that
test is skipped and names the part that differs. The recorded platform is
numpy's version and the BLAS's, as reference.json holds them, and the CPU
kernels the bytes follow, as RECORDED_KERNELS holds them: the core that
numpy's bundled OpenBLAS dispatches to, and the SIMD targets numpy's own
loops may dispatch to on this CPU. The header lines (tool, system and
config-sha256) must match too, wherever the run echoes the pinned scan.

Four larger runs (Henon-Heiles at 60 shells with every metric and at 80
shells with hbar 0.0025, Kepler at max_n 30 and 40) are pinned by the
sha256 of their CSVs' data lines alone, checked on the recorded platform.

The pinned files are the check's data: replace them only when the numbers
moved for a stated numerical reason, by copying the two default runs'
curve files and critical values.
"""
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from specfrag import linalg
from specfrag.cli import main
from specfrag.kepler import default_gamma_grid

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "reference.json").read_text(encoding="utf-8"))
TOL = 1e-9
RUNS = {"hh_curves.csv": "henon-heiles", "kepler_curves.csv": "kepler"}
# each larger run's flags, and the sha256 of each of its CSVs' data lines,
# "\n"-joined, as the recorded numpy and BLAS write them
LARGER_RUNS = {
    "hh60-every-metric": (
        ["--system", "henon-heiles", "--shells", "60",
         "--metrics", "w-pt,w-exact,kappa,strength-function"],
        {"hh_curves.csv": "cb590ca7ea2c7d10aa8bc9e9ff5e3eaa05c26738ccec61cbf6981e9a79a578a9",
         "strength_function.csv":
             "12ea82b11f649671d95d5468ad05588f30c0d135d369c8a030d1d1968b1624c0"}),
    "hh80-hbar0.0025": (
        ["--system", "henon-heiles", "--shells", "80", "--hbar", "0.0025"],
        {"hh_curves.csv": "3054aa936d0cf30c1a3eb05619527317b1993bc214901dd59fe0f66d840586ae"}),
    "kepler30": (
        ["--system", "kepler", "--max-n", "30"],
        {"kepler_curves.csv": "10b25beab38dacd21d7ce53aca9bbde7edabec76873dd409912a56cd3369abad"}),
    "kepler40": (
        ["--system", "kepler", "--max-n", "40"],
        {"kepler_curves.csv": "5db616989dc59f0300b0c2fca9121e2e8af0d2e2973708d65cd283476736af0c"}),
}
# the CPU kernels every pinned byte was written with: OpenBLAS's Haswell
# kernels move the data lines of both default runs, and numpy without its
# X86_V4 loops moves Kepler's rho^2 (a ** -3.0 takes the AVX-512 power)
RECORDED_KERNELS = {
    "openblas_core": "SkylakeX",
    "numpy_simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}


def _platform() -> dict:
    """numpy's version, the BLAS it was built against, and the CPU kernels
    both dispatch to here: the core name numpy's bundled OpenBLAS reports
    (None without one) and the SIMD targets numpy found on this CPU."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = simd = None
    corename = (linalg._openblas() or (None, None, None))[2]
    core = corename().decode() if corename is not None else None
    return {"numpy": np.__version__, "blas": blas, "openblas_core": core, "numpy_simd": simd}


def _off_platform() -> str | None:
    """The parts of this platform that differ from the recorded one, named
    with both values, or None on the recorded platform."""
    here, recorded = _platform(), REFERENCE["platform"] | RECORDED_KERNELS
    differ = [f"{key} {recorded[key]!r} there, {here[key]!r} here"
              for key in recorded if here[key] != recorded[key]]
    return "; ".join(differ) or None


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Output directory of each default run, by curve file name."""
    out = {}
    for name, system in RUNS.items():
        path = tmp_path_factory.mktemp(system)
        assert main(["run", "--system", system, "-o", str(path)]) == 0
        out[name] = path
    return out


def _data_lines(path: Path) -> list[str]:
    """The column line and the rows, without the header comments."""
    return [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]


def _header_lines(path: Path) -> list[str]:
    """The header comments: tool, system and config-sha256."""
    return [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("#")]


def _critical(runs: dict) -> dict:
    found = {}
    for path in runs.values():
        found |= json.loads((path / "manifest.json").read_text(encoding="utf-8"))["critical"]
    return {key: found[key] for key in REFERENCE["critical"]}


def _worst(deltas: dict) -> str:
    return ", ".join(f"{key} {delta:.3g}" for key, delta in deltas.items())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_curves_within_1e9_of_reference(runs, name):
    pinned = [line.split(",") for line in _data_lines(DATA / name)]
    found = [line.split(",") for line in _data_lines(runs[name] / name)]
    assert found[0] == pinned[0], "columns changed"
    assert len(found) == len(pinned), "row count changed"
    worst = {}
    for c, column in enumerate(pinned[0]):
        worst[column] = 0.0
        for got, want in zip(found[1:], pinned[1:]):
            if (got[c] == "") != (want[c] == ""):
                delta = math.inf  # a cell appeared or vanished
            else:
                delta = abs(float(got[c] or 0.0) - float(want[c] or 0.0))
            worst[column] = max(worst[column], math.inf if math.isnan(delta) else delta)
    assert all(d <= TOL for d in worst.values()), f"{name} max |delta| per column: {_worst(worst)}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_header_lines_match_reference(runs, name):
    found, pinned = _header_lines(runs[name] / name), _header_lines(DATA / name)
    assert found[:2] == pinned[:2], "tool or system line changed"
    # the digest hashes the config echo, Kepler's derived gamma grid
    # included, whose last bits follow numpy's SIMD dispatch
    grids = [[l.split(",")[0] for l in _data_lines(path / name)] for path in (runs[name], DATA)]
    if grids[0] != grids[1]:
        pytest.skip("digest comparison skipped: this numpy derives a gamma grid "
                    "that differs in its last bits from the pinned one")
    assert found == pinned, "config-sha256 moved"


def test_headline_critical_values_within_1e9_of_reference(runs):
    found = _critical(runs)
    deltas = {}
    for key, want in REFERENCE["critical"].items():
        got = found[key]
        deltas[key] = math.inf if got is None else abs(got - want)
    assert all(d <= TOL for d in deltas.values()), f"max |delta|: {_worst(deltas)}"


def test_bytes_match_reference_on_recorded_platform(runs):
    differ = _off_platform()
    if differ:
        pytest.skip(f"byte comparison skipped, off the recorded platform: {differ}")
    for name, path in runs.items():
        assert _data_lines(path / name) == _data_lines(DATA / name), f"{name} bytes moved"
    assert _critical(runs) == REFERENCE["critical"]


@pytest.mark.parametrize("name", sorted(LARGER_RUNS))
def test_larger_runs_keep_their_bytes_on_recorded_platform(name, cli_run):
    args, digests = LARGER_RUNS[name]
    differ = _off_platform()
    if differ:
        pytest.skip(f"byte comparison skipped, off the recorded platform: {differ}")
    # the default Kepler scan is the pinned default run's gamma column, whose
    # last bits follow numpy's SIMD dispatch
    pinned = [float(line.split(",")[0]) for line in _data_lines(DATA / "kepler_curves.csv")[1:]]
    if args[1] == "kepler" and list(default_gamma_grid(10)) != pinned:
        pytest.skip("byte comparison skipped: this numpy derives a default gamma "
                    "grid that differs in its last bits from the pinned one")
    out = cli_run(args)
    found = {file: hashlib.sha256("\n".join(_data_lines(out / file)).encode()).hexdigest()
             for file in digests}
    assert found == digests, f"{name} bytes moved"
