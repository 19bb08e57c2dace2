"""Workloads of the specfrag benchmark and the check of each run's output.

A workload is one `specfrag run` command line. The benchmark turns a
workload name and a seed into that command; nothing else reaches the
program. Seed 0 gives the documented default grids. Any other seed moves
both ends of the Kepler scaled-energy window by at most +/-0.02, keeping
its 61 points, so a speed claim can be rechecked on inputs nobody tuned it
on. The Henon-Heiles grids have no free input; there the seed reaches the
program only as its own `--seed` flag, which it records in the manifest.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Acceptance criteria 1-5: centre and tolerance of each headline critical
# value, copied unchanged from tests/test_acceptance.py. A value passes when
# |value - centre| <= tolerance; its margin is tolerance - |value - centre|.
GATES = {
    "pt_critical_energy": (0.084, 0.008),  # criterion 1
    "exact_critical_energy": (0.105, 0.010),  # criterion 2
    "kappa_critical_energy": (0.11, 0.015),  # criterion 3
    "pt_critical_scaled_energy": (-0.54, 0.05),  # criterion 4
    "exact_critical_scaled_energy": (-0.47, 0.05),  # criterion 5
}

# Copied from specfrag.metrics.WEIGHT_SUM_TOL: each scan point's strength
# function must sum to 1 within it.
WEIGHT_SUM_TOL = 1e-6

# Critical values must repeat the seed commit's within this absolute
# tolerance when the inputs are the seed-0 ones. It admits last-digit
# movement from BLAS threading or a change of LAPACK driver and nothing a
# reader of the four printed digits could see.
REFERENCE_TOL = 1e-6

HH_COLUMNS = ("shell", "energy", "w_pt", "w_exact", "kappa", "gamma_spr", "energy_exact_mean")
KEPLER_COLUMNS = (
    "gamma",
    "scaled_energy_pt",
    "scaled_energy_exact",
    "w_pt",
    "w_exact",
    "kappa",
    "gamma_spr",
)
# CSV columns filled by each requested metric; the others stay empty.
FILLED = {
    "henon-heiles": {
        "w-pt": ("w_pt",),
        "w-exact": ("w_exact", "energy_exact_mean"),
        "kappa": ("kappa", "gamma_spr"),
        "strength-function": (),
    },
    "kepler": {
        "w-pt": ("w_pt",),
        "w-exact": ("w_exact", "scaled_energy_exact"),
        "kappa": ("kappa", "gamma_spr"),
        "strength-function": (),
    },
}

KEPLER_TARGET_SHELL = 10
KEPLER_POINTS = 61
KEPLER_WINDOW = (-0.80, -0.30)
KEPLER_SHIFT = 0.02

# Seed-0 critical values of the seed commit (OpenBLAS 0.3.31, 2 threads).
REFERENCE = {
    "hh-large": {
        "pt_critical_energy": 0.08328712871287128,
        "exact_critical_energy": 0.1007388069961967,
        "kappa_critical_energy": 0.10811172467215763,
    },
    "kepler-scan": {
        "pt_critical_scaled_energy": -0.5615294078097175,
        "exact_critical_scaled_energy": -0.43016011629110784,
        "exact_critical_scaled_energy_mean_axis": None,
        "kappa_critical_scaled_energy": -0.45379045401349033,
    },
    "hh-pt": {
        "pt_critical_energy": 0.08328712871287128,
    },
}

# hh-pt is not a workload of BENCHMARK.json, only runnable by name: its time
# is all Python interpreter, which on the 2-core reference box runs up to 60 %
# slower for tens of seconds at a time, so its ten-seed spread came too close
# to the largest regression bound a metric may have.
WHY = {
    "hh-large": "one dim-1830 eigh and a doubled build_v dominate; a 2.2 MB strength-function CSV loads the output layer",
    "kepler-scan": "61 dim-465 eigh in the thread pool against BLAS threads, plus the rho^2 quadrature; no HH build, little output",
    "hh-pt": "first-order path with no eigh at all: build_v at dim 3240 and start-up dominate; a linalg change must not move it",
}


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    flags: tuple[str, ...]  # shared by `run` and `validate`; no -o, no --threads
    metrics: tuple[str, ...]
    points: int
    gated: bool  # criteria 1-5 apply at this size
    reference: dict | None  # seed-commit critical values for these exact inputs

    @property
    def curve_file(self) -> str:
        return "hh_curves.csv" if self.system == "henon-heiles" else "kepler_curves.csv"

    @property
    def columns(self) -> tuple[str, ...]:
        return HH_COLUMNS if self.system == "henon-heiles" else KEPLER_COLUMNS


def kepler_grid(seed: int, points: int = KEPLER_POINTS) -> tuple[float, ...] | None:
    """Gamma grid for a seed, or None for seed 0 (the program's default).

    Same construction as specfrag.kepler.default_gamma_grid: geometric in
    gamma, with the target shell's zeroth-order scaled energy spanning the
    window."""
    if seed == 0 and points == KEPLER_POINTS:
        return None
    rng = random.Random(seed)
    lo = KEPLER_WINDOW[0] + (rng.uniform(-KEPLER_SHIFT, KEPLER_SHIFT) if seed else 0.0)
    hi = KEPLER_WINDOW[1] + (rng.uniform(-KEPLER_SHIFT, KEPLER_SHIFT) if seed else 0.0)
    e_n = 0.5 / KEPLER_TARGET_SHELL**2
    return tuple(
        float(g) for g in np.geomspace((e_n / -lo) ** 1.5, (e_n / -hi) ** 1.5, points)
    )


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The command for a workload and seed. Smoke mode keeps each workload's
    code path at a size that runs in well under a second (HH 8 shells,
    3 Kepler points); the acceptance gates are defined for the full sizes
    only, so smoke runs skip them and the reference values."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    if name == "kepler-scan":
        grid = kepler_grid(seed, 3 if smoke else KEPLER_POINTS)
        flags = ["--system", "kepler", "--max-n", "12" if smoke else "30"]
        if grid is not None:
            flags += ["--gamma-grid", ",".join(repr(g) for g in grid)]
        metrics = ("w-pt", "w-exact", "kappa")
        points = len(grid) if grid is not None else KEPLER_POINTS
    else:
        metrics = (
            ("w-pt", "w-exact", "kappa", "strength-function")
            if name == "hh-large"
            else ("w-pt",)
        )
        shells = 8 if smoke else (60 if name == "hh-large" else 80)
        flags = ["--system", "henon-heiles", "--shells", str(shells), "--metrics", ",".join(metrics)]
        # the CLI scans shells 1 .. min(shells - 4, 26)
        points = min(shells - 4, 26)
    flags += ["--seed", str(seed)]
    inputs_fixed = name != "kepler-scan" or seed == 0
    return Workload(
        name=name,
        system="kepler" if name == "kepler-scan" else "henon-heiles",
        flags=tuple(flags),
        metrics=metrics,
        points=points,
        gated=not smoke,
        reference=REFERENCE[name] if inputs_fixed and not smoke else None,
    )


def gate_margin(critical: dict) -> float | None:
    """Smallest distance of a headline critical value to the edge of its
    gate; negative when one lies outside. None when no gated value is
    present."""
    margins = [
        tol - abs(critical[key] - centre)
        for key, (centre, tol) in GATES.items()
        if critical.get(key) is not None
    ]
    return min(margins) if margins else None


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        body = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(body))
    return (rows[0], rows[1:]) if rows else ([], [])


def check_output(w: Workload, out: Path) -> tuple[list[str], dict]:
    """Check one run's output directory. Returns the list of problems
    (empty when the output is correct) and what the benchmark reports from
    it: the critical values, the gate margin, the curves CSV digest and
    the bytes written."""
    problems: list[str] = []
    info: dict = {"critical": {}, "gate_margin": None, "csv_sha256": None, "output_bytes": 0}
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        curve_bytes = (out / w.curve_file).read_bytes()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], info
    info["output_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    info["csv_sha256"] = hashlib.sha256(curve_bytes).hexdigest()
    critical = {k: v for k, v in manifest.get("critical", {}).items() if not k.endswith("_bracket")}
    info["critical"] = critical

    if w.gated:
        for key in (k for k in GATES if k in REFERENCE[w.name]):
            value = critical.get(key)
            centre, tol = GATES[key]
            if value is None or not abs(value - centre) <= tol:
                problems.append(f"{key} = {value} outside gate {centre} +/- {tol}")
        info["gate_margin"] = gate_margin(critical)
    for key, ref in (w.reference or {}).items():
        value = critical.get(key, "missing")
        if value == "missing" or (value is None) != (ref is None):
            problems.append(f"{key} = {value}, seed commit gave {ref}")
        elif ref is not None and not abs(value - ref) <= REFERENCE_TOL:
            problems.append(f"{key} = {value!r}, seed commit gave {ref!r}")

    header, rows = _read_csv(out / w.curve_file)
    if tuple(header) != w.columns:
        problems.append(f"{w.curve_file} columns {header}, expected {list(w.columns)}")
    elif len(rows) != w.points:
        problems.append(f"{w.curve_file} has {len(rows)} rows, expected {w.points}")
    else:
        filled = {c for m in w.metrics for c in FILLED[w.system][m]}
        for row in rows:
            bad = [c for c, cell in zip(header, row) if c in filled and not _finite(cell)]
            if bad or len(row) != len(header):
                problems.append(f"{w.curve_file}: bad row {row}")
                break

    if "strength-function" in w.metrics:
        problems += _check_strength_function(out / "strength_function.csv", w)
    return problems, info


def _check_strength_function(path: Path, w: Workload) -> list[str]:
    try:
        header, rows = _read_csv(path)
    except OSError as exc:
        return [f"unreadable strength function: {exc}"]
    axis = "shell" if w.system == "henon-heiles" else "gamma"
    if header != [axis, "eigen_energy", "weight"]:
        return [f"strength_function.csv columns {header}"]
    sums: dict[str, list[float]] = {}
    for row in rows:
        if len(row) != 3 or not _finite(row[2]):
            return [f"strength_function.csv: bad row {row}"]
        sums.setdefault(row[0], []).append(float(row[2]))
    problems = []
    if len(sums) != w.points:
        problems.append(f"strength_function.csv covers {len(sums)} points, expected {w.points}")
    for point, weights in sums.items():
        total = math.fsum(weights)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            problems.append(f"strength function at {axis}={point} sums to {total!r}")
    return problems
