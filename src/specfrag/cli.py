"""Reproducible experiment driver.

Two subcommands: ``run`` executes a scan and writes one curves CSV per
system (plus an optional strength-function CSV) and a JSON manifest with
the interpolated critical values; ``validate`` is a dry run that reports
basis size, scan-point count and a memory estimate without touching any
output file.

Configuration comes from flags, or from a JSON file via --config with
flags overriding file values. The output directory falls back to the
SPECFRAG_OUTPUT_DIR environment variable when not given explicitly.
Identical config and seed produce byte-identical CSVs on one platform with
the BLAS thread setting held fixed, whatever --threads says: scan points run
in order, floats are written with repr (shortest round-trip) and the
timestamp lives only in the manifest.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure (the
message names the module and, where each point has its own solve, the scan
point).
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, henon_heiles, kepler, metrics
from .errors import ConfigurationError, InputError, NumericalError
from .linalg import ShellGroup, SpectralDecomposition, eigh, projection_onto_subset
from .metrics import StateSelection, critical_parameter, spreading_width, strength_function

KNOWN_METRICS = ("w-pt", "w-exact", "kappa", "strength-function")
EXACT_METRICS = {"w-exact", "kappa", "strength-function"}

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


@dataclass(frozen=True)
class ExperimentConfig:
    system: str
    metrics: tuple[str, ...]
    selection: StateSelection
    output: Path
    seed: int
    threads: int
    hh: henon_heiles.HHConfig | None = None
    shell_range: tuple[int, int] | None = None
    kepler_cfg: kepler.KeplerConfig | None = None

    def echo(self) -> dict:
        d = {
            "system": self.system,
            "metrics": list(self.metrics),
            "selection": self.selection.value,
            "seed": self.seed,
            "threads": self.threads,
            "output": str(self.output),
        }
        if self.hh is not None:
            d["hbar"] = self.hh.hbar
            d["lambda"] = self.hh.lam
            d["num_shells"] = self.hh.num_shells
            d["shell_min"], d["shell_max"] = self.shell_range
        if self.kepler_cfg is not None:
            d["max_n"] = self.kepler_cfg.max_n
            d["m"] = self.kepler_cfg.m
            d["target_shell"] = self.kepler_cfg.target_shell
            d["gamma_grid"] = list(self.kepler_cfg.gamma_grid)
        return d

    def result_key(self) -> dict:
        # everything that determines the numbers; output dir and worker
        # count are excluded so identical scans hash identically
        d = self.echo()
        del d["output"]
        del d["threads"]
        return d


@dataclass(frozen=True)
class RunManifest:
    version: str
    timestamp: str
    config: dict
    config_sha256: str
    files: tuple[str, ...]
    metric_files: dict
    critical: dict


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="specfrag", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "execute a scan and write CSV curves plus a JSON manifest"),
        ("validate", "dry-run: report basis size and scan shape, write nothing"),
    ):
        q = sub.add_parser(name, help=helptext)
        q.add_argument("--system", choices=("henon-heiles", "kepler"))
        q.add_argument("--config", type=Path, help="JSON config file; flags override it")
        q.add_argument("--output", "-o", type=Path, help="output directory")
        q.add_argument("--seed", type=int)
        q.add_argument("--metrics", help="comma list from: " + ",".join(KNOWN_METRICS))
        q.add_argument(
            "--threads",
            type=int,
            help="accepted, checked (>= 1) and echoed in the manifest; scan "
            "points run in order, and BLAS's own threads are the only "
            "parallel layer (default: cpu count)",
        )
        q.add_argument(
            "--selection",
            choices=[s.value for s in StateSelection],
            help="exact-curve eigenstate selection rule (default projection-window)",
        )
        q.add_argument("--shells", type=int, help="HH: number of shell groups in the basis")
        q.add_argument("--hbar", type=float, help="HH: effective hbar")
        q.add_argument("--lambda", dest="lam", type=float, help="HH: coupling strength")
        q.add_argument("--shell-min", type=int, help="HH: first scanned shell")
        q.add_argument("--shell-max", type=int, help="HH: last scanned shell")
        q.add_argument("--max-n", type=int, help="Kepler: number of shells in the basis")
        q.add_argument("--target-shell", type=int, help="Kepler: shell under study")
        q.add_argument("--gamma-grid", help="Kepler: comma list of field strengths")
    return p


def _merge(args: argparse.Namespace) -> dict:
    """Flags override config-file values; environment only supplies the
    output directory default."""
    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
    flag_map = {
        "system": args.system,
        "output": args.output,
        "seed": args.seed,
        "metrics": args.metrics,
        "threads": args.threads,
        "selection": args.selection,
        "num_shells": args.shells,
        "hbar": args.hbar,
        "lambda": args.lam,
        "shell_min": args.shell_min,
        "shell_max": args.shell_max,
        "max_n": args.max_n,
        "target_shell": args.target_shell,
        "gamma_grid": args.gamma_grid,
    }
    for key, value in flag_map.items():
        if value is not None:
            raw[key] = value
    return raw


def _build_config(raw: dict) -> ExperimentConfig:
    system = raw.get("system")
    if system not in ("henon-heiles", "kepler"):
        raise ConfigurationError("--system must be henon-heiles or kepler")

    m = raw.get("metrics", "w-pt,w-exact,kappa")
    if isinstance(m, str):
        m = [s for s in m.split(",") if s]
    metric_list = tuple(m)
    if not metric_list:
        raise ConfigurationError("metric set must be nonempty")
    unknown = [s for s in metric_list if s not in KNOWN_METRICS]
    if unknown:
        raise ConfigurationError(
            f"unknown metrics {unknown}; choose from {list(KNOWN_METRICS)}"
        )

    try:
        selection = StateSelection(raw.get("selection", "projection-window"))
    except ValueError:
        raise ConfigurationError(
            f"unknown selection {raw.get('selection')!r}; choose from "
            f"{[s.value for s in StateSelection]}"
        )
    output = Path(raw.get("output") or os.environ.get("SPECFRAG_OUTPUT_DIR") or "specfrag-out")
    seed = int(raw.get("seed", 0))
    threads = int(raw.get("threads") or os.cpu_count() or 1)
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")

    hh_cfg = None
    shell_range = None
    kep_cfg = None
    if system == "henon-heiles":
        hh_cfg = henon_heiles.HHConfig(
            hbar=float(raw.get("hbar", 0.01)),
            lam=float(raw.get("lambda", 1.0)),
            num_shells=int(raw.get("num_shells", 30)),
        )
        if hh_cfg.num_shells < 4:
            raise ConfigurationError(
                "the cubic coupling reaches 3 shells away; the experiment needs "
                f"num_shells >= 4, got {hh_cfg.num_shells}"
            )
        # the top 3 shells of H are contaminated by the basis edge, so the
        # default scan stops 4 below the cut (and never above shell 26)
        shell_min = int(raw.get("shell_min", 1))
        shell_max = int(raw.get("shell_max", min(hh_cfg.num_shells - 4, 26)))
        if not (0 <= shell_min <= shell_max <= hh_cfg.num_shells - 1):
            raise ConfigurationError(
                f"shell scan [{shell_min}, {shell_max}] must fit in "
                f"[0, {hh_cfg.num_shells - 1}]"
            )
        shell_range = (shell_min, shell_max)
    else:
        grid = raw.get("gamma_grid")
        if isinstance(grid, str):
            grid = [float(s) for s in grid.split(",") if s]
        kwargs = {}
        if grid is not None:
            kwargs["gamma_grid"] = tuple(grid)
        kep_cfg = kepler.KeplerConfig(
            max_n=int(raw.get("max_n", 20)),
            m=int(raw.get("m", 0)),
            target_shell=int(raw.get("target_shell", 10)),
            **kwargs,
        )

    return ExperimentConfig(
        system=system,
        metrics=metric_list,
        selection=selection,
        output=output,
        seed=seed,
        threads=threads,
        hh=hh_cfg,
        shell_range=shell_range,
        kepler_cfg=kep_cfg,
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path: Path, columns, rows, meta: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _crossing_entry(curve, threshold: float, axis: str) -> tuple:
    res = critical_parameter(curve, threshold=threshold, axis=axis)
    bracket = list(res.bracket) if res.bracket is not None else None
    return res.critical, bracket


@dataclass(frozen=True)
class _Point:
    """One scan point: the row's axis columns (plus w_pt when asked for),
    the shell under study, the exact solve with the name a failure of it
    goes by, and the map from the selected states' mean eigenvalue to the
    row's exact-energy column."""

    row: dict
    group: ShellGroup
    where: str
    solve: Callable[[], SpectralDecomposition]
    exact_energy: Callable[[float], float]


@dataclass(frozen=True)
class _System:
    """What the scan driver needs to know about one worked system's scan
    as a whole."""

    columns: tuple[str, ...]  # the first one labels strength-function rows
    curve_file: str
    axis: str  # crossing axis name; the critical keys end in it
    axis_column: str
    exact_column: str
    d0: float | None  # unperturbed spacing for kappa; None leaves kappa out


def _solve(point: _Point) -> SpectralDecomposition:
    try:
        return point.solve()
    except NumericalError as exc:
        raise NumericalError(f"{point.where}: {exc}") from exc


def _measure(system: _System, point: _Point, decomp, config: ExperimentConfig) -> dict:
    row = dict(point.row)
    idx = point.group.indices
    if "w-exact" in config.metrics:
        picked = metrics.select_eigenstates(
            decomp, idx, config.selection, shell_energy=point.group.energy
        )
        proj = projection_onto_subset(decomp, idx)
        row["w_exact"] = float(1.0 - proj[picked].mean())
        row[system.exact_column] = point.exact_energy(float(decomp.eigenvalues[picked].mean()))
    if "kappa" in config.metrics:
        width = spreading_width(strength_function(decomp, idx, label=point.group.label))
        row["gamma_spr"] = width
        if system.d0 is not None:
            row["kappa"] = width / system.d0
    if "strength-function" in config.metrics:
        sf = strength_function(decomp, idx, label=point.group.label)
        row["_sf"] = list(zip(sf.eigen_energies.tolist(), sf.weights.tolist()))
    return row


def _scan(config: ExperimentConfig, system: _System, points: list[_Point]) -> tuple[list, dict]:
    """Rows and critical values of one scan, points in order. Each point's
    decomposition is released when its row is done, before the next solve."""
    exact = bool(set(config.metrics) & EXACT_METRICS)
    rows = [_measure(system, p, _solve(p) if exact else None, config) for p in points]
    critical: dict = {}
    suffix = system.axis.replace("-", "_")
    for metric, column, threshold, name in (
        ("w-pt", "w_pt", 0.5, "pt"),
        ("w-exact", "w_exact", 0.5, "exact"),
        ("kappa", "kappa", 1.0, "kappa"),
    ):
        if metric in config.metrics and (column != "kappa" or system.d0 is not None):
            key = f"{name}_critical_{suffix}"
            critical[key], critical[key + "_bracket"] = _crossing_entry(
                [(r[system.axis_column], r[column]) for r in rows], threshold, system.axis
            )
    return rows, critical


def _run_henon_heiles(config: ExperimentConfig) -> tuple[_System, list[dict], dict]:
    cfg = config.hh
    _, partition = henon_heiles.enumerate_basis(cfg)
    v = henon_heiles.build_v(cfg)

    # one decomposition serves every shell of the scan
    solve = functools.cache(lambda: eigh(henon_heiles.build_h(cfg)))
    lo, hi = config.shell_range
    points = []
    for n in range(lo, hi + 1):
        group = partition.group(n)
        row: dict = {"shell": n, "energy": group.energy}
        if "w-pt" in config.metrics:
            row["w_pt"] = metrics.w_perturbative(v, partition, n, cfg.lam)
        points.append(_Point(row, group, "henon-heiles-model eigendecomposition", solve, float))
    system = _System(
        columns=HH_COLUMNS,
        curve_file="hh_curves.csv",
        axis="energy",
        axis_column="energy",
        exact_column="energy_exact_mean",
        d0=cfg.hbar,  # the uniform shell spacing
    )
    return system, *_scan(config, system, points)


def _run_kepler(config: ExperimentConfig) -> tuple[_System, list[dict], dict]:
    cfg = config.kepler_cfg
    _, partition = kepler.enumerate_parabolic_basis(cfg)
    try:
        rho2 = kepler.build_rho2(cfg)
    except NumericalError as exc:
        raise NumericalError(f"kepler-model rho^2 build: {exc}") from exc
    target = partition.group(cfg.target_shell)

    # nearest unperturbed neighbor gap for kappa
    energies = {g.label: g.energy for g in partition.groups}
    gaps = []
    if cfg.target_shell + 1 in energies:
        gaps.append(energies[cfg.target_shell + 1] - target.energy)
    if cfg.target_shell - 1 in energies:
        gaps.append(target.energy - energies[cfg.target_shell - 1])
    d0 = min(gaps) if gaps else None

    # W is exactly quadratic in the coupling, so one unit-coupling
    # evaluation serves the whole grid
    w_pt_base = (
        metrics.w_perturbative(rho2, partition, cfg.target_shell, 1.0)
        if "w-pt" in config.metrics
        else None
    )

    points = []
    for gamma in cfg.gamma_grid:
        row: dict = {
            "gamma": gamma,
            "scaled_energy_pt": kepler.scaled_energy(target.energy, gamma),
        }
        if w_pt_base is not None:
            coupling = gamma * gamma / 8.0
            row["w_pt"] = w_pt_base * coupling * coupling
        points.append(
            _Point(
                row,
                target,
                f"kepler-model at scan point gamma={gamma!r}",
                lambda gamma=gamma: eigh(kepler.build_h(cfg, gamma, rho2)),
                functools.partial(kepler.scaled_energy, gamma=gamma),
            )
        )
    system = _System(
        columns=KEPLER_COLUMNS,
        curve_file="kepler_curves.csv",
        axis="scaled-energy",
        # headline axis: zeroth-order scaled energy of the target shell
        axis_column="scaled_energy_pt",
        exact_column="scaled_energy_exact",
        d0=d0,
    )
    rows, critical = _scan(config, system, points)
    if "w-exact" in config.metrics:
        # alternative reading: selected states' mean exact energy as axis;
        # that axis can fold back once mixing is strong, in which case the
        # alternative is reported as undefined rather than guessed
        try:
            value, bracket = _crossing_entry(
                [(r["scaled_energy_exact"], r["w_exact"]) for r in rows],
                0.5,
                "scaled-energy-exact-mean",
            )
        except InputError:
            value, bracket = None, None
        critical["exact_critical_scaled_energy_mean_axis"] = value
        critical["exact_critical_scaled_energy_mean_axis_bracket"] = bracket
    return system, rows, critical


def run(config: ExperimentConfig) -> RunManifest:
    runner = _run_henon_heiles if config.system == "henon-heiles" else _run_kepler
    system, rows, critical = runner(config)

    config.output.mkdir(parents=True, exist_ok=True)
    echo = config.echo()
    sha = hashlib.sha256(
        json.dumps(config.result_key(), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    meta = {
        "tool": f"specfrag {__version__}",
        "system": config.system,
        "config-sha256": sha,
    }

    files: list[str] = []
    metric_files: dict = {}
    curve_name = system.curve_file
    _write_csv(config.output / curve_name, system.columns, rows, meta)
    files.append(curve_name)
    for name in config.metrics:
        if name != "strength-function":
            metric_files[name] = curve_name

    if "strength-function" in config.metrics:
        sf_name = "strength_function.csv"
        axis_col = system.columns[0]
        sf_rows = []
        for row in rows:
            for energy, weight in row.get("_sf", ()):
                sf_rows.append({axis_col: row[axis_col], "eigen_energy": energy, "weight": weight})
        _write_csv(config.output / sf_name, (axis_col, "eigen_energy", "weight"), sf_rows, meta)
        files.append(sf_name)
        metric_files["strength-function"] = sf_name

    manifest = RunManifest(
        version=__version__,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        config=echo,
        config_sha256=sha,
        files=tuple(files),
        metric_files=metric_files,
        critical=critical,
    )
    with open(config.output / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def validate(config: ExperimentConfig) -> list[str]:
    if config.system == "henon-heiles":
        cfg = config.hh
        dim = cfg.num_shells * (cfg.num_shells + 1) // 2
        lo, hi = config.shell_range
        points = hi - lo + 1
        lines = [
            "system: henon-heiles",
            f"{dim} states, {cfg.num_shells} shells",
            f"scan points: {points} (shells {lo}..{hi})",
        ]
    else:
        cfg = config.kepler_cfg
        dim = cfg.max_n * (cfg.max_n + 1) // 2
        points = len(cfg.gamma_grid)
        lines = [
            "system: kepler",
            f"{dim} states, {cfg.max_n} shells",
            f"scan points: {points} (gamma {cfg.gamma_grid[0]:.6g}..{cfg.gamma_grid[-1]:.6g})",
        ]
    # dense H, eigenvectors and a workspace copy dominate
    mem_mb = 3 * dim * dim * 8 / 1e6
    lines.append(f"estimated peak memory: {mem_mb:.1f} MB")
    lines.append(f"metrics: {','.join(config.metrics)}")
    lines.append(f"selection: {config.selection.value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _build_config(_merge(args))
        if args.command == "validate":
            for line in validate(config):
                print(line)
            return 0
        manifest = run(config)
        print(f"wrote {', '.join(manifest.files)} and manifest.json to {config.output}")
        for key, value in sorted(manifest.critical.items()):
            if not key.endswith("_bracket"):
                print(f"{key}: {value}")
        return 0
    except (ConfigurationError, InputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
