"""Reproducible experiment driver.

Two subcommands: ``run`` executes a scan and writes one curves CSV per
system (plus an optional strength-function CSV) and a JSON manifest with
the interpolated critical values; ``validate`` is a dry run that reports
basis size, scan-point count and a memory estimate without touching any
output file.

Configuration comes from flags, or from a JSON file via --config with
flags overriding file values. Each option is declared once, in OPTIONS:
its config-file key (also the manifest key), its flags, its conversion,
its default and its system. The output directory falls back to the
SPECFRAG_OUTPUT_DIR environment variable when not given explicitly.

A run holds numpy's bundled OpenBLAS to one thread from its first build to
its last metric, so every BLAS call of every stage executes on the thread
that makes it. Kepler's scan points, each with its own solve, are then
measured by --threads threads (default: the CPUs this process may use),
the calling thread among them, each point's solve whole on its thread, and
rows are collected in scan order; one thread, or a scan that solves
nothing, means the calling thread alone, which starts no other. Both
systems measure their exact metrics through one scan loop and take their
critical values from one crossing table.
Henon-Heiles has one decomposition, which every shell of its scan shares:
its shells are measured in order on the calling thread; its H is written in
closed form in the circular basis, whose C3v blocks the decomposition
solves separately. Identical config and seed therefore produce
byte-identical CSVs on one platform whatever --threads and the BLAS thread
setting say. Where no such OpenBLAS is found, the Kepler scan runs on one
thread, the calling one, and the BLAS setting applies throughout.
Floats are written with repr (shortest round-trip) and the timestamp lives
only in the manifest. No step of a run is random, so --seed enters only the
config echo and hash. That hash, config-sha256, is the SHA-256 of the
canonical JSON of the config, from CPython's built-in _sha2 (_sha256 before
3.12), and from hashlib only where neither is built in.

Exit codes: 0 success, 2 invalid configuration or an output that cannot
be written, 3 numerical failure (the message names the stage: Kepler's
rho^2 build, either system's V or rho^2 first-order estimate (w-pt, and
Kepler's W_pt at a scan point), Henon-Heiles's H build and
eigendecomposition, the scan point whose solve or metrics failed, or the
critical values; a metric's InputError on a value the run computed, and a
float overflow, count as numerical). Every bad input exits 2 before any
compute: a malformed or unknown config value, a JSON boolean where a
number belongs, an out-of-range option, an output path at or under an
existing file, a Kepler basis without a shell next to the target
(max_n < 2), or a scan too short or not monotone for the critical values
asked for.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

# CPython's built-in SHA-256, as random.py finds it: importing hashlib would
# map OpenSSL's libcrypto (~4 MB) to hash one small config per run
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # built without its own hashes
        from hashlib import sha256

from . import __version__, henon_heiles, kepler, linalg, metrics
from .errors import ConfigurationError, InputError, NumericalError
from .linalg import (
    ShellGroup,
    eigh,
    projection_onto_subset,
    sector_form_size,
    single_threaded_blas,
    triangular_exchange,
)
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
class Option:
    """One setting. ``key`` names it in a config file, as the argparse
    dest and in the manifest echo; ``convert`` reads a flag string and a
    file value alike. ``default`` None means unset or worked out from other
    values; ``system`` None means the option serves both systems."""

    key: str
    flags: tuple[str, ...]
    convert: Callable
    default: object = None
    system: str | None = None
    help: str | None = None
    choices: tuple[str, ...] | None = None


def _int(value) -> int:
    """An integer; a float with a fraction is refused, not truncated, and
    a JSON boolean is refused, not read as 0 or 1."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


def _float(value) -> float:
    """A float; a JSON boolean is refused, not read as 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def _items(convert: Callable) -> Callable:
    """A comma list (flag or file string) or a JSON array of items."""

    def parse(value) -> list:
        if isinstance(value, str):
            value = [s for s in value.split(",") if s]
        return [convert(v) for v in value]

    return parse


_HH, _KEPLER = henon_heiles.HHConfig(), kepler.KeplerConfig()
OPTIONS = (
    Option("system", ("--system",), str, choices=("henon-heiles", "kepler")),
    Option("output", ("--output", "-o"), os.fspath, help="output directory"),
    Option("seed", ("--seed",), _int, 0),
    Option("metrics", ("--metrics",), _items(str), "w-pt,w-exact,kappa",
           help="comma list from: " + ",".join(KNOWN_METRICS)),
    Option("threads", ("--threads",), _int, None, "kepler",
           "Kepler: threads that measure the scan points, the calling thread "
           "among them, each with a one-thread BLAS; 1 starts no thread (default: "
           "the CPUs this process may use)"),
    Option("selection", ("--selection",), str, StateSelection.PROJECTION_WINDOW.value,
           choices=tuple(s.value for s in StateSelection),
           help="exact-curve eigenstate selection rule (default projection-window)"),
    Option("hbar", ("--hbar",), _float, _HH.hbar, "henon-heiles", "HH: effective hbar"),
    Option("lambda", ("--lambda",), _float, _HH.lam, "henon-heiles", "HH: coupling strength"),
    Option("num_shells", ("--shells",), _int, _HH.num_shells, "henon-heiles",
           "HH: number of shell groups in the basis"),
    Option("shell_min", ("--shell-min",), _int, 1, "henon-heiles", "HH: first scanned shell"),
    Option("shell_max", ("--shell-max",), _int, None, "henon-heiles", "HH: last scanned shell"),
    Option("max_n", ("--max-n",), _int, _KEPLER.max_n, "kepler",
           "Kepler: number of shells in the basis"),
    Option("m", (), _int, 0, "kepler"),  # config file only; must be 0
    Option("target_shell", ("--target-shell",), _int, _KEPLER.target_shell, "kepler",
           "Kepler: shell under study"),
    Option("gamma_grid", ("--gamma-grid",), _items(_float), None, "kepler",
           "Kepler: comma list of field strengths (default: 61 points whose "
           "scaled energies span -0.8 to -0.3 for the target shell)"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """The model of the chosen system and its normalised options: the
    shared ones and the system's own, keyed and valued as the manifest
    echoes them."""

    model: henon_heiles.HHConfig | kepler.KeplerConfig
    options: dict

    def result_key(self) -> dict:
        # everything that determines the numbers; output dir and worker
        # count are excluded so identical scans hash identically
        return {k: v for k, v in self.options.items() if k not in ("output", "threads")}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="specfrag", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "execute a scan and write CSV curves plus a JSON manifest"),
        ("validate", "dry-run: report basis size and scan shape, write nothing"),
    ):
        q = sub.add_parser(name, help=helptext)
        q.add_argument("--config", type=Path, help="JSON config file; flags override it")
        for opt in OPTIONS:
            if opt.flags:
                q.add_argument(*opt.flags, dest=opt.key, choices=opt.choices, help=opt.help)
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
    flags = vars(args)
    return raw | {o.key: flags[o.key] for o in OPTIONS if flags.get(o.key) is not None}


def _convert(opt: Option, value):
    if value is None:
        value = opt.default
    if value is not None:
        try:
            value = opt.convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{opt.key}: cannot read {value!r}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ConfigurationError(f"{opt.key} must be one of {list(opt.choices)}, got {value!r}")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on; cpu_count overcounts under an
    affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_config(raw: dict) -> ExperimentConfig:
    unknown_keys = sorted(set(raw) - {o.key for o in OPTIONS})
    if unknown_keys:
        raise ConfigurationError(
            f"unknown config keys {unknown_keys}; choose from {[o.key for o in OPTIONS]}"
        )
    # every given value is read, the other system's too; only the chosen
    # system's options are kept
    values = {o.key: _convert(o, raw.get(o.key)) for o in OPTIONS}
    system = values["system"]
    opts = {o.key: values[o.key] for o in OPTIONS if o.system in (None, system)}

    if not opts["metrics"]:
        raise ConfigurationError("metric set must be nonempty")
    unknown = [s for s in opts["metrics"] if s not in KNOWN_METRICS]
    if unknown:
        raise ConfigurationError(
            f"unknown metrics {unknown}; choose from {list(KNOWN_METRICS)}"
        )
    # a repeated name would hash the same scan differently
    repeated = sorted({s for s in opts["metrics"] if opts["metrics"].count(s) > 1})
    if repeated:
        raise ConfigurationError(f"metrics named more than once: {repeated}")
    output = Path(opts["output"] or os.environ.get("SPECFRAG_OUTPUT_DIR") or "specfrag-out")
    # run makes the directory and its missing parents: the nearest one that
    # exists must be a directory
    existing = next((p for p in (output, *output.parents) if os.path.exists(p)), None)
    if existing is not None and not existing.is_dir():
        raise ConfigurationError(f"output {output}: {existing} exists and is not a directory")
    opts["output"] = str(output)
    # a given thread count is range-checked whatever the system
    if values["threads"] is not None and values["threads"] < 1:
        raise ConfigurationError(f"threads must be >= 1, got {values['threads']}")

    if system == "henon-heiles":
        model = henon_heiles.HHConfig(
            hbar=opts["hbar"], lam=opts["lambda"], num_shells=opts["num_shells"]
        )
        if model.num_shells < 4:
            raise ConfigurationError(
                "the cubic coupling reaches 3 shells away; the experiment needs "
                f"num_shells >= 4, got {model.num_shells}"
            )
        # the top 3 shells of H are contaminated by the basis edge, so the
        # default scan stops 4 below the cut (and never above shell 26)
        defaulted = opts["shell_max"] is None
        if defaulted:
            opts["shell_max"] = min(model.num_shells - 4, 26)
        if not (0 <= opts["shell_min"] <= opts["shell_max"] <= model.num_shells - 1):
            hint = (f"; shell_max was not given and defaults to min(num_shells - 4, 26) = "
                    f"{opts['shell_max']}: give --shell-max" if defaulted else "")
            raise ConfigurationError(
                f"shell scan [{opts['shell_min']}, {opts['shell_max']}] must fit in "
                f"[0, {model.num_shells - 1}]{hint}"
            )
        scan, scan_keys = range(opts["shell_min"], opts["shell_max"] + 1), "shell_min/shell_max"
    else:
        if opts["m"] != 0:
            raise ConfigurationError("only the m=0 subspace is supported")
        model = kepler.KeplerConfig(
            max_n=opts["max_n"],
            target_shell=opts["target_shell"],
            gamma_grid=opts["gamma_grid"],
        )
        if model.max_n < 2:
            raise ConfigurationError(
                "kappa's D0 is the gap to a neighbouring shell; the experiment needs "
                f"max_n >= 2, got {model.max_n}"
            )
        opts["gamma_grid"] = list(model.gamma_grid)  # echoes the grid derived when unset
        if opts["threads"] is None:
            opts["threads"] = _usable_cpus()
        scan, scan_keys = opts["gamma_grid"], "gamma_grid"
    # a critical value interpolates along a strictly monotone axis
    if set(opts["metrics"]) & {metric for _, metric, *_ in _SYSTEMS[system].crossings}:
        steps = [b - a for a, b in zip(scan, scan[1:])]
        if not steps or not (all(d > 0 for d in steps) or all(d < 0 for d in steps)):
            raise ConfigurationError(
                f"{scan_keys}: a critical value needs at least 2 scan points on a "
                f"strictly monotone axis, got {list(scan)}"
            )
    return ExperimentConfig(model, opts)


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _write_csv(path: Path, columns, lines: Iterable[str], meta: dict) -> None:
    """Header comments, the column names, then the data lines as given:
    formatted with _fmt, comma-joined and newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def _curve_lines(columns, rows: list[dict]) -> Iterator[str]:
    for row in rows:
        yield ",".join(_fmt(row.get(c)) for c in columns) + "\n"


def _repr_floats(values) -> list[str]:
    """repr of each float of a 1-D array, from one repr of the whole list:
    a list's repr joins its items' reprs with ", ", which no float's holds."""
    return repr(values.tolist())[1:-1].split(", ")


def _strength_lines(axis_col: str, rows: list[dict]) -> Iterator[str]:
    # one line per (energy, weight), each float written as _fmt writes it;
    # rows that share one decomposition share its energies' text
    energies, energy_text = None, None
    for row in rows:
        head = _fmt(row[axis_col]) + ","
        row_energies, weights = row["_sf"]
        if row_energies is not energies:
            energies, energy_text = row_energies, _repr_floats(row_energies)
        yield "".join(
            f"{head}{e},{w}\n" for e, w in zip(energy_text, _repr_floats(weights))
        )


@dataclass(frozen=True)
class _System:
    """What the runners' shared code needs to know about one worked
    system's scan as a whole."""

    columns: tuple[str, ...]  # the first one labels strength-function rows
    curve_file: str
    exact_column: str
    # each critical value: (manifest key, metric, axis column, curve column, threshold)
    crossings: tuple[tuple[str, str, str, str, float], ...]


_SYSTEMS = {
    "henon-heiles": _System(HH_COLUMNS, "hh_curves.csv", "energy_exact_mean", (
        ("pt_critical_energy", "w-pt", "energy", "w_pt", 0.5),
        ("exact_critical_energy", "w-exact", "energy", "w_exact", 0.5),
        ("kappa_critical_energy", "kappa", "energy", "kappa", 1.0),
    )),
    # headline axis: zeroth-order scaled energy of the target shell; the
    # alternative reading takes the selected states' mean exact energy
    "kepler": _System(KEPLER_COLUMNS, "kepler_curves.csv", "scaled_energy_exact", (
        ("pt_critical_scaled_energy", "w-pt", "scaled_energy_pt", "w_pt", 0.5),
        ("exact_critical_scaled_energy", "w-exact", "scaled_energy_pt", "w_exact", 0.5),
        ("kappa_critical_scaled_energy", "kappa", "scaled_energy_pt", "kappa", 1.0),
        ("exact_critical_scaled_energy_mean_axis", "w-exact", "scaled_energy_exact", "w_exact",
         0.5),
    )),
}


def _solve(where: str, solve: Callable):
    """solve(), with a numerical failure of it named by where. Inside a run
    the inputs are the run's own computed values, so an InputError there is
    a numerical failure too, and so is a float overflow (ArithmeticError)."""
    try:
        return solve()
    except (NumericalError, InputError) as exc:
        raise NumericalError(f"{where}: {exc}") from exc
    except ArithmeticError as exc:  # its message alone does not say what failed
        raise NumericalError(f"{where}: {exc!r}") from exc


def _measure(config: ExperimentConfig, row: dict, group: ShellGroup, decomp, d0: float,
             exact_energy: Callable[[float], float]) -> dict:
    """row with the exact metrics of the shell group filled in from decomp;
    d0 is kappa's unperturbed spacing to the nearest neighbouring shell, and
    exact_energy maps the selected states' mean eigenvalue to the row's
    exact-energy column."""
    row = dict(row)
    idx = group.indices
    if "w-exact" in config.options["metrics"]:
        rule = StateSelection(config.options["selection"])
        picked = metrics.select_eigenstates(decomp, idx, rule, shell_energy=group.energy)
        proj = projection_onto_subset(decomp, idx)
        row["w_exact"] = float(1.0 - proj[picked].mean())
        mean = float(decomp.eigenvalues[picked].mean())
        row[_SYSTEMS[config.options["system"]].exact_column] = exact_energy(mean)
    if "kappa" in config.options["metrics"]:
        row["gamma_spr"] = spreading_width(strength_function(decomp, idx))
        row["kappa"] = metrics.chaoticity(row["gamma_spr"], d0)
    if "strength-function" in config.options["metrics"]:
        sf = strength_function(decomp, idx)
        row["_sf"] = (sf.eigen_energies, sf.weights)
    return row


def _critical(config: ExperimentConfig, rows: list[dict]) -> dict:
    """The critical value and bracket of each of the system's crossings
    whose curve was asked for. The exact-energy axis can fold back once
    mixing is strong: a crossing along it that fails is reported as
    undefined (None) rather than guessed; along any other axis the
    InputError propagates."""
    system = _SYSTEMS[config.options["system"]]
    critical: dict = {}
    for key, metric, axis, column, threshold in system.crossings:
        if metric in config.options["metrics"]:
            try:
                found = critical_parameter([(r[axis], r[column]) for r in rows], threshold)
            except InputError:
                if axis != system.exact_column:
                    raise
                found = None, None
            critical[key], critical[key + "_bracket"] = found
    return critical


def _measure_all(items, measure: Callable, workers: int) -> list:
    """measure(item) of every item, in order, by the calling thread and
    workers - 1 more threads; one worker starts no thread. Each thread takes
    the next item from one locked source, so every item before a failed one
    has been taken too. Once an item fails no thread starts a new one, and
    after every thread has been joined the earliest failed item's error is
    raised."""
    results: list = [None] * len(items)  # each item's result, or its error
    source, lock, stop = iter(enumerate(items)), threading.Lock(), threading.Event()

    def take() -> tuple | None:
        # the next index and item; None once they are all taken or one failed
        with lock:
            return None if stop.is_set() else next(source, None)

    def work() -> None:
        for i, item in iter(take, None):
            try:
                results[i] = measure(item)
            except BaseException as exc:  # raised below, in item order
                results[i] = exc
                stop.set()

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    finally:  # the caller is done or interrupted: no thread starts a new item
        stop.set()
        for thread in threads:
            if thread.is_alive():  # False too for one that never started
                thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _run_henon_heiles(config: ExperimentConfig, pinned: bool) -> tuple[list[dict], int]:
    """Henon-Heiles's scan: one decomposition serves every shell, so its
    shells are measured by one worker, the calling thread, in order. Returns
    the rows and the worker count."""
    cfg = config.model
    _, partition = henon_heiles.enumerate_basis(cfg)
    shells = range(config.options["shell_min"], config.options["shell_max"] + 1)
    groups = [partition.group(n) for n in shells]
    rows = [{"shell": g.label, "energy": g.energy} for g in groups]
    if "w-pt" in config.options["metrics"]:
        # V goes before build_h forms its own, so the run holds one at a time
        def w_pt() -> list[float]:
            v = henon_heiles.build_v(cfg)
            return [metrics.w_perturbative(v, partition, g.label, cfg.lam) for g in groups]

        for row, value in zip(rows, _solve("henon-heiles-model w-pt", w_pt)):
            row["w_pt"] = value

    if set(config.options["metrics"]) & EXACT_METRICS:
        # H is built inside the solve's stage and released once solved
        decomp = _solve("henon-heiles-model eigendecomposition",
                        lambda: eigh(henon_heiles.build_h(cfg)))
        # kappa's D0 is hbar, the uniform shell spacing
        rows = _measure_all(list(zip(rows, groups)), lambda item: _solve(
            f"henon-heiles-model at shell {item[1].label}",
            lambda: _measure(config, *item, decomp, cfg.hbar, float),
        ), 1)
    return rows, 1


def _scan_workers(threads: int, points: int, pinned: bool) -> int:
    """Kepler's scan workers, one where BLAS is not pinned (see single_threaded_blas)."""
    return min(threads, points) if pinned else 1


def _run_kepler(config: ExperimentConfig, pinned: bool) -> tuple[list[dict], int]:
    """Kepler's scan: every gamma has its own solve, so its points are
    solved by _scan_workers' count, the calling thread among them (see
    _measure_all); a scan with no exact metric solves nothing and starts
    no thread. Rows come back in scan order. A point's decomposition is
    released when its row is done, so each worker holds at most one.
    Returns the rows and the worker count."""
    cfg = config.model
    _, partition = kepler.enumerate_parabolic_basis(cfg)
    rho2 = _solve("kepler-model rho^2 build", lambda: kepler.build_rho2(cfg))
    target = partition.group(cfg.target_shell)
    rows = [{"gamma": gamma, "scaled_energy_pt": kepler.scaled_energy(target.energy, gamma)}
            for gamma in cfg.gamma_grid]
    if "w-pt" in config.options["metrics"]:
        # W is exactly quadratic in the coupling, so one unit-coupling
        # evaluation serves the whole grid
        base = _solve("kepler-model w-pt",
                      lambda: metrics.w_perturbative(rho2, partition, cfg.target_shell, 1.0))
        for row in rows:
            coupling = row["gamma"] * row["gamma"] / 8.0
            row["w_pt"] = base * coupling * coupling  # inf, not an error, on overflow
            if not math.isfinite(row["w_pt"]):
                raise NumericalError(f"kepler-model w-pt at gamma={row['gamma']!r}: "
                                     f"W_pt is not finite ({row['w_pt']!r})")

    workers = 1
    if set(config.options["metrics"]) & EXACT_METRICS:
        # kappa's D0: the gap to the nearest shell; _build_config sees one exists
        d0 = min(
            abs(g.energy - target.energy)
            for g in partition.groups
            if abs(g.label - cfg.target_shell) == 1
        )
        workers = _scan_workers(config.options["threads"], len(rows), pinned)
        rows = _measure_all(rows, lambda row: _solve(
            f"kepler-model at scan point gamma={row['gamma']!r}", lambda: _measure(
                config, row, target, eigh(kepler.build_h(cfg, row["gamma"], rho2)), d0,
                functools.partial(kepler.scaled_energy, gamma=row["gamma"]),
            )), workers)
    return rows, workers


def run(config: ExperimentConfig) -> dict:
    """Run the scan and write its CSVs and manifest.json; returns the manifest."""
    system = _SYSTEMS[config.options["system"]]
    runner = _run_henon_heiles if config.options["system"] == "henon-heiles" else _run_kepler
    # every BLAS call of the run, in any stage or worker, runs on one
    # OpenBLAS thread, so its bytes do not depend on the BLAS thread setting
    with single_threaded_blas() as pinned:
        rows, workers = runner(config, pinned)
        critical = _solve(f"{config.options['system']}-model critical values",
                          lambda: _critical(config, rows))

    sha = sha256(
        json.dumps(config.result_key(), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    meta = {
        "tool": f"specfrag {__version__}",
        "system": config.options["system"],
        "config-sha256": sha,
    }
    # (file name, columns, data lines) of each CSV
    csvs = [(system.curve_file, system.columns, _curve_lines(system.columns, rows))]
    metric_files = {
        name: system.curve_file
        for name in config.options["metrics"]
        if name != "strength-function"
    }
    if "strength-function" in config.options["metrics"]:
        axis_col = system.columns[0]
        csvs.append(("strength_function.csv", (axis_col, "eigen_energy", "weight"),
                     _strength_lines(axis_col, rows)))
        metric_files["strength-function"] = "strength_function.csv"
    manifest = {
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.options,
        "config_sha256": sha,
        "files": [name for name, _, _ in csvs],
        "metric_files": metric_files,
        "critical": critical,
        "scan": {"workers": workers, "blas_pinned": pinned},  # how the scan ran
    }

    # _build_config refused an output path that cannot be a directory; any
    # other failure to write is reported as bad output configuration
    out = Path(config.options["output"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, columns, lines in csvs:
            _write_csv(out / name, columns, lines, meta)
        with open(out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write output to {out}: {exc}") from exc
    return manifest


# kepler.build_rho2's peak in dense arrays: its two rules, the tolerance,
# the difference and one |second| beside them
_RHO2_BUILD_ARRAYS = 5


def validate(config: ExperimentConfig) -> list[str]:
    opts = config.options
    # floats held at once, sized from the basis alone. No operator is held
    # dense: V and rho^2 keep their sector pieces, and H shares them. A solve
    # holds its largest block five times over: the block, LAPACK's copy of
    # it, dsyevd's workspace of about two blocks, and the eigenvectors. HH's
    # w-pt holds V's pieces and a slab of V's columns on the largest scanned
    # shell; an exact metric, V's pieces again and one solve. Kepler holds
    # rho^2's pieces once, shared by every worker's H, and a solve per
    # worker, as a run counts them, unless building rho^2 peaks higher.
    if opts["system"] == "henon-heiles":
        quanta, _ = henon_heiles.enumerate_basis(config.model)
        pieces, block = sector_form_size(*henon_heiles.symmetry(quanta))
        shells, points = opts["num_shells"], opts["shell_max"] - opts["shell_min"] + 1
        span = f"shells {opts['shell_min']}..{opts['shell_max']}"
        build, workers = 0, 1
        slab = opts["shell_max"] + 1 if "w-pt" in opts["metrics"] else 0
    else:
        quanta, _ = kepler.enumerate_parabolic_basis(config.model)
        pieces, block = sector_form_size(triangular_exchange(quanta))
        shells, grid = opts["max_n"], opts["gamma_grid"]
        points, span = len(grid), f"gamma {grid[0]:.6g}..{grid[-1]:.6g}"
        workers = _scan_workers(opts["threads"], points, linalg._openblas() is not None)
        build, slab = _RHO2_BUILD_ARRAYS, 0
    dim = len(quanta)
    solve = 5 * block * block if set(opts["metrics"]) & EXACT_METRICS else 0
    floats = max(build * dim * dim, pieces + max(slab * dim, workers * solve))
    return [
        f"system: {opts['system']}",
        f"{dim} states, {shells} shells",
        f"scan points: {points} ({span})",
        f"estimated peak memory: {floats * 8 / 1e6:.1f} MB",
        f"metrics: {','.join(opts['metrics'])}",
        f"selection: {opts['selection']}",
    ]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _build_config(_merge(args))
        if args.command == "validate":
            for line in validate(config):
                print(line)
            return 0
        manifest = run(config)
        print(f"wrote {', '.join(manifest['files'])} and manifest.json to {config.options['output']}")
        for key, value in sorted(manifest["critical"].items()):
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
