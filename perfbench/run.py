"""Benchmark of `specfrag run`, end to end and layer by layer.

    python3 perfbench/run.py --workload hh-large --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program is taken from its
`src/` directory, never from an installed copy. The loop is closed: one
client starts one `specfrag run` child process at a time, and the next only
after the previous one has ended, for --seconds seconds and at least
MIN_RUNS runs. Every run's output is checked (see spec.check_output).
SETUP_REPEATS fresh `specfrag validate` processes with the same flags, one
before each of the first runs, time start-up, imports and config, with no
compute.

With --trace 1 the loop runs for half the time, then one traced run
(tracer.py) gives the per-layer metrics. Every child runs with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS removed from its environment, so BLAS
uses the library's default thread count, and with --threads set to the
number of CPUs this process may use. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
environment, every sample and the spans go to a file under .perfbench/.
--smoke shrinks each workload to a run of well under a second (HH 8 shells,
3 Kepler points) for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import spec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_RUNS = 3
# every run must end within 180 s; leave room for the traced run and output
LOOP_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0

# name, unit, better, regression bound (share of the parent's median)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("gate_margin", "a.u.", "higher", 0.1),
)
# name, unit, better
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("henon_heiles.build_v_s", "s", "lower"),
    ("henon_heiles.build_v_calls", "count", "lower"),
    ("henon_heiles.build_h_s", "s", "lower"),
    ("kepler.build_rho2_s", "s", "lower"),
    ("kepler.build_h_s", "s", "lower"),
    ("kepler.enumerate_basis_calls", "count", "lower"),
    ("linalg.eigh_s", "s", "lower"),
    ("linalg.eigh_calls", "count", "lower"),
    ("linalg.eigh_max_s", "s", "lower"),
    ("linalg.eigh_flop_est", "flop_computed", "lower"),
    ("linalg.solver_ref_s", "s", "lower"),
    ("linalg.projection_calls", "count", "lower"),
    ("metrics.strength_function_calls", "count", "lower"),
    ("metrics.w_perturbative_s", "s", "lower"),
    ("metrics.select_eigenstates_s", "s", "lower"),
    ("metrics.spreading_width_s", "s", "lower"),
    ("metrics.critical_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("cli.scan_parallelism", "ratio", "higher"),
    ("cli.csv_distinct_digests", "count", "lower"),
    ("cli.mem_estimate_ratio", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def eigh_flop_est(dim: int) -> float:
    """Computed, not measured: 9 n^3 flops for all eigenvalues and
    eigenvectors of a dense symmetric matrix (tridiagonal reduction, QR
    iteration and back-transformation; Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 8.3). Validation is not counted."""
    return 9.0 * dim**3


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], env: dict, log: Path, timeout: float) -> tuple[float, int, int]:
    """Run one child to completion; returns wall seconds, exit code and
    peak resident set size in KiB (ru_maxrss of that child alone)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def environment(threads: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "specfrag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env_as_run": {k: None for k in THREAD_VARS},
        "thread_env_inherited": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "threads_flag": threads,
    }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans,
    which may overlap when they run on pool threads."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def per_layer(record: dict, e2e: dict, digests: set, output_bytes: int) -> dict:
    spans = record["spans"]
    own = self_times(spans)

    def busy(name):
        return sum((own[s["id"]] for s in spans if s["name"] == name), 0.0)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def dur(s):
        return s["end"] - s["start"]

    eighs = [s for s in spans if s["name"] == "linalg.eigh"]
    scans = [s for s in spans if s["name"] == "cli.scan"]
    points = sum(dur(s) for s in spans if s["name"] == "cli.point")
    values = {
        "startup.import_s": record["import_s"],
        "henon_heiles.build_v_s": busy("henon_heiles.build_v"),
        "henon_heiles.build_v_calls": calls("henon_heiles.build_v"),
        "henon_heiles.build_h_s": busy("henon_heiles.build_h"),
        "kepler.build_rho2_s": busy("kepler.build_rho2"),
        "kepler.build_h_s": busy("kepler.build_h"),
        "kepler.enumerate_basis_calls": calls("kepler.enumerate_parabolic_basis"),
        "linalg.eigh_s": busy("linalg.eigh"),
        "linalg.eigh_calls": len(eighs),
        "linalg.eigh_max_s": max((dur(s) for s in eighs), default=0.0),
        "linalg.eigh_flop_est": sum((eigh_flop_est(s["attrs"]["dim"]) for s in eighs), 0.0),
        "linalg.solver_ref_s": record["solver_ref_s"],
        "linalg.projection_calls": calls("linalg.projection_onto_subset"),
        "metrics.strength_function_calls": calls("metrics.strength_function"),
        "metrics.w_perturbative_s": busy("metrics.w_perturbative"),
        "metrics.select_eigenstates_s": busy("metrics.select_eigenstates"),
        "metrics.spreading_width_s": busy("metrics.spreading_width"),
        "metrics.critical_s": busy("metrics.critical_parameter"),
        "cli.self_s": sum(own[s["id"]] for s in spans if s["name"].startswith("cli.")),
        "cli.output_bytes": output_bytes,
        "cli.scan_parallelism": points / sum(dur(s) for s in scans) if scans else 0.0,
        "cli.csv_distinct_digests": len(digests),
        "cli.mem_estimate_ratio": e2e["mem_estimate_ratio"],
        "trace.overhead_s": record["traced_wall_s"] - (e2e["wall_s"] - e2e["setup_s"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def measure(w: spec.Workload, seconds: float, trace: bool, work: Path) -> dict:
    threads = len(os.sched_getaffinity(0))
    env = child_env()
    base = [sys.executable, "-m", "specfrag.cli"]
    validate = [*base, "validate", *w.flags, "--threads", str(threads)]
    started = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - started)

    problems: list[str] = []
    setup: list[float] = []
    estimate_mb = None
    log = work / "child.log"

    def time_setup():
        nonlocal estimate_mb
        wall, code, _ = spawn(validate, env, log, remaining())
        found = re.search(r"estimated peak memory: ([0-9.]+) MB", log.read_text(errors="replace"))
        if code != 0 or not found:
            problems.append(f"validate exited {code}: {_log_tail(log)}")
        else:
            setup.append(wall)
            estimate_mb = float(found.group(1))

    # untimed: compiles bytecode and warms the file cache, which users pay once
    spawn(validate, env, log, remaining())
    # a traced run takes about as long as an untraced one; halve the loop so
    # that --trace 1 costs about what --trace 0 does
    budget = min(seconds / 2 if trace else seconds, LOOP_LIMIT_S)
    runs: list[dict] = []
    loop_start = time.perf_counter()
    while not problems and remaining() > 0:
        # start another run only if it should end within half a run of the budget
        left = budget - (time.perf_counter() - loop_start)
        if len(runs) >= MIN_RUNS and left < statistics.median(r["wall_s"] for r in runs) / 2:
            break
        # set-ups are spread over the loop, one before each of the first
        # runs, so that they see the same machine as the runs they pair with
        if len(setup) < SETUP_REPEATS:
            time_setup()
            if problems:
                break
        out = work / f"run-{len(runs)}"
        wall, code, rss_kib = spawn(
            [*base, "run", *w.flags, "--threads", str(threads), "-o", str(out)],
            env, log, remaining(),
        )
        found, info = (
            spec.check_output(w, out) if code == 0 else ([f"exit code {code}: {_log_tail(log)}"], {})
        )
        runs.append({"wall_s": wall, "exit_code": code, "peak_rss_kib": rss_kib,
                     "problems": found, **info})
        shutil.rmtree(out, ignore_errors=True)
    while not problems and len(setup) < SETUP_REPEATS and remaining() > 0:
        time_setup()

    traced = None
    if trace and not problems:
        out, spans_file = work / "traced", work / "spans.json"
        tracer = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--src", str(SRC),
                  "--spans", str(spans_file), "--", "run", *w.flags,
                  "--threads", str(threads), "-o", str(out)]
        _, code, _ = spawn(tracer, env, log, remaining())
        found, info = (
            spec.check_output(w, out) if code == 0 else ([f"traced run exited {code}: {_log_tail(log)}"], {})
        )
        traced = {"exit_code": code, "problems": found, **info}
        if code == 0:
            traced["record"] = json.loads(spans_file.read_text(encoding="utf-8"))
    return {"threads": threads, "setup_s": setup, "estimate_mb": estimate_mb,
            "problems": problems, "runs": runs, "traced": traced}


def summarise(w: spec.Workload, m: dict, trace: bool) -> dict:
    ok = [r for r in m["runs"] if not r["problems"]]
    # a failed set-up counts as one failed attempt
    attempted = len(m["runs"]) + (m["traced"] is not None) + bool(m["problems"])
    failed = (len(m["runs"]) - len(ok) + bool(m["traced"] and m["traced"]["problems"])
              + bool(m["problems"]))
    result = {"correct": bool(ok) and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {}}
    if not ok or not m["setup_s"]:
        return result
    wall = statistics.median(r["wall_s"] for r in ok)
    peak_mb = statistics.median(r["peak_rss_kib"] for r in ok) * 1024 / 1e6
    margins = [r["gate_margin"] for r in ok if r["gate_margin"] is not None]
    e2e = {
        "wall_s": wall,
        "points_per_s": w.points / wall,
        "setup_s": statistics.median(m["setup_s"]),
        "peak_rss_mb": peak_mb,
        "gate_margin": min(margins) if margins else None,
        # None when the printed estimate rounds to 0.0 MB (smoke sizes)
        "mem_estimate_ratio": peak_mb / m["estimate_mb"] if m["estimate_mb"] else None,
    }
    if not trace:
        result["metrics"] = {n: {"value": e2e[n], "unit": u} for n, u, _, _ in END_TO_END}
    elif m["traced"] and "record" in m["traced"]:
        digests = {r["csv_sha256"] for r in ok} | {m["traced"]["csv_sha256"]}
        result["metrics"] = per_layer(m["traced"]["record"], e2e, digests, m["traced"]["output_bytes"])
    result["e2e"] = e2e
    return result


def report(w: spec.Workload, seed: int, m: dict, result: dict) -> None:
    runs = m["runs"]
    print(f"workload {w.name}, seed {seed}: closed loop, 1 client, {len(runs)} runs of "
          f"`specfrag run {' '.join(w.flags[:8])}{' ...' if len(w.flags) > 8 else ''}`, "
          f"--threads {m['threads']}, BLAS threads at library default")
    e2e = result.get("e2e", {})
    walls = sorted(r["wall_s"] for r in runs if not r["problems"])
    notes = {
        "wall_s": f"median of {len(walls)}" + (f", range {walls[0]:.4f}..{walls[-1]:.4f}" if walls else ""),
        "setup_s": f"median of {len(m['setup_s'])} `specfrag validate`",
        "peak_rss_mb": f"child ru_maxrss, median; validate estimate {m['estimate_mb']} MB",
        "gate_margin": "smallest distance to a criteria 1-5 gate edge",
    }
    for name, unit, _, _ in END_TO_END:
        if name in e2e:
            print(f"  {name}: {e2e[name]} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    if "mem_estimate_ratio" in e2e:
        print(f"  mem_estimate_ratio: {e2e['mem_estimate_ratio']}")
    print(f"  failed_frac: {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} runs)")
    if m["traced"]:
        for name, v in result["metrics"].items():
            print(f"  {name}: {v['value']} {v['unit']}")
    else:
        digests = {r["csv_sha256"] for r in runs if r.get("csv_sha256")}
        print(f"  cli.csv_distinct_digests: {len(digests)} (the README promises 1)")
    problems = m["problems"] + [p for r in runs for p in r["problems"]]
    problems += m["traced"]["problems"] if m["traced"] else []
    print("  output check: " + ("ok" if result["correct"] else "FAILED"))
    for p in sorted(set(problems)):
        print(f"    {p}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add a traced run and report the per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (SRC / "specfrag" / "cli.py").is_file():
        print(f"no specfrag source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    w = spec.make_workload(args.workload, args.seed, smoke=args.smoke)
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    work.mkdir()
    try:
        m = measure(w, args.seconds, bool(args.trace), work)
        result = summarise(w, m, bool(args.trace))
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%f")
        stem = STATE / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}-{stamp}"
        stem.parent.mkdir(exist_ok=True)
        traced = m["traced"] or {}
        if "record" in traced:
            Path(f"{stem}-spans.json").write_text(json.dumps(traced.pop("record")), encoding="utf-8")
        Path(f"{stem}.json").write_text(json.dumps(
            {"workload": w.name, "seed": args.seed, "smoke": args.smoke, "flags": list(w.flags),
             "seconds": args.seconds, "environment": environment(m["threads"]),
             "measurement": m, "result": result}, indent=1, default=str), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(w, args.seed, m, result)
    print(f"  details: {stem}.json")
    result.pop("e2e", None)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
