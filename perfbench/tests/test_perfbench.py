"""Tests of the benchmark itself: workload generation, the output check,
span accounting, and end-to-end smoke runs of the runner and the tracer.

    python3 -m pytest -q perfbench/tests
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

REPO = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_runner():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    # hh-pt stays runnable by name but is not a workload of BENCHMARK.json
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: why for name, why in spec.WHY.items() if name != "hh-pt"
    }
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(run.PER_LAYER)


def test_seed_zero_is_the_default_grid():
    for name in spec.WHY:
        w = spec.make_workload(name, 0)
        assert "--gamma-grid" not in w.flags
        assert w.reference == spec.REFERENCE[name]


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_kepler_seed_shifts_window_ends(seed):
    w = spec.make_workload("kepler-scan", seed)
    assert w == spec.make_workload("kepler-scan", seed)
    grid = [float(g) for g in w.flags[w.flags.index("--gamma-grid") + 1].split(",")]
    assert len(grid) == w.points == 61
    e_n = -0.5 / spec.KEPLER_TARGET_SHELL**2
    eps = [e_n * g ** (-2.0 / 3.0) for g in (grid[0], grid[-1])]
    for got, want in zip(eps, spec.KEPLER_WINDOW):
        assert abs(got - want) <= spec.KEPLER_SHIFT + 1e-12
    assert w.reference is None  # inputs differ from the seed commit's
    assert spec.make_workload("hh-large", seed).reference == spec.REFERENCE["hh-large"]


def test_gate_margin_is_distance_to_nearest_edge():
    assert spec.gate_margin({"pt_critical_energy": 0.083}) == pytest.approx(0.007)
    crit = {"pt_critical_energy": 0.084, "exact_critical_energy": 0.114, "kappa_critical_energy": None}
    assert spec.gate_margin(crit) == pytest.approx(0.001)
    assert spec.gate_margin({"exact_critical_energy": 0.12}) < 0
    assert spec.gate_margin({}) is None


def _fake_output(tmp_path, w, critical, rows=None, sf_total=1.0):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "manifest.json").write_text(json.dumps({"critical": critical}))
    rows = w.points if rows is None else rows
    lines = ["# tool: specfrag", ",".join(w.columns)]
    lines += [",".join(["1.0"] * len(w.columns)) for _ in range(rows)]
    (out / w.curve_file).write_text("\n".join(lines) + "\n")
    sf = ["shell,eigen_energy,weight"]
    for point in range(w.points):
        sf += [f"{point}.0,0.1,{sf_total / 2!r}", f"{point}.0,0.2,{sf_total / 2!r}"]
    (out / "strength_function.csv").write_text("\n".join(sf) + "\n")
    return out


def test_check_output_accepts_reference_values(tmp_path):
    w = spec.make_workload("hh-large", 0)
    problems, info = spec.check_output(w, _fake_output(tmp_path, w, dict(spec.REFERENCE["hh-large"])))
    assert problems == []
    assert info["gate_margin"] == pytest.approx(0.0057388, abs=1e-6)
    assert len(info["csv_sha256"]) == 64 and info["output_bytes"] > 0


@pytest.mark.parametrize(
    "change, expect",
    [
        ({"exact_critical_energy": 0.1151}, "outside gate"),
        ({"exact_critical_energy": 0.1008}, "seed commit gave"),
        ({"kappa_critical_energy": None}, "outside gate"),
    ],
)
def test_check_output_rejects_wrong_critical_values(tmp_path, change, expect):
    w = spec.make_workload("hh-large", 0)
    problems, _ = spec.check_output(w, _fake_output(tmp_path, w, {**spec.REFERENCE["hh-large"], **change}))
    assert any(expect in p for p in problems)


def test_check_output_rejects_bad_files(tmp_path):
    w = spec.make_workload("hh-large", 0)
    crit = dict(spec.REFERENCE["hh-large"])
    problems, _ = spec.check_output(w, _fake_output(tmp_path / "a", w, crit, rows=25))
    assert any("has 25 rows" in p for p in problems)
    problems, _ = spec.check_output(w, _fake_output(tmp_path / "b", w, crit, sf_total=1.0 + 1e-5))
    assert any("sums to" in p for p in problems)
    out = _fake_output(tmp_path / "c", w, crit)
    text = (out / w.curve_file).read_text().replace("1.0,1.0\n", "1.0,oops\n", 1)
    (out / w.curve_file).write_text(text)
    problems, _ = spec.check_output(w, out)
    assert any("bad row" in p for p in problems)
    problems, _ = spec.check_output(w, tmp_path / "missing")
    assert problems and problems[0].startswith("unreadable")


def test_self_times_subtract_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},  # overlaps 1 (pool thread)
        {"id": 3, "parent": 2, "start": 3.5, "end": 4.5},
    ]
    own = run.self_times(spans)
    assert own == {0: pytest.approx(5.0), 1: pytest.approx(3.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0)}


def _smoke(name, trace=1, cwd=REPO):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize(
    "name, counts",
    [
        ("hh-large", {"henon_heiles.build_v_calls": 2, "linalg.eigh_calls": 1,
                      "linalg.projection_calls": 4 * 4, "kepler.enumerate_basis_calls": 0}),
        ("hh-pt", {"henon_heiles.build_v_calls": 1, "linalg.eigh_calls": 0,
                   "metrics.strength_function_calls": 0}),
        ("kepler-scan", {"henon_heiles.build_v_calls": 0, "linalg.eigh_calls": 3,
                         "kepler.enumerate_basis_calls": 1 + 2 + 3}),
    ],
)
def test_smoke_traced_run(name, counts):
    proc = _smoke(name)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS + 1
    metrics = result["metrics"]
    assert list(metrics) == [n for n, _, _ in run.PER_LAYER]
    for key, want in counts.items():
        assert metrics[key]["value"] == want, key
    assert metrics["cli.csv_distinct_digests"]["value"] == 1
    assert metrics["startup.import_s"]["value"] > 0
    assert math.isfinite(metrics["trace.overhead_s"]["value"])
    assert "output check: ok" in proc.stdout


def test_smoke_untraced_run_prints_end_to_end_metrics():
    proc = _smoke("hh-pt", trace=0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [n for n, *_ in run.END_TO_END]
    for name, unit, *_ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert f"  {name}: " in proc.stdout
    assert result["metrics"]["wall_s"]["value"] > 0
    assert "failed_frac: 0.0" in proc.stdout


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _smoke("hh-pt", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
