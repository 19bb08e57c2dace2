import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
import specfrag
import specfrag.cli as cli
from specfrag import henon_heiles, kepler, linalg, metrics
from specfrag.cli import main
from specfrag.errors import InputError, NumericalError

KEPLER_SMALL = ["run", "--system", "kepler", "--max-n", "6", "--target-shell", "3",
                "--gamma-grid", "0.004,0.008,0.016"]
HH_SMALL = ["run", "--system", "henon-heiles", "--shells", "8"]
ALL_METRICS = "w-pt,w-exact,kappa,strength-function"


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestValidate:
    def test_henon_heiles_lines(self, capsys):
        assert main(["validate", "--system", "henon-heiles", "--shells", "30"]) == 0
        out = capsys.readouterr().out
        assert "system: henon-heiles" in out
        assert "465 states, 30 shells" in out
        assert "scan points: 26 (shells 1..26)" in out

    def test_kepler_lines(self, capsys):
        assert main(["validate", "--system", "kepler"]) == 0
        out = capsys.readouterr().out
        assert "210 states, 20 shells" in out
        assert "scan points: 61" in out

    @staticmethod
    def estimate_mb(capsys, argv) -> float:
        assert main(["validate", *argv]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "peak memory" in l)
        return float(line.split(": ")[1].split()[0])

    # What a run holds, in floats: an operator's sector pieces (A[fixed,
    # fixed], A[reps, fixed], A[reps, reps] and A[reps, partners], the last
    # left out where two blocks swap, and A[fixed, reps], which the buffer
    # holds beside them), and per solve five arrays of its largest block:
    # the block, LAPACK's copy, dsyevd's two-block workspace and the
    # eigenvectors. Kepler 30: 15 fixed states and 225 pairs, so an even
    # block of 240.
    KEPLER_30_PIECES = 15 ** 2 + 225 * 15 + 2 * 225 ** 2 + 15 * 225
    KEPLER_30_SOLVE = 5 * 240 ** 2
    # HH 60: A1 + A2 hold 30 fixed states and 290 pairs, E 610 swapped pairs
    HH_60_PIECES = 30 ** 2 + 290 * 30 + 2 * 290 ** 2 + 610 ** 2 + 30 * 290
    HH_60_SOLVE = 5 * 610 ** 2

    def test_memory_estimate_scales_with_kepler_workers(self, capsys):
        argv = ["--system", "kepler", "--max-n", "30", "--threads"]
        one, two, eight = (self.estimate_mb(capsys, argv + [t]) for t in ("1", "2", "8"))
        rho2 = 465 ** 2
        for estimate, workers in ((one, 1), (two, 2), (eight, 8)):
            # rho^2's build peaks at 5 dense arrays, above 1 or 2 workers'
            # solves; its pieces are held once, whatever the workers
            floats = max(5 * rho2, self.KEPLER_30_PIECES + workers * self.KEPLER_30_SOLVE)
            assert estimate == pytest.approx(floats * 8 / 1e6, abs=0.05)
        assert one == two < eight
        # never more workers than points
        grid = ["--gamma-grid", "0.004,0.008"]
        assert self.estimate_mb(capsys, argv + ["8"] + grid) == two

    def test_memory_estimate_of_henon_heiles_ignores_threads(self, capsys):
        argv = ["--system", "henon-heiles", "--shells", "60", "--threads"]
        one, four = (self.estimate_mb(capsys, argv + [t]) for t in ("1", "4"))
        floats = self.HH_60_PIECES + self.HH_60_SOLVE  # H's pieces and its solve
        assert one == four == pytest.approx(floats * 8 / 1e6, abs=0.05)

    def test_memory_estimate_of_henon_heiles_w_pt_holds_v_pieces_and_a_slab(self, capsys):
        argv = ["--system", "henon-heiles", "--shells", "60", "--metrics"]
        alone, with_exact = (self.estimate_mb(capsys, argv + [m]) for m in ("w-pt", "w-pt,kappa"))
        # V's pieces and its columns on shell 26, the largest scanned
        assert alone == pytest.approx((self.HH_60_PIECES + 1830 * 27) * 8 / 1e6, abs=0.05)
        assert with_exact == pytest.approx(
            (self.HH_60_PIECES + self.HH_60_SOLVE) * 8 / 1e6, abs=0.1)

    def test_zero_shells_config_error(self, capsys):
        assert main(["validate", "--system", "henon-heiles", "--shells", "0"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_writes_no_files(self, tmp_path):
        out = tmp_path / "nothing"
        main(["validate", "--system", "kepler", "--output", str(out)])
        assert not out.exists()


class TestRun:
    def test_small_henon_heiles_run(self, tmp_path):
        out = tmp_path / "hh"
        assert main(
            ["run", "--system", "henon-heiles", "--shells", "9", "-o", str(out)]
        ) == 0
        meta, header, rows = read_csv(out / "hh_curves.csv")
        assert header == list(cli.HH_COLUMNS)
        assert len(rows) == 5  # shells 1..min(9-4, 26)
        assert any("config-sha256" in m for m in meta)
        assert any("tool" in m for m in meta)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["num_shells"] == 9
        for key in (
            "pt_critical_energy",
            "exact_critical_energy",
            "kappa_critical_energy",
        ):
            assert key in manifest["critical"]
            assert key + "_bracket" in manifest["critical"]

    # each critical key's axis column, curve column and threshold
    CROSSINGS = {
        "pt_critical_energy": ("energy", "w_pt", 0.5),
        "exact_critical_energy": ("energy", "w_exact", 0.5),
        "kappa_critical_energy": ("energy", "kappa", 1.0),
        "pt_critical_scaled_energy": ("scaled_energy_pt", "w_pt", 0.5),
        "exact_critical_scaled_energy": ("scaled_energy_pt", "w_exact", 0.5),
        "kappa_critical_scaled_energy": ("scaled_energy_pt", "kappa", 1.0),
        "exact_critical_scaled_energy_mean_axis": ("scaled_energy_exact", "w_exact", 0.5),
    }

    @pytest.mark.parametrize("argv", [
        [*HH_SMALL, "--lambda", "4"],
        ["run", "--system", "kepler", "--max-n", "8", "--target-shell", "5"],
    ], ids=["henon-heiles", "kepler"])
    def test_manifest_brackets_are_neighbouring_samples_around_the_crossing(self, tmp_path, argv):
        # both scans cross all three thresholds; Kepler's mean-axis reading
        # has no crossing there and reports none
        assert main([*argv, "--metrics", "w-pt,w-exact,kappa", "-o", str(tmp_path)]) == 0
        critical = json.loads((tmp_path / "manifest.json").read_text())["critical"]
        _, header, rows = read_csv(next(tmp_path.glob("*_curves.csv")))
        samples = {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
        crossed = 0
        for key in (k for k in critical if not k.endswith("_bracket")):
            value, bracket = critical[key], critical[key + "_bracket"]
            axis, column, threshold = self.CROSSINGS[key]
            if value is None:
                assert bracket is None, key
                continue
            crossed += 1
            assert isinstance(bracket, list) and len(bracket) == 2, key
            xs, ws = samples[axis], samples[column]
            i = xs.index(bracket[0])
            j = i if bracket[1] == bracket[0] else i + 1  # a sample on the threshold
            assert xs[j] == bracket[1], key
            assert min(ws[i], ws[j]) <= threshold <= max(ws[i], ws[j]), key
            assert min(bracket) <= value <= max(bracket), key
        assert crossed == 3

    def test_critical_of_folded_exact_axis_is_none(self):
        # the selected states' mean exact energy may fold back, and the
        # crossing along it is then undefined; a fault of the headline axis
        # is not forgiven
        config = cli._build_config({"system": "kepler", "metrics": ["w-pt", "w-exact"]})
        rows = [{"scaled_energy_pt": x, "scaled_energy_exact": y, "w_pt": w, "w_exact": w}
                for x, y, w in [(-0.8, -0.70, 0.2), (-0.6, -0.75, 0.4), (-0.4, -0.72, 0.8)]]
        critical = cli._critical(config, rows)
        assert critical["exact_critical_scaled_energy_mean_axis"] is None
        assert critical["exact_critical_scaled_energy_mean_axis_bracket"] is None
        assert critical["exact_critical_scaled_energy"] == pytest.approx(-0.55)
        assert critical["exact_critical_scaled_energy_bracket"] == (-0.6, -0.4)
        rows[1]["scaled_energy_pt"] = -0.9
        with pytest.raises(InputError, match="strictly monotone"):
            cli._critical(config, rows)

    def test_kepler_run_columns(self, tmp_path):
        out = tmp_path / "kep"
        code = main(
            [
                "run",
                "--system",
                "kepler",
                "--max-n",
                "6",
                "--target-shell",
                "3",
                "--gamma-grid",
                "0.004,0.008,0.016",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out / "kepler_curves.csv")
        assert header == list(cli.KEPLER_COLUMNS)
        assert len(rows) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert "pt_critical_scaled_energy" in manifest["critical"]
        assert "exact_critical_scaled_energy" in manifest["critical"]

    def test_byte_determinism(self, tmp_path):
        args = ["run", "--system", "henon-heiles", "--shells", "8", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["-o", str(a), "--threads", "1"]) == 0
        assert main(args + ["-o", str(b), "--threads", "3"]) == 0
        assert (a / "hh_curves.csv").read_bytes() == (b / "hh_curves.csv").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["config_sha256"] == mb["config_sha256"]
        assert ma["critical"] == mb["critical"]

    def test_kepler_byte_determinism(self, tmp_path):
        args = ["run", "--system", "kepler", "--max-n", "8", "--target-shell", "4",
                "--gamma-grid", "0.004,0.008,0.016", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["-o", str(a), "--threads", "1"]) == 0
        assert main(args + ["-o", str(b), "--threads", "3"]) == 0
        assert (a / "kepler_curves.csv").read_bytes() == (b / "kepler_curves.csv").read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["config_sha256"] == mb["config_sha256"]
        assert ma["critical"] == mb["critical"]

    @pytest.mark.parametrize("args", [HH_SMALL, KEPLER_SMALL], ids=["henon-heiles", "kepler"])
    def test_config_digest_is_sha256_of_result_key(self, tmp_path, args):
        # whichever module computes it, the digest is SHA-256 of the
        # canonical JSON of the result key, in the manifest and each header
        import hashlib

        argv = [*args, "-o", str(tmp_path)]
        assert main(argv) == 0
        key = cli._build_config(cli._merge(cli._parser().parse_args(argv))).result_key()
        canonical = json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(canonical).hexdigest()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_sha256"] == digest
        for name in manifest["files"]:
            assert f"# config-sha256: {digest}" in read_csv(tmp_path / name)[0]

    def test_kepler_point_decomposition_released_before_next_solve(self, tmp_path, monkeypatch):
        _check_decompositions_alive(tmp_path, monkeypatch, threads=1)

    def test_kepler_point_decompositions_one_per_worker(self, tmp_path, monkeypatch):
        _check_decompositions_alive(tmp_path, monkeypatch, threads=2)

    def test_kepler_point_decompositions_one_per_worker_three_workers(
        self, tmp_path, monkeypatch
    ):
        _check_decompositions_alive(tmp_path, monkeypatch, threads=3)

    def test_kepler_csv_independent_of_blas_and_worker_threads(self, tmp_path):
        # at max_n 24 these points' CSV moves with OPENBLAS_NUM_THREADS
        # when the solves use BLAS's own threads
        args = ["run", "--system", "kepler", "--max-n", "24",
                "--gamma-grid", "0.0005,0.0008,0.0013,0.0021"]
        paths = [str(Path(specfrag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        digests = set()
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"b{blas}-t{threads}"
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                           OPENBLAS_NUM_THREADS=blas)
                done = subprocess.run(
                    [sys.executable, "-m", "specfrag.cli", *args, "--threads", threads,
                     "-o", str(out)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert done.returncode == 0, done.stderr
                digests.add((out / "kepler_curves.csv").read_bytes())
        assert len(digests) == 1

    def test_henon_heiles_csvs_independent_of_blas_and_worker_threads(self, tmp_path):
        # HH 30 is the smallest model whose CSVs moved with
        # OPENBLAS_NUM_THREADS when its one solve used BLAS's own threads
        args = ["run", "--system", "henon-heiles", "--shells", "30", "--metrics", ALL_METRICS]
        paths = [str(Path(specfrag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        digests = set()
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"b{blas}-t{threads}"
                env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                           OPENBLAS_NUM_THREADS=blas)
                done = subprocess.run(
                    [sys.executable, "-m", "specfrag.cli", *args, "--threads", threads,
                     "-o", str(out)],
                    env=env, capture_output=True, text=True, timeout=120,
                )
                assert done.returncode == 0, done.stderr
                digests.add(tuple((out / name).read_bytes()
                                  for name in ("hh_curves.csv", "strength_function.csv")))
        assert len(digests) == 1

    @pytest.mark.parametrize("code", [0, 3])
    def test_blas_thread_count_restored(self, tmp_path, monkeypatch, code):
        lib = linalg._openblas()
        if lib is None:
            pytest.skip("numpy's BLAS exposes no thread count")
        get, set_, _ = lib
        before = get()
        set_(2)
        try:
            if code == 3:
                monkeypatch.setattr(cli, "eigh", _fail)
            assert main([*KEPLER_SMALL, "--threads", "2", "-o", str(tmp_path)]) == code
            assert get() == 2
        finally:
            set_(before)

    def test_henon_heiles_w_pt_alone_runs_pinned(self, tmp_path):
        # the pin covers the whole run, not only a solve
        if linalg._openblas() is None:
            pytest.skip("numpy's BLAS exposes no thread count")
        assert main([*HH_SMALL, "--metrics", "w-pt", "-o", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scan"] == {"workers": 1, "blas_pinned": True}

    def test_henon_heiles_v_built_on_one_blas_thread(self, tmp_path, monkeypatch):
        lib = linalg._openblas()
        if lib is None:
            pytest.skip("numpy's BLAS exposes no thread count")
        get, set_, _ = lib
        real, seen = henon_heiles.build_v, []

        def recorded(cfg):
            seen.append(get())
            return real(cfg)

        monkeypatch.setattr(henon_heiles, "build_v", recorded)
        before = get()
        set_(2)
        try:
            assert main([*HH_SMALL, "--metrics", "w-pt", "-o", str(tmp_path)]) == 0
            assert seen == [1]
            assert get() == 2
        finally:
            set_(before)

    def test_unpinned_blas_runs_one_worker(self, tmp_path, monkeypatch):
        pinned, unpinned = tmp_path / "pinned", tmp_path / "unpinned"
        assert main([*KEPLER_SMALL, "--threads", "2", "-o", str(pinned)]) == 0
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        assert main([*KEPLER_SMALL, "--threads", "2", "-o", str(unpinned)]) == 0
        manifest = json.loads((unpinned / "manifest.json").read_text())
        assert manifest["scan"] == {"workers": 1, "blas_pinned": False}
        assert read_csv(pinned / "kepler_curves.csv") == read_csv(unpinned / "kepler_curves.csv")

    def test_manifest_records_scan(self, tmp_path):
        assert main([*KEPLER_SMALL, "--threads", "2", "-o", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        pinned = linalg._openblas() is not None
        assert manifest["scan"] == {"workers": 2 if pinned else 1, "blas_pinned": pinned}

    @pytest.mark.parametrize("metrics, solves", [
        ("w-pt,w-exact,kappa,strength-function", 1),
        ("w-pt", 0),
    ])
    def test_henon_heiles_solves_once(self, tmp_path, monkeypatch, metrics, solves):
        real, calls = cli.eigh, []

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(cli, "eigh", counted)
        assert main(["run", "--system", "henon-heiles", "--shells", "9", "--metrics", metrics,
                     "--threads", "2", "-o", str(tmp_path)]) == 0
        assert len(calls) == solves

    def test_henon_heiles_starts_no_thread(self, tmp_path, monkeypatch):
        # every shell shares the one solve, so the shells are measured in
        # order on the calling thread
        def no_thread(self):
            raise AssertionError("Henon-Heiles started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert main([*HH_SMALL, "--metrics", ALL_METRICS, "--threads", "2",
                     "-o", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scan"] == {"workers": 1, "blas_pinned": linalg._openblas() is not None}
        assert "threads" not in manifest["config"]

    @pytest.mark.parametrize("metrics, threads", [(ALL_METRICS, "1"), ("w-pt", "3")],
                             ids=["one-thread", "no-solve"])
    def test_kepler_one_worker_starts_no_thread(self, tmp_path, monkeypatch, metrics, threads):
        # one worker is the calling thread alone, and so is a scan that
        # solves nothing, whatever --threads says
        def no_thread(self):
            raise AssertionError("a one-worker Kepler scan started a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert main([*KEPLER_SMALL, "--metrics", metrics, "--threads", threads,
                     "-o", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scan"]["workers"] == 1

    def test_kepler_scan_leaves_no_thread_behind(self, tmp_path, capsys, monkeypatch):
        # three workers, whether every point succeeds or one fails: every
        # thread the scan starts has ended when main returns
        before = threading.active_count()
        assert main([*KEPLER_SMALL, "--threads", "3", "-o", str(tmp_path / "ok")]) == 0
        assert threading.active_count() == before
        assert _solves_until_failure(tmp_path / "failed", capsys, monkeypatch, threads=3) in (2, 3)
        assert threading.active_count() == before

    def test_kepler_calling_thread_measures_points(self, tmp_path, monkeypatch):
        # two workers are the calling thread and one pool thread; each
        # waits at its first solve until the other reaches its own
        if linalg._openblas() is None:
            pytest.skip("numpy's BLAS exposes no thread count")
        real, seen, both = cli.eigh, set(), threading.Barrier(2, timeout=60)

        def recorded(m):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                both.wait()
            return real(m)

        monkeypatch.setattr(cli, "eigh", recorded)
        assert main([*KEPLER_SMALL, "--threads", "2", "-o", str(tmp_path)]) == 0
        assert len(seen) == 2
        assert threading.get_ident() in seen

    def test_kepler_points_each_measured_once_under_contention(self, tmp_path, monkeypatch):
        # more workers than cores, switching threads as often as it can: a
        # point taken twice or lost shows in the solve count or the CSV
        grid = ",".join(repr(0.002 * k) for k in range(1, 25))
        real, solved = cli.eigh, []

        def counted(m):
            solved.append(m)
            return real(m)

        monkeypatch.setattr(cli, "eigh", counted)
        codes, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("1", "8"):
                argv = [*KEPLER_SMALL[:-1], grid, "--threads", threads,
                        "-o", str(tmp_path / threads)]
                runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert codes == [0, 0]
        assert len(solved) == 2 * 24
        assert (read_csv(tmp_path / "1" / "kepler_curves.csv")
                == read_csv(tmp_path / "8" / "kepler_curves.csv"))

    def test_kepler_w_pt_alone_solves_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "eigh", _fail)
        assert main([*KEPLER_SMALL, "--metrics", "w-pt", "-o", str(tmp_path)]) == 0
        _, header, rows = read_csv(tmp_path / "kepler_curves.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row[header.index("w_pt")]) > 0.0
            assert row[header.index("w_exact")] == ""

    def test_lambda_zero_no_mixing(self, tmp_path):
        out = tmp_path / "frozen"
        assert main(
            [
                "run",
                "--system",
                "henon-heiles",
                "--shells",
                "8",
                "--lambda",
                "0",
                "-o",
                str(out),
            ]
        ) == 0
        _, header, rows = read_csv(out / "hh_curves.csv")
        w_exact_col = header.index("w_exact")
        w_pt_col = header.index("w_pt")
        assert all(r[w_exact_col] == "0.0" for r in rows)
        assert all(r[w_pt_col] == "0.0" for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["critical"]["exact_critical_energy"] is None

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps({"system": "henon-heiles", "num_shells": 10, "hbar": 0.01})
        )
        out = tmp_path / "o"
        assert main(
            ["run", "--config", str(cfg_path), "--shells", "8", "-o", str(out)]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["num_shells"] == 8
        assert manifest["config"]["hbar"] == 0.01

    def test_metric_subset_leaves_other_columns_empty(self, tmp_path):
        out = tmp_path / "subset"
        assert main(
            [
                "run",
                "--system",
                "henon-heiles",
                "--shells",
                "8",
                "--metrics",
                "w-pt",
                "-o",
                str(out),
            ]
        ) == 0
        _, header, rows = read_csv(out / "hh_curves.csv")
        w_pt_col = header.index("w_pt")
        w_exact_col = header.index("w_exact")
        assert all(r[w_pt_col] != "" for r in rows)
        assert all(r[w_exact_col] == "" for r in rows)

    def test_strength_function_metric_file(self, tmp_path):
        out = tmp_path / "sf"
        assert main(
            [
                "run",
                "--system",
                "henon-heiles",
                "--shells",
                "8",
                "--metrics",
                "w-exact,strength-function",
                "-o",
                str(out),
            ]
        ) == 0
        meta, header, rows = read_csv(out / "strength_function.csv")
        assert header == ["shell", "eigen_energy", "weight"]
        assert rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert "strength-function" in manifest["metric_files"]

    def test_strength_function_lines_formatted_per_cell(self, tmp_path):
        """Every cell is repr of a float, the shell column too."""
        from specfrag.henon_heiles import HHConfig, build_h, enumerate_basis
        from specfrag.metrics import strength_function

        out = tmp_path / "sf"
        argv = ["run", "--system", "henon-heiles", "--shells", "8",
                "--metrics", "strength-function", "-o", str(out)]
        assert main(argv) == 0
        cfg = HHConfig(num_shells=8)
        d = linalg.eigh(build_h(cfg))
        _, partition = enumerate_basis(cfg)
        expected = []
        for n in range(1, 5):
            sf = strength_function(d, partition.group(n).indices)
            for e, w in zip(sf.eigen_energies.tolist(), sf.weights.tolist()):
                expected.append(f"{float(n)!r},{e!r},{w!r}")
        text = (out / "strength_function.csv").read_text()
        assert [l for l in text.splitlines() if not l.startswith("#")][1:] == expected

    def test_strength_lines_match_repr_per_float(self):
        """The array formatter writes what repr of each float writes, for
        subnormal, small, large, signed-zero and inexact values, on rows
        that share one energy array and on a row with its own."""
        shared = np.array([-1e16, -0.5, -0.0, 0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16])
        own = -np.abs(shared)[::-1]
        weights = np.array([5e-324, 1e-5, 1e16, -0.0, 0.1 + 0.2, 0.0, 0.125, 1.0 / 3.0])
        rows = [{"shell": 3, "_sf": (shared, weights)},
                {"shell": 4.5, "_sf": (shared, weights[::-1])},
                {"shell": -2, "_sf": (own, weights)}]
        expected = [f"{float(row['shell'])!r},{e!r},{w!r}\n"
                    for row in rows for e, w in zip(*(x.tolist() for x in row["_sf"]))]
        assert "".join(cli._strength_lines("shell", rows)) == "".join(expected)

    def test_default_gamma_grid_follows_target_shell(self, tmp_path):
        out = tmp_path / "out"
        argv = ["run", "--system", "kepler", "--max-n", "14", "--target-shell", "6",
                "-o", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["gamma_grid"] == list(kepler.default_gamma_grid(6))
        # the shell-6 window holds every crossing; shell 10's holds none of them
        for name in ("pt", "exact", "kappa"):
            assert manifest["critical"][f"{name}_critical_scaled_energy"] is not None

    def test_output_dir_env_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SPECFRAG_OUTPUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--system", "henon-heiles", "--shells", "8"]) == 0
        assert (target / "hh_curves.csv").exists()


class TestErrors:
    def test_unknown_metric(self, capsys):
        assert main(
            ["validate", "--system", "henon-heiles", "--metrics", "w-pt,bogus"]
        ) == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_selection(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--system", "henon-heiles", "--selection", "nope"])
        assert exc.value.code == 2

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--system", "martian"])
        assert exc.value.code == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(config, pinned):
            raise NumericalError("synthetic blowup")

        monkeypatch.setattr(cli, "_run_henon_heiles", boom)
        code = main(
            ["run", "--system", "henon-heiles", "--shells", "8", "-o", str(tmp_path)]
        )
        assert code == 3
        assert "synthetic blowup" in capsys.readouterr().err

    def test_kepler_solve_failure_names_scan_point(self, tmp_path, capsys, monkeypatch):
        # one worker skips the point after the failure
        assert _solves_until_failure(tmp_path, capsys, monkeypatch, threads=1) == 2

    def test_kepler_solve_failure_names_scan_point_two_workers(
        self, tmp_path, capsys, monkeypatch
    ):
        # the other worker may already be solving the third point
        assert _solves_until_failure(tmp_path, capsys, monkeypatch, threads=2) in (2, 3)

    def test_kepler_solve_failure_names_scan_point_three_workers(
        self, tmp_path, capsys, monkeypatch
    ):
        assert _solves_until_failure(tmp_path, capsys, monkeypatch, threads=3) in (2, 3)

    def test_henon_heiles_solve_failure_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "eigh", _fail)
        code = main(
            ["run", "--system", "henon-heiles", "--shells", "8", "-o", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "henon-heiles-model eigendecomposition: synthetic blowup" in err

    @pytest.mark.parametrize("argv, stage", [
        (HH_SMALL, "henon-heiles-model eigendecomposition: "),
        (KEPLER_SMALL, "kepler-model at scan point gamma=0.004: "),
    ], ids=["henon-heiles", "kepler"])
    @pytest.mark.parametrize("fault", ["nan-vectors", "inf-values"])
    def test_lapack_fault_exits_3_named(self, tmp_path, capsys, monkeypatch, argv, stage, fault):
        real = np.linalg.eigh

        def faulty(b):
            vals, vecs = real(b)
            if fault == "nan-vectors":
                vecs[0, 0] = np.nan
            else:
                vals[-1] = np.inf
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", faulty)
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == 3
        assert stage in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, stage", [
        (HH_SMALL, "henon-heiles-model at shell 1: "),
        (KEPLER_SMALL, "kepler-model at scan point gamma=0.004: "),
    ], ids=["henon-heiles", "kepler"])
    def test_metric_fault_on_computed_value_exits_3_named(
        self, tmp_path, capsys, monkeypatch, argv, stage
    ):
        real = cli.strength_function

        def one_nan_weight(d, shell):
            sf = real(d, shell)
            weights = sf.weights.copy()
            weights[0] = np.nan
            return metrics.StrengthFunction(sf.eigen_energies, weights)

        monkeypatch.setattr(cli, "strength_function", one_nan_weight)
        out = tmp_path / "out"
        assert main([*argv, "--threads", "1", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert stage + "eigen energies and weights must be finite" in err
        assert "configuration error" not in err
        assert not out.exists()

    def test_small_basis_rejected(self, capsys):
        assert main(["run", "--system", "henon-heiles", "--shells", "3"]) == 2

    def test_bad_gamma_grid(self, capsys):
        assert main(
            ["validate", "--system", "kepler", "--gamma-grid", "0.001,-0.002"]
        ) == 2

    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, tmp_path, capsys, form, threads):
        # only Kepler's scan reads threads, but a given count is checked for both
        for system in ("henon-heiles", "kepler"):
            given = {"system": system, "threads": threads}
            assert main(["validate", *_given(tmp_path, form, given)]) == 2
            assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_repeated_metric_rejected(self, tmp_path, capsys, monkeypatch, form):
        # the same scan with a name given twice would hash differently
        monkeypatch.setattr(cli, "_run_henon_heiles", lambda config: pytest.fail("computed"))
        repeated = ["w-pt", "strength-function", "w-pt"]
        out = tmp_path / "out"
        given = {"system": "henon-heiles", "output": str(out),
                 "metrics": repeated if form == "file" else ",".join(repeated)}
        assert main(["run", *_given(tmp_path, form, given)]) == 2
        assert "metrics named more than once: ['w-pt']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "form, given, key",
        [
            ("flag", {"system": "henon-heiles", "num_shells": "abc"}, "num_shells"),
            ("file", {"system": "henon-heiles", "num_shells": "abc"}, "num_shells"),
            ("file", {"system": "henon-heiles", "num_shells": 10.5}, "num_shells"),
            ("file", {"system": "kepler", "gamma_grid": 5}, "gamma_grid"),
            ("flag", {"system": "kepler", "gamma_grid": "0.01,abc"}, "gamma_grid"),
            ("file", {"system": "kepler", "gamma_grid": [0.01, "abc"]}, "gamma_grid"),
            ("file", {"system": "kepler", "output": 5}, "output"),
            # JSON booleans are not numbers, though Python reads them as 0 and 1
            ("file", {"system": "henon-heiles", "threads": True}, "threads"),
            ("file", {"system": "henon-heiles", "hbar": True}, "hbar"),
            ("file", {"system": "kepler", "gamma_grid": [True, 0.5]}, "gamma_grid"),
        ],
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, form, given, key):
        assert main(["validate", *_given(tmp_path, form, given)]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        given = {"system": "henon-heiles", "num_shell": 40}
        assert main(["validate", *_given(tmp_path, "file", given)]) == 2
        assert "num_shell" in capsys.readouterr().err

    def test_other_systems_keys_ignored(self, tmp_path, capsys):
        given = {"system": "henon-heiles", "num_shells": 8,
                 "max_n": 12, "m": 0, "gamma_grid": [0.1]}
        assert main(["validate", *_given(tmp_path, "file", given)]) == 0
        assert "36 states, 8 shells" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--system", "kepler", "--gamma-grid", ",", "--metrics", "strength-function"],
             "gamma_grid"),
            (["--system", "kepler", "--gamma-grid", "0.01"], "gamma_grid"),
            (["--system", "kepler", "--gamma-grid", "0.01,0.01,0.02"], "gamma_grid"),
            (["--system", "kepler", "--gamma-grid", "0.01,0.03,0.02", "--metrics", "kappa"],
             "gamma_grid"),
            (["--system", "henon-heiles", "--shells", "8", "--shell-min", "3", "--shell-max", "3"],
             "shell_min"),
            # one shell has no neighbour to give kappa its D0
            (["--system", "kepler", "--max-n", "1", "--target-shell", "1"], "max_n"),
        ],
    )
    def test_scan_shape_rejected_before_compute(self, tmp_path, capsys, monkeypatch, flags, key):
        solves = []
        monkeypatch.setattr(cli, "eigh", lambda m: solves.append(m))
        assert main(["validate", *flags]) == 2
        assert key in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", *flags, "-o", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("under", ["", "sub"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_output_at_a_file_rejected_before_compute(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        monkeypatch.setattr(cli, "_run_henon_heiles", lambda config: pytest.fail("computed"))
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / under if under else blocker
        assert main([command, "--system", "henon-heiles", "--shells", "8", "-o", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "kept\n"

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        # a directory where the curves file goes: found only when writing
        (tmp_path / "hh_curves.csv").mkdir()
        assert main([*HH_SMALL, "-o", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and "Traceback" not in err

    def test_rho2_build_failure_named(self, tmp_path, capsys, monkeypatch):
        # a negative tolerance fails build_rho2's own quadrature self-check
        monkeypatch.setattr(kepler, "QUADRATURE_AGREEMENT_RTOL", -1.0)
        out = tmp_path / "out"
        assert main([*KEPLER_SMALL, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "kepler-model rho^2 build: quadrature self-check failed" in err
        assert not out.exists()

    def test_rho2_nan_in_quadrature_rule_named(self, tmp_path, capsys, monkeypatch):
        # a NaN fails the self-check as a numerical fault, not as bad input
        # the build imports the Laguerre module when it runs, so the rule is
        # patched where it is looked up: on the module itself
        from numpy.polynomial import laguerre

        laggauss = laguerre.laggauss

        def one_nan_weight(nodes):
            t, w = laggauss(nodes)
            w[-1] = np.nan
            return t, w

        monkeypatch.setattr(laguerre, "laggauss", one_nan_weight)
        out = tmp_path / "out"
        argv = ["run", "--system", "kepler", "--max-n", "4", "--target-shell", "2",
                "--metrics", "w-pt", "-o", str(out)]
        assert main(argv) == 3
        assert "kepler-model rho^2 build" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, stage", [
        (["--system", "henon-heiles", "--shells", "8", "--hbar", "1e250"],
         "henon-heiles-model w-pt: OverflowError"),
        (["--system", "henon-heiles", "--shells", "8", "--hbar", "1e250", "--metrics", "w-exact"],
         "henon-heiles-model eigendecomposition: OverflowError"),
        # V is finite, its block norms and W_pt overflow
        (["--system", "henon-heiles", "--shells", "8", "--hbar", "1e200", "--metrics", "w-exact"],
         "henon-heiles-model eigendecomposition: the Frobenius norm of"),
        (["--system", "henon-heiles", "--shells", "8", "--hbar", "1e200"],
         "henon-heiles-model w-pt: the W_pt term of shell"),
        (["--system", "henon-heiles", "--shells", "8", "--hbar", "1e200", "--metrics", "w-pt"],
         "henon-heiles-model w-pt: the W_pt term of shell"),
        (["--system", "kepler", "--max-n", "6", "--target-shell", "3",
          "--gamma-grid", "1e160,1e161", "--metrics", "w-pt"],
         "kepler-model w-pt at gamma=1e+160: W_pt is not finite"),
    ], ids=["hh-v-build", "hh-h-build", "hh-block-norm", "hh-w-pt-default-metrics", "hh-w-pt",
            "kepler-w-pt"])
    def test_overflow_exits_3_named(self, tmp_path, capsys, argv, stage):
        out = tmp_path / "out"
        assert main(["run", *argv, "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: " + stage in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_kepler_m_other_than_zero_rejected_before_compute(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_run_kepler", lambda config: pytest.fail("computed"))
        out = tmp_path / "out"
        given = {"system": "kepler", "m": 1, "output": str(out)}
        assert main(["run", *_given(tmp_path, "file", given)]) == 2
        assert "only the m=0 subspace is supported" in capsys.readouterr().err
        assert not out.exists()
        # a Henon-Heiles run ignores Kepler's well-formed keys
        given = {"system": "henon-heiles", "num_shells": 8, "m": 1}
        assert main(["validate", *_given(tmp_path, "file", given)]) == 0

    def test_one_point_strength_function_scan_runs(self, tmp_path):
        assert main(
            ["run", "--system", "kepler", "--max-n", "6", "--target-shell", "3",
             "--gamma-grid", "0.01", "--metrics", "strength-function", "-o", str(tmp_path)]
        ) == 0
        _, _, rows = read_csv(tmp_path / "kepler_curves.csv")
        assert len(rows) == 1


class TestCrossingScaling:
    """The crossings scale as first-order theory says, so they mark where
    the perturbation mixes neighbouring shells at the given hbar or n."""

    @staticmethod
    def critical(tmp_path, argv) -> dict:
        assert main(["run", *argv, "-o", str(tmp_path)]) == 0
        return json.loads((tmp_path / "manifest.json").read_text())["critical"]

    def test_henon_heiles_pt_crossing_scales_as_hbar_to_two_thirds(self, tmp_path):
        # E_c^pt ~ hbar^(2/3); W_pt(N) reads shells N +- 1 and N +- 3 only, so
        # 20 shells give the crossings of larger bases, with no eigh
        crossings = [
            self.critical(tmp_path / str(hbar), ["--system", "henon-heiles", "--shells", "20",
                                                 "--hbar", str(hbar), "--metrics", "w-pt"])
            ["pt_critical_energy"]
            for hbar in (0.01, 0.005)
        ]
        assert abs(crossings[1] / crossings[0] - 2.0 ** (-2.0 / 3.0)) <= 1e-3

    def test_kepler_crossings_fall_with_target_shell(self, tmp_path):
        # |eps_c^pt| ~ n^(1/3) at fixed cut ratio max_n = 2n
        pt, exact = [], []
        for n in (6, 8, 10, 14):
            critical = self.critical(tmp_path / str(n), [
                "--system", "kepler", "--target-shell", str(n), "--max-n", str(2 * n),
                "--metrics", "w-pt,w-exact"])
            pt.append(critical["pt_critical_scaled_energy"])
            exact.append(critical["exact_critical_scaled_energy"])
        assert all(b < a for a, b in zip(pt, pt[1:])), pt
        assert all(b < a for a, b in zip(exact, exact[1:])), exact


class TestLibraryNumbers:
    """Every w_pt, w_exact, gamma_spr and kappa cell the CLI writes is the
    number the library's metric functions give for that scan point."""

    @staticmethod
    def columns(path) -> list[dict]:
        _, header, rows = read_csv(path)
        return [dict(zip(header, row)) for row in rows]

    @staticmethod
    def assert_row(row, w_pt, decomp, group, d0):
        expected = {
            "w_pt": w_pt,
            "w_exact": metrics.w_exact(decomp, group.indices, shell_energy=group.energy),
            "gamma_spr": metrics.spreading_width(metrics.strength_function(decomp, group.indices)),
        }
        expected["kappa"] = metrics.chaoticity(expected["gamma_spr"], d0)
        for column, value in expected.items():
            assert float(row[column]) == pytest.approx(value, rel=0, abs=1e-12), column

    def test_henon_heiles(self, tmp_path):
        assert main(["run", "--system", "henon-heiles", "--shells", "10",
                     "--metrics", ALL_METRICS, "-o", str(tmp_path)]) == 0
        cfg = henon_heiles.HHConfig(num_shells=10)
        _, partition = henon_heiles.enumerate_basis(cfg)
        # the Cartesian references: every number here is basis-invariant
        v = linalg.SymmetricMatrix(oracles.cartesian_v_matrix(10, cfg.hbar))
        decomp = linalg.eigh(oracles.cartesian_h(10, cfg.hbar, cfg.lam))
        rows = self.columns(tmp_path / "hh_curves.csv")
        assert [float(r["shell"]) for r in rows] == list(range(1, 7))
        for row in rows:
            n = int(float(row["shell"]))
            w_pt = metrics.w_perturbative(v, partition, n, cfg.lam)
            self.assert_row(row, w_pt, decomp, partition.group(n), cfg.hbar)

    def test_kepler(self, tmp_path):
        grid = kepler.default_gamma_grid(4)[::15]
        assert main(["run", "--system", "kepler", "--max-n", "8", "--target-shell", "4",
                     "--gamma-grid", ",".join(map(repr, grid)),
                     "--metrics", ALL_METRICS, "-o", str(tmp_path)]) == 0
        cfg = kepler.KeplerConfig(max_n=8, target_shell=4, gamma_grid=grid)
        _, partition = kepler.enumerate_parabolic_basis(cfg)
        rho2 = kepler.build_rho2(cfg)
        e = kepler.shell_energy
        d0 = min(e(5) - e(4), e(4) - e(3))
        rows = self.columns(tmp_path / "kepler_curves.csv")
        assert [float(r["gamma"]) for r in rows] == list(grid)
        for row, gamma in zip(rows, grid):
            w_pt = metrics.w_perturbative(rho2, partition, 4, gamma * gamma / 8.0)
            decomp = linalg.eigh(kepler.build_h(cfg, gamma, rho2))
            self.assert_row(row, w_pt, decomp, partition.group(4), d0)


def _fail(m):
    raise NumericalError("synthetic blowup")


def _check_decompositions_alive(tmp_path, monkeypatch, threads):
    """Each worker holds one decomposition at most: at any solve, only the
    other workers' ones may still be alive."""
    real, done = cli.eigh, []

    def tracked(m):
        alive = sum(ref() is not None for ref in done)
        assert alive <= threads - 1, f"{alive} earlier decompositions still alive"
        d = real(m)
        done.append(weakref.ref(d))
        return d

    monkeypatch.setattr(cli, "eigh", tracked)
    assert main(
        [*KEPLER_SMALL, "--metrics", "w-exact,kappa,strength-function",
         "--threads", str(threads), "-o", str(tmp_path)]
    ) == 0
    assert len(done) == 3


def _solves_until_failure(tmp_path, capsys, monkeypatch, threads) -> int:
    """Fail the solve of the gamma = 0.008 point's matrix, check that the
    error names that point and return how many solves were started."""
    cfg = kepler.KeplerConfig(max_n=6, target_shell=3)
    bad = kepler.build_h(cfg, 0.008, kepler.build_rho2(cfg)).entries
    real, calls = cli.eigh, []

    def fail_at_second_point(m):
        calls.append(m)
        if np.array_equal(m.entries, bad):
            raise NumericalError("synthetic blowup")
        return real(m)

    monkeypatch.setattr(cli, "eigh", fail_at_second_point)
    code = main([*KEPLER_SMALL, "--threads", str(threads), "-o", str(tmp_path)])
    assert code == 3
    assert "kepler-model at scan point gamma=0.008: synthetic blowup" in capsys.readouterr().err
    return len(calls)


def _given(tmp_path, form, given):
    """The arguments that pass `given` (config key -> value) as flags or
    as a --config file."""
    if form == "file":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(given))
        return ["--config", str(path)]
    flag = {o.key: o.flags[0] for o in cli.OPTIONS if o.flags}
    return [arg for key, value in given.items() for arg in (flag[key], str(value))]


# one value per option, as a flag string and as a config-file value
SAMPLES = {
    "henon-heiles": {
        "system": ("henon-heiles", "henon-heiles"),
        "seed": ("3", 3),
        "metrics": ("w-pt,kappa", ["w-pt", "kappa"]),
        "selection": ("energy-window", "energy-window"),
        "hbar": ("0.02", 0.02),
        "lambda": ("0.5", 0.5),
        "num_shells": ("8", 8),
        "shell_min": ("2", 2),
        "shell_max": ("4", 4),
    },
    "kepler": {
        "system": ("kepler", "kepler"),
        "seed": ("4", 4),
        "metrics": ("w-pt,w-exact,strength-function", ["w-pt", "w-exact", "strength-function"]),
        "threads": ("1", 1),
        "selection": ("top-projection", "top-projection"),
        "max_n": ("6", 6),
        "target_shell": ("3", 3),
        "gamma_grid": ("0.004,0.008,0.016", [0.004, 0.008, 0.016]),
    },
}


class TestCircularSolve:
    """The C3v decomposition the CLI solves Henon-Heiles with gives the
    Cartesian solve's exact columns, whatever the selection rule, even
    where a rule's choice falls inside an exactly degenerate E pair."""

    @pytest.mark.parametrize("selection", [s.value for s in metrics.StateSelection])
    def test_exact_columns_match_cartesian_solve(self, tmp_path, selection):
        assert main(["run", "--system", "henon-heiles", "--shells", "30", "--lambda", "1",
                     "--metrics", "w-exact", "--selection", selection, "-o", str(tmp_path)]) == 0
        cfg = henon_heiles.HHConfig(num_shells=30, lam=1.0)
        _, partition = henon_heiles.enumerate_basis(cfg)
        ref = linalg.eigh(oracles.cartesian_h(30, cfg.hbar, cfg.lam))
        rows = TestLibraryNumbers.columns(tmp_path / "hh_curves.csv")
        assert [int(float(r["shell"])) for r in rows] == list(range(1, 27))
        for row in rows:
            g = partition.group(int(float(row["shell"])))
            picked = metrics.select_eigenstates(
                ref, g.indices, metrics.StateSelection(selection), shell_energy=g.energy
            )
            proj = linalg.projection_onto_subset(ref, g.indices)
            assert abs(float(row["w_exact"]) - (1.0 - proj[picked].mean())) <= 1e-9
            assert abs(float(row["energy_exact_mean"]) - ref.eigenvalues[picked].mean()) <= 1e-9

    def test_e_partners_bitwise_equal(self):
        cfg = henon_heiles.HHConfig(num_shells=30)
        d = linalg.eigh(henon_heiles.build_h(cfg))
        _, partition = henon_heiles.enumerate_basis(cfg)
        pairs = [(a, b) for a, b in zip(d.sectors, d.sectors[1:]) if b.sector.twin]
        assert len(pairs) == 1
        even, odd = pairs[0]
        assert d.eigenvalues[even.columns].tobytes() == d.eigenvalues[odd.columns].tobytes()
        for g in partition.groups:
            w = linalg.projection_onto_subset(d, g.indices)
            assert w[even.columns].tobytes() == w[odd.columns].tobytes()


class TestOptionTable:
    @pytest.mark.parametrize("system", sorted(SAMPLES))
    def test_flag_and_file_forms_agree(self, tmp_path, system):
        flagged = {o.key for o in cli.OPTIONS if o.flags and o.system in (None, system)}
        assert flagged - {"output"} == set(SAMPLES[system])
        out = str(tmp_path / "out")
        flags = {key: text for key, (text, _) in SAMPLES[system].items()}
        values = {key: value for key, (_, value) in SAMPLES[system].items()}
        manifests = []
        for form, given in (("flag", flags | {"output": out}), ("file", values | {"output": out})):
            assert main(["run", *_given(tmp_path, form, given)]) == 0
            manifests.append(json.loads((tmp_path / "out" / "manifest.json").read_text()))
        by_flag, by_file = manifests
        # the keys the config hash is taken over: shared ones plus the system's own
        shared = {"system", "output", "seed", "metrics", "selection"}
        own = {
            "henon-heiles": {"hbar", "lambda", "num_shells", "shell_min", "shell_max"},
            "kepler": {"max_n", "m", "target_shell", "gamma_grid", "threads"},
        }[system]
        assert set(by_flag["config"]) == shared | own
        assert by_flag["config"] == by_file["config"]
        assert by_flag["config_sha256"] == by_file["config_sha256"]
        assert by_flag["config"]["seed"] == values["seed"]

    def test_traced_hook_points_exist(self):
        # perfbench/tracer.py wraps these module attributes by name
        import specfrag.henon_heiles as hh
        import specfrag.kepler as kep
        import specfrag.metrics as met

        hooks = {
            cli: ("eigh", "projection_onto_subset", "strength_function", "spreading_width",
                  "critical_parameter", "run", "_run_henon_heiles", "_run_kepler", "_write_csv"),
            met: ("projection_onto_subset", "w_perturbative", "select_eigenstates"),
            hh: ("enumerate_basis", "build_v", "build_h"),
            kep: ("enumerate_parabolic_basis", "build_rho2", "build_h"),
        }
        for module, names in hooks.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    @pytest.mark.parametrize("args", [["run", "--system", "henon-heiles", "--shells", "8"],
                                      KEPLER_SMALL], ids=["henon-heiles", "kepler"])
    def test_benchmark_tracer_runs(self, args, tmp_path):
        # the benchmark's tracer, run as the benchmark runs it, on every metric
        tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        src = Path(specfrag.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, str(tracer), "--src", str(src), "--spans", str(tmp_path / "spans.json"),
             "--", *args, "--metrics", ALL_METRICS, "-o", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def _last_line_of_child(script: str) -> str:
    """The last line a fresh interpreter prints running script, which must
    succeed; the child imports the same specfrag sources as this process."""
    paths = [str(Path(specfrag.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_runs_leave_numpy_ma_unimported(tmp_path):
    """No run loads numpy.ma, whose import alone costs about 10 ms: small
    all-metric runs of both systems leave it out of sys.modules."""
    script = (
        "import sys, specfrag.cli\n"
        f"out = {str(tmp_path)!r}\n"
        "for system, size in (('henon-heiles', ['--shells', '8']),\n"
        "                     ('kepler', ['--max-n', '6', '--target-shell', '3'])):\n"
        "    argv = ['run', '--system', system, *size, '--metrics',\n"
        f"            {ALL_METRICS!r}, '-o', out + '/' + system]\n"
        "    assert specfrag.cli.main(argv) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _last_line_of_child(script) == "False"


def test_runtime_is_scipy_free():
    """numpy is the package's only runtime dependency: importing it, the CLI's
    validate and a rho^2 build load no scipy module."""
    script = (
        "import sys, specfrag, specfrag.cli\n"
        "from specfrag.kepler import KeplerConfig, build_rho2\n"
        "assert specfrag.cli.main(['validate', '--system', 'kepler']) == 0\n"
        "build_rho2(KeplerConfig(max_n=6, target_shell=3))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _last_line_of_child(script) == "[]"


@pytest.mark.parametrize("system, size", [("henon-heiles", ["--shells", "8"]),
                                          ("kepler", ["--max-n", "6", "--target-shell", "3"])],
                         ids=["henon-heiles", "kepler"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_commands_load_only_what_they_compute_with(tmp_path, command, system, size):
    """No command maps OpenSSL's libcrypto (~4 MB): the config digest comes
    from CPython's built-in SHA-256, so _hashlib never loads. The Laguerre
    module is imported inside the rho^2 build, so of the four commands only
    a Kepler run loads numpy.polynomial. The scans start plain threads, so
    none loads concurrent.futures. A fresh interpreter reads sys.modules,
    since this process may have imported hashlib already."""
    script = (
        "import sys, specfrag.cli\n"
        f"argv = [{command!r}, '--system', {system!r}, *{size!r}, '--metrics', {ALL_METRICS!r},\n"
        f"        '-o', {str(tmp_path / 'out')!r}]\n"
        "assert specfrag.cli.main(argv) == 0\n"
        "print(sorted(m for m in ('_hashlib', 'concurrent.futures', 'numpy.polynomial')\n"
        "             if m in sys.modules))\n"
    )
    loads_laguerre = command == "run" and system == "kepler"
    assert _last_line_of_child(script) == str(["numpy.polynomial"] if loads_laguerre else [])


def test_config_digest_falls_back_to_hashlib(tmp_path):
    """A CPython built without its own hash modules has neither _sha2 nor
    _sha256; the digest then comes from hashlib and is the same."""
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None  # their imports fail\n"
        "import hashlib, specfrag.cli\n"
        "assert specfrag.cli.sha256 is hashlib.sha256\n"
        f"assert specfrag.cli.main([*{HH_SMALL!r}, '-o', {str(tmp_path / 'fallback')!r}]) == 0\n"
        "print('ok')\n"
    )
    assert _last_line_of_child(script) == "ok"
    assert main([*HH_SMALL, "-o", str(tmp_path / "built-in")]) == 0
    digests = {json.loads((tmp_path / d / "manifest.json").read_text())["config_sha256"]
               for d in ("fallback", "built-in")}
    assert len(digests) == 1
