import json
import weakref

import pytest

import specfrag.cli as cli
from specfrag.cli import main
from specfrag.errors import NumericalError


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

    def test_kepler_point_decomposition_released_before_next_solve(self, tmp_path, monkeypatch):
        real, done = cli.eigh, []

        def tracked(m):
            assert all(ref() is None for ref in done), "previous decomposition still alive"
            d = real(m)
            done.append(weakref.ref(d))
            return d

        monkeypatch.setattr(cli, "eigh", tracked)
        assert main(
            ["run", "--system", "kepler", "--max-n", "6", "--target-shell", "3",
             "--gamma-grid", "0.004,0.008,0.016", "--metrics",
             "w-exact,kappa,strength-function", "-o", str(tmp_path)]
        ) == 0
        assert len(done) == 3

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
        def boom(config):
            raise NumericalError("synthetic blowup")

        monkeypatch.setattr(cli, "_run_henon_heiles", boom)
        code = main(
            ["run", "--system", "henon-heiles", "--shells", "8", "-o", str(tmp_path)]
        )
        assert code == 3
        assert "synthetic blowup" in capsys.readouterr().err

    def test_kepler_solve_failure_names_scan_point(self, tmp_path, capsys, monkeypatch):
        real, calls = cli.eigh, []

        def fail_second(m):
            calls.append(m)
            if len(calls) == 2:
                raise NumericalError("synthetic blowup")
            return real(m)

        monkeypatch.setattr(cli, "eigh", fail_second)
        code = main(
            ["run", "--system", "kepler", "--max-n", "6", "--target-shell", "3",
             "--gamma-grid", "0.004,0.008,0.016", "-o", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "kepler-model at scan point gamma=0.008: synthetic blowup" in err
        assert len(calls) == 2

    def test_henon_heiles_solve_failure_named(self, tmp_path, capsys, monkeypatch):
        def fail(m):
            raise NumericalError("synthetic blowup")

        monkeypatch.setattr(cli, "eigh", fail)
        code = main(
            ["run", "--system", "henon-heiles", "--shells", "8", "-o", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "henon-heiles-model eigendecomposition: synthetic blowup" in err

    def test_small_basis_rejected(self, capsys):
        assert main(["run", "--system", "henon-heiles", "--shells", "3"]) == 2

    def test_bad_gamma_grid(self, capsys):
        assert main(
            ["validate", "--system", "kepler", "--gamma-grid", "0.001,-0.002"]
        ) == 2
