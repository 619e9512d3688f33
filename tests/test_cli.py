import os
import subprocess
import sys

import numpy as np
import pytest

import transjump
from transjump.cli import _check_stream_layout, main
from transjump.rng import RngStream
from transjump.spectral import random_decomposed_chain, write_chain_file
from transjump.uq import load_report, load_trace


@pytest.fixture()
def toy_dataset(tmp_path):
    out = tmp_path / "toy.txt"
    assert main(["simulate-ar", "--preset", "toy", "--seed", "2024", "--out", str(out)]) == 0
    return out


class TestSimulateAr:
    def test_toy_preset(self, toy_dataset, capsys):
        text = toy_dataset.read_text()
        assert text.splitlines()[1].startswith("5 1 1 ")

    def test_scenario2_preset(self, tmp_path):
        out = tmp_path / "s2.txt"
        rc = main(["simulate-ar", "--preset", "scenario2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
        assert header.startswith("100 50 10 ")

    def test_bad_dims_rejected(self, tmp_path):
        rc = main([
            "simulate-ar", "--preset", "toy", "--k-true", "5",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert rc != 0


class TestRun:
    def test_produces_trace_and_report(self, toy_dataset, tmp_path):
        trace_out = tmp_path / "trace.txt"
        report_out = tmp_path / "report.txt"
        rc = main([
            "run", "--sampler", "ar-toy", "--dataset", str(toy_dataset),
            "--n", "4000", "--seed", "5", "--epsilon", "0.001",
            "--trace-out", str(trace_out), "--report-out", str(report_out),
        ])
        assert rc == 0
        trace = load_trace(trace_out)
        assert trace.n == 4000 and trace.d == 3
        report = load_report(report_out)
        assert report.h_point.shape == (4,)

    def test_model_indicator_sampler(self, toy_dataset, tmp_path):
        rc = main([
            "run", "--sampler", "ar-model", "--dataset", str(toy_dataset),
            "--n", "2000", "--seed", "6", "--epsilon", "0.01",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc == 0
        report = load_report(tmp_path / "r.txt")
        assert report.h_point.shape == (2,)  # k_max is 1: indicators for k in {0,1}

    def test_deterministic_bytes(self, toy_dataset, tmp_path):
        args = [
            "run", "--sampler", "ar-toy", "--dataset", str(toy_dataset),
            "--n", "1500", "--seed", "5",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ]
        assert main(args) == 0
        first = (tmp_path / "t.txt").read_bytes(), (tmp_path / "r.txt").read_bytes()
        assert main(args) == 0
        second = (tmp_path / "t.txt").read_bytes(), (tmp_path / "r.txt").read_bytes()
        assert first == second

    def test_zero_epsilon_singularity_exit(self, toy_dataset, tmp_path, capsys):
        rc = main([
            "run", "--sampler", "ar-toy", "--dataset", str(toy_dataset),
            "--n", "1500", "--seed", "5", "--epsilon", "0",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc != 0
        assert "inject noise" in capsys.readouterr().err


class TestNonFiniteData:
    def _run(self, sampler, dataset, tmp_path, *extra):
        return main([
            "run", "--sampler", sampler, "--dataset", str(dataset), "--n", "500", *extra,
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])

    def _probit_rows(self):
        gen = np.random.default_rng(71)
        x = gen.standard_normal((40, 3))
        y = (gen.random(40) < 0.5).astype(int)
        return [",".join(f"{v:.6f}" for v in x[i]) + f",{y[i]}" for i in range(40)]

    def test_ar_dataset(self, toy_dataset, tmp_path, capsys):
        lines = toy_dataset.read_text().splitlines()
        # after the config and header lines: y_start, then the rows 'y x'
        vals = lines[3].split()
        vals[0] = "nan"
        lines[3] = " ".join(vals)
        toy_dataset.write_text("\n".join(lines) + "\n")
        assert self._run("ar-toy", toy_dataset, tmp_path) == 1
        assert "line 4: observation field 1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_probit_csv(self, tmp_path, capsys):
        rows = self._probit_rows()
        rows[7] = "nan," + rows[7].split(",", 1)[1]
        path = tmp_path / "p.csv"
        path.write_text("\n".join(rows) + "\n")
        assert self._run("probit", path, tmp_path) == 1
        assert "line 8: feature field 1 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()

    def test_probit_nan_prior_scale(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(self._probit_rows()) + "\n")
        assert self._run("probit", path, tmp_path, "--sigma", "nan") == 1
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()


class TestCoverage:
    def test_small_run_schema(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "cov.txt"
        rc = main([
            "coverage", "--dataset", str(toy_dataset), "--replications", "4",
            "--n", "1200", "--seed", "1", "--epsilon-grid", "10,0.1",
            "--out", str(out),
        ])
        assert rc == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0].split("\t") == ["epsilon", "coverage", "width_0", "width_1", "width_2", "width_3"]
        assert len(lines) == 3
        for ln in lines[1:]:
            parts = ln.split("\t")
            assert 0.0 <= float(parts[1]) <= 1.0

    def test_degenerate_single_replication(self, toy_dataset, tmp_path):
        out = tmp_path / "cov.txt"
        rc = main([
            "coverage", "--dataset", str(toy_dataset), "--replications", "1",
            "--n", "1200", "--seed", "2", "--epsilon-grid", "1", "--out", str(out),
        ])
        assert rc == 0
        row = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
        assert float(row.split("\t")[1]) in (0.0, 1.0)

    def test_non_toy_dataset_instructive_error(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        assert main(["simulate-ar", "--preset", "scenario2", "--seed", "4", "--out", str(big)]) == 0
        rc = main(["coverage", "--dataset", str(big), "--replications", "2", "--n", "500",
                   "--out", str(tmp_path / "c.txt")])
        assert rc != 0
        assert "quadrature truth" in capsys.readouterr().err


_SPAWN_MAIN = """\
import multiprocessing
import sys

from transjump.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.exit(main(sys.argv[1:]))
"""


class TestCoverageWorkers:
    def test_spawn_workers_match_serial_bytes(self, toy_dataset, tmp_path):
        args = ["coverage", "--dataset", str(toy_dataset), "--replications", "4",
                "--n", "300", "--seed", "3", "--epsilon-grid", "10,0.1"]
        serial = tmp_path / "serial.txt"
        assert main(args + ["--workers", "1", "--out", str(serial)]) == 0
        script = tmp_path / "spawn_main.py"
        script.write_text(_SPAWN_MAIN)
        pooled = tmp_path / "pooled.txt"
        src_dir = os.path.dirname(os.path.dirname(transjump.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(script)] + args + ["--workers", "2", "--out", str(pooled)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        # the worker count is not part of the config hash: every byte matches
        assert serial.read_bytes().startswith(b"# config ")
        assert serial.read_bytes() == pooled.read_bytes()


class TestStreamLayout:
    def test_limits_accepted(self):
        _check_stream_layout(500_000, 64)

    def test_cli_rejects_long_grid(self, toy_dataset, tmp_path, capsys):
        grid = ",".join(str(1.0 + i) for i in range(65))
        rc = main(["coverage", "--dataset", str(toy_dataset), "--replications", "2",
                   "--epsilon-grid", grid, "--out", str(tmp_path / "c.txt")])
        assert rc == 1
        assert "at most 64 epsilon grid entries" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_cli_rejects_too_many_replications(self, toy_dataset, tmp_path, capsys):
        rc = main(["coverage", "--dataset", str(toy_dataset), "--replications", "500001",
                   "--out", str(tmp_path / "c.txt")])
        assert rc == 1
        assert "at most 500000 replications" in capsys.readouterr().err


class TestFiniteVerify:
    def test_random_ensemble(self, tmp_path, capsys):
        rc = main(["finite-verify", "--random-ensemble", "25", "--seed", "7"])
        assert rc == 0
        assert "25/25 bounds hold" in capsys.readouterr().out

    def test_chain_file_report(self, tmp_path, capsys):
        chain, _ = random_decomposed_chain(RngStream(9, 2))
        path = tmp_path / "chain.txt"
        write_chain_file(chain, path)
        rc = main(["finite-verify", "--chain", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "norm_P_t" in out and "lambda1" in out and "theorem2 t=1" in out

    def test_malformed_chain_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0.4 0.4\n0.5 0.5\n0 0\n")
        rc = main(["finite-verify", "--chain", str(path)])
        assert rc != 0


class TestPlotdata:
    def test_ar_model_report_row_count(self, tmp_path):
        big = tmp_path / "s2.txt"
        assert main(["simulate-ar", "--preset", "scenario2", "--seed", "11", "--out", str(big)]) == 0
        rc = main([
            "run", "--sampler", "ar-model", "--dataset", str(big),
            "--n", "600", "--burn-in", "100", "--seed", "12", "--epsilon", "0.01",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc == 0
        out = tmp_path / "pd.txt"
        assert main(["plotdata", "--report", str(tmp_path / "r.txt"), "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0].split("\t") == ["index", "point", "noisy_center", "lower", "upper"]
        assert len(rows) == 1 + 11  # k = 0..10

    def test_missing_report(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["plotdata", "--report", str(tmp_path / "none.txt"), "--out", str(tmp_path / "o.txt")])


class TestConfigFile:
    def test_flags_override_config(self, toy_dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sampler = ar-toy\nn = 1000\nepsilon = 0.01\n")
        rc = main([
            "run", "--config", str(cfg), "--dataset", str(toy_dataset),
            "--n", "1700", "--seed", "5",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc == 0
        assert load_trace(tmp_path / "t.txt").n == 1700  # flag beat the config value

    def test_unknown_key_rejected(self, toy_dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        rc = main([
            "run", "--config", str(cfg), "--dataset", str(toy_dataset),
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc != 0

    def test_output_carries_config_hash(self, toy_dataset, tmp_path):
        rc = main([
            "run", "--sampler", "ar-toy", "--dataset", str(toy_dataset),
            "--n", "1200", "--seed", "5",
            "--trace-out", str(tmp_path / "t.txt"), "--report-out", str(tmp_path / "r.txt"),
        ])
        assert rc == 0
        assert (tmp_path / "t.txt").read_text().startswith("# config ")
        assert (tmp_path / "r.txt").read_text().startswith("# config ")

    def test_hash_ignores_output_directory(self, toy_dataset, tmp_path):
        def run(out_dir, seed="5"):
            out_dir.mkdir()
            assert main([
                "run", "--sampler", "ar-toy", "--dataset", str(toy_dataset),
                "--n", "1200", "--seed", seed,
                "--trace-out", str(out_dir / "t.txt"), "--report-out", str(out_dir / "r.txt"),
            ]) == 0
            return [(out_dir / name).read_bytes() for name in ("t.txt", "r.txt")]

        first = run(tmp_path / "a")
        assert run(tmp_path / "b") == first
        other_seed = run(tmp_path / "c", seed="6")
        assert other_seed[0].split(b"\n", 1)[0] != first[0].split(b"\n", 1)[0]
