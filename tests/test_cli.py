import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import votepower
from votepower import ConvergenceFailureError, analytic
from votepower.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpectedWeights:
    def test_six_player_values(self, capsys):
        code, out, _ = run_cli(["expected-weights", "--n", "6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,expected"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.allclose(
            np.array(values) * 360, [147, 87, 57, 37, 22, 10], atol=1e-9
        )

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["expected-weights", "--n", "3", "--format", "json"], capsys
        )
        rows = json.loads(out)
        assert rows[0]["expected"] == pytest.approx(11 / 18, abs=1e-15)


class TestIndices:
    def test_spec_game_json(self, capsys):
        code, out, _ = run_cli(
            ["indices", "--weights", "0.5,0.3,0.2", "--quota", "0.55"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == [0.6, 0.2, 0.2]
        assert payload["coleman"] == 0.375
        assert payload["dummies"] == []

    def test_exact_mode(self, capsys):
        code, out, _ = run_cli(
            ["indices", "--weights-int", "5,3,2", "--quota-frac", "11/20"], capsys
        )
        assert code == 0
        assert json.loads(out)["beta"] == [0.6, 0.2, 0.2]

    def test_dummy_reporting(self, capsys):
        _, out, _ = run_cli(
            ["indices", "--weights", "0.5,0.5,0", "--quota", "0.75"], capsys
        )
        assert json.loads(out)["dummies"] == [3]

    def test_quota_diagnostic_flag(self, capsys):
        _, out, _ = run_cli(
            ["indices", "--weights", "0.25,0.25,0.25,0.25", "--quota", "0.6"], capsys
        )
        payload = json.loads(out)
        assert payload["optimal_quota_printed"] == pytest.approx(2.5, abs=1e-12)
        assert payload["optimal_quota_printed_exceeds_one"] is True
        assert payload["optimal_quota_sqrt"] == pytest.approx(0.75, abs=1e-12)

    def test_workers_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTEPOWER_WORKERS", "2")
        code, out, _ = run_cli(
            ["coleman-curve", "--n", "2", "--method", "mc", "--quotas", "0.75",
             "--samples", "256"],
            capsys,
        )
        assert code == 0
        assert "coleman" in out


class TestColemanCurve:
    def test_single_quota_prints_value(self, capsys):
        code, out, _ = run_cli(
            ["coleman-curve", "--n", "6", "--method", "inversion", "--quota", "1.0"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.015625"

    def test_normal_method(self, capsys):
        code, out, _ = run_cli(
            ["coleman-curve", "--n", "6", "--method", "normal", "--quotas", "0.6,0.8"],
            capsys,
        )
        assert code == 0
        assert "coleman_normal" in out

    def test_mc_method(self, capsys):
        code, out, _ = run_cli(
            [
                "coleman-curve", "--n", "3", "--method", "mc",
                "--quotas", "0.6,1.0", "--samples", "2048",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert float(rows[-1][2]) == 0.125


class TestExitCodes:
    def test_budget_error(self, capsys):
        weights = ",".join(["1"] * 60)
        code, _, err = run_cli(
            ["indices", "--weights", weights, "--quota", "0.6"], capsys
        )
        assert code == 4
        assert "BudgetExceededError" in err

    def test_convergence_error(self, capsys, monkeypatch):
        def stalled(n, q):
            raise ConvergenceFailureError("no convergence")

        monkeypatch.setattr(analytic, "expected_coleman", stalled)
        code, _, err = run_cli(["coleman-curve", "--n", "6", "--quota", "0.51"], capsys)
        assert code == 3
        assert "ConvergenceFailureError" in err

    def test_usage_error(self, capsys):
        code, _, err = run_cli(
            ["indices", "--weights", "0.5,0.5", "--quota", "0.4"], capsys
        )
        assert code == 2

    def test_unparsable_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTEPOWER_WORKERS", "two")
        code, _, err = run_cli(
            ["power-curve", "--n", "3", "--samples", "16", "--quotas", "0.6"], capsys
        )
        assert code == 2
        assert err.startswith("error:")
        # Commands without a worker count do not read the variable.
        code, _, _ = run_cli(["expected-weights", "--n", "3"], capsys)
        assert code == 0

    def test_negative_worker_count(self, capsys):
        code, out, err = run_cli(
            ["power-curve", "--n", "3", "--samples", "16", "--quotas", "0.6",
             "--workers", "-3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "InvalidArgumentsError" in err

    def test_unknown_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "votepower.cli", "indices", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2


def fresh_interpreter(code):
    """Run ``code`` in a new Python process that imports this votepower."""
    package_root = str(Path(votepower.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        proc = fresh_interpreter("import sys, votepower.cli; print('scipy' in sys.modules)")
        assert proc.stdout.strip() == "False"

    def test_inversion_curve_does_not_load_scipy(self):
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            "code = main(['coleman-curve', '--n', '12', '--method', 'inversion']); "
            "print(code, 'scipy' in sys.modules, file=sys.stderr)"
        )
        assert proc.stdout.startswith("quota,series-name,")
        assert proc.stderr.strip() == "0 False"


class TestDeterminismAndRoundTrip:
    def test_sample_weights_reproducible(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for path in (out_a, out_b):
            code, _, _ = run_cli(
                [
                    "sample-weights", "--n", "4", "--samples", "20",
                    "--seed", "3", "--output", str(path),
                ],
                capsys,
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_curve_csv_round_trips_through_spline_fit(self, tmp_path, capsys):
        curve_path = tmp_path / "beta2.csv"
        code, _, _ = run_cli(
            [
                "analytic", "--what", "beta-n2",
                "--quotas", ",".join(str(q) for q in np.linspace(0.505, 1.0, 60)),
                "--output", str(curve_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            [
                "spline-fit", "--input", str(curve_path),
                "--series", "beta_rank_1", "--max-degree", "1",
            ],
            capsys,
        )
        assert code == 0
        fit = json.loads(out)
        assert fit["interior_breakpoints"] == []
        assert fit["max_residual"] < 1e-12
        # the line is 3/2 - q
        assert fit["piece_coefficients"][0][0] == pytest.approx(1.5, abs=1e-9)
        assert fit["piece_coefficients"][0][1] == pytest.approx(-1.0, abs=1e-9)

    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        config = tmp_path / "votepower.conf"
        config.write_text("samples=64\nseed=9\n")
        out_csv = tmp_path / "c.csv"
        code, _, _ = run_cli(
            [
                "--config", str(config), "coleman-curve", "--n", "3",
                "--method", "mc", "--quotas", "0.6", "--output", str(out_csv),
            ],
            capsys,
        )
        assert code == 0
        row = out_csv.read_text().strip().splitlines()[1]
        assert row.split(",")[4] == "64"


class TestPlotsAndFiles:
    def test_density_table_and_plot(self, tmp_path, capsys):
        csv_path = tmp_path / "density.csv"
        svg_path = tmp_path / "density.svg"
        code, _, _ = run_cli(
            [
                "weight-density", "--n", "4", "--k", "2", "--points", "50",
                "--output", str(csv_path), "--plot", str(svg_path),
            ],
            capsys,
        )
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "x,density"
        svg = svg_path.read_text()
        assert svg.startswith("<?xml") and "<polyline" in svg

    def test_fixed_curve_schema(self, capsys):
        code, out, _ = run_cli(
            ["fixed-curve", "--weights", "0.5,0.3,0.2", "--functional", "beta"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "quota,series-name,mean,standard-error,samples"
        first = lines[1].split(",")
        assert float(first[0]) == 0.7 and first[1] == "beta_player_1"
        assert float(first[2]) == 0.6

    def test_classes_output(self, capsys):
        code, out, _ = run_cli(
            ["classes", "--n", "2", "--budget", "5000"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class-id,beta-vector,hit-count"
        assert len(lines) == 3

    def test_power_curve_runs(self, tmp_path, capsys):
        path = tmp_path / "pc.csv"
        code, _, _ = run_cli(
            [
                "power-curve", "--n", "2", "--samples", "512",
                "--quotas", "0.6,0.75,0.9", "--output", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert len(path.read_text().strip().splitlines()) == 7

    def test_empty_plot_errors(self, tmp_path):
        from votepower.errors import InvalidArgumentsError
        from votepower.svgplot import emit_plot

        target = tmp_path / "no.svg"
        with pytest.raises(InvalidArgumentsError):
            emit_plot([], str(target), "nothing")
        assert not target.exists()

    def test_single_point_plot(self, tmp_path):
        from votepower.svgplot import emit_plot

        target = tmp_path / "one.svg"
        emit_plot([("p", [0.6], [0.25])], str(target), "one point")
        assert "<circle" in target.read_text()
