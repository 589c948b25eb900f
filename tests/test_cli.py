import argparse
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import votepower
from votepower import ConvergenceFailureError, analytic, experiments, games, simplex
from votepower.cli import _CURVE_HEADER, _TABLE_BLOCK, _float_text, _write_table, main


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


class TestUsageErrors:
    """Bad arguments exit 2 with an error line and write no table."""

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_expected_weights_without_players(self, capsys, n):
        code, out, err = run_cli(["expected-weights", "--n", n], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("points", ["0", "-2"])
    def test_density_without_points(self, tmp_path, capsys, points):
        svg = tmp_path / "d.svg"
        for extra in ([], ["--plot", str(svg)]):
            code, out, err = run_cli(
                ["weight-density", "--n", "4", "--k", "2", "--points", points, *extra], capsys
            )
            assert (code, out) == (2, "")
            assert "InvalidArgumentsError" in err and "--points" in err
        assert not svg.exists()

    @pytest.mark.parametrize("quotas", ["0.6,0.6", "0.8,0.6", "0.4,0.6"])
    @pytest.mark.parametrize(
        "command",
        [
            ["coleman-curve", "--n", "6", "--method", "inversion"],
            ["coleman-curve", "--n", "6", "--method", "normal"],
            ["analytic", "--what", "beta-n2"],
            ["analytic", "--what", "beta-n3"],
            ["analytic", "--what", "class-probs"],
        ],
        ids=["inversion", "normal", "beta-n2", "beta-n3", "class-probs"],
    )
    def test_every_quota_grid_is_validated(self, capsys, command, quotas):
        code, out, err = run_cli([*command, "--quotas", quotas], capsys)
        assert (code, out) == (2, "")
        assert "InvalidArgumentsError" in err

    @pytest.mark.parametrize(
        "what,n",
        [("beta-n2", "3"), ("beta-n2", "7"), ("beta-n3", "7"), ("beta-n3", "2"),
         ("class-probs", "4"), ("extrema", "5")],
    )
    def test_analytic_closed_forms_reject_other_player_counts(self, tmp_path, capsys, what, n):
        target = tmp_path / "out.csv"
        for extra in ([], ["--output", str(target)]):
            code, out, err = run_cli(["analytic", "--what", what, "--n", n, *extra], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error:") and f"--n {n}" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "what,n", [("beta-n2", "2"), ("beta-n3", "3"), ("class-probs", "3"), ("extrema", "3")]
    )
    def test_analytic_accepts_its_own_player_count(self, capsys, what, n):
        code, implicit, _ = run_cli(["analytic", "--what", what], capsys)
        assert code == 0
        assert run_cli(["analytic", "--what", what, "--n", n], capsys) == (0, implicit, "")

    @pytest.mark.parametrize("fraction", ["1/0", "0/0", "2/00"])
    def test_quota_fraction_with_zero_denominator(self, capsys, fraction):
        code, out, err = run_cli(
            ["indices", "--weights-int", "1,2", "--quota-frac", fraction], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "zero denominator" in err
        assert "Traceback" not in err

    def test_single_quota_is_a_one_point_grid(self, capsys):
        code, out, err = run_cli(
            ["coleman-curve", "--n", "6", "--method", "normal", "--quota", "0.5"], capsys
        )
        assert (code, out) == (2, "")
        assert "InvalidArgumentsError" in err


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

    def test_spline_fit_names_the_default_series(self, tmp_path, capsys):
        curve_path = tmp_path / "beta2.csv"
        code, _, _ = run_cli(
            [
                "analytic", "--what", "beta-n2",
                "--quotas", ",".join(str(q) for q in np.linspace(0.505, 1.0, 20)),
                "--output", str(curve_path),
            ],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["spline-fit", "--input", str(curve_path), "--max-degree", "1"], capsys
        )
        assert code == 0
        fit = json.loads(out)
        assert fit["series"] == "beta_rank_1"
        assert fit["piece_coefficients"][0][0] == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("quota,mean", [("0.65", "nan"), ("nan", "0.5"), ("0.65", "inf")])
    def test_spline_fit_rejects_non_finite_samples(self, tmp_path, capsys, quota, mean):
        rows = [f"{0.6 + 0.01 * i!r},s,0.5,0,1" for i in range(12)]
        rows[5] = f"{quota},s,{mean},0,1"
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text("\n".join([",".join(_CURVE_HEADER), *rows]) + "\n")
        code, out, err = run_cli(
            ["spline-fit", "--input", str(curve_path), "--max-degree", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "InvalidArgumentsError" in err

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

    @pytest.mark.parametrize(
        "setting,command",
        [
            ("samples=1e3", ["power-curve", "--n", "3", "--quotas", "0.6"]),
            ("budget=1e4", ["classes", "--n", "3"]),
        ],
    )
    def test_config_values_take_their_option_type(self, tmp_path, capsys, setting, command):
        config = tmp_path / "votepower.conf"
        config.write_text(setting + "\n")
        code, out, err = run_cli(["--config", str(config)] + command, capsys)
        assert code == 2
        assert out == ""
        option = setting.partition("=")[0]
        assert f"argument --{option}: invalid int value" in err

    @pytest.mark.parametrize("value", ["0", "false", "No"])
    def test_config_flag_can_be_false(self, tmp_path, capsys, value):
        config = tmp_path / "votepower.conf"
        config.write_text(f"sum-sq={value}\n")
        code, out, err = run_cli(["--config", str(config), "moments", "--n", "4"], capsys)
        # as without the key: moments needs at least one quantity
        assert code == 2 and out == ""
        assert "--sum-sq" in err

    @pytest.mark.parametrize("value", ["1", "TRUE", "yes"])
    def test_config_flag_can_be_true(self, tmp_path, capsys, value):
        config = tmp_path / "votepower.conf"
        config.write_text(f"sum-sq={value}\n")
        code, out, _ = run_cli(["--config", str(config), "moments", "--n", "4"], capsys)
        assert code == 0
        assert out == run_cli(["moments", "--n", "4", "--sum-sq"], capsys)[1]

    @pytest.mark.parametrize(
        "setting,message",
        [
            ("sum-sq=maybe", "'sum-sq' takes true/false/1/0/yes/no"),
            ("format=xml", "'format' must be one of csv, json"),
        ],
    )
    def test_config_rejects_bad_values(self, tmp_path, capsys, setting, message):
        config = tmp_path / "votepower.conf"
        config.write_text(setting + "\n")
        code, out, err = run_cli(
            ["--config", str(config), "moments", "--n", "4", "--sum-sq"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("setting", ["sample=64", "method=foo", "samples=64"])
    def test_config_rejects_keys_of_no_option(self, tmp_path, capsys, setting):
        # none of these is an option of `classes`
        config = tmp_path / "votepower.conf"
        config.write_text(setting + "\n")
        code, out, err = run_cli(
            ["--config", str(config), "classes", "--n", "3", "--budget", "10"], capsys
        )
        assert code == 2 and out == ""
        key = setting.partition("=")[0]
        assert err.startswith("error:") and f"config key {key!r}" in err


    @pytest.mark.parametrize("spelling", ["separate", "joined"])
    def test_config_read_in_both_spellings(self, tmp_path, capsys, spelling):
        def config(text):
            path = tmp_path / "votepower.conf"
            path.write_text(text)
            return ["--config", str(path)] if spelling == "separate" else [f"--config={path}"]

        code, out, err = run_cli(
            config("samples=zzz\n") + ["classes", "--n", "3", "--budget", "10"], capsys
        )
        assert code == 2 and out == ""
        assert "config key 'samples'" in err
        code, out, _ = run_cli(config("sum-sq=1\n") + ["moments", "--n", "4"], capsys)
        assert code == 0
        assert out == run_cli(["moments", "--n", "4", "--sum-sq"], capsys)[1]

    @pytest.mark.parametrize("spelling", ["separate", "joined"])
    def test_missing_config_file(self, tmp_path, capsys, spelling):
        path = tmp_path / "absent.conf"
        option = ["--config", str(path)] if spelling == "separate" else [f"--config={path}"]
        code, out, err = run_cli(option + ["moments", "--n", "4", "--sum-sq"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read config")


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

    def test_density_is_never_negative(self, capsys):
        code, out, _ = run_cli(["weight-density", "--n", "12", "--k", "2"], capsys)
        assert code == 0
        densities = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(densities) == 512
        assert min(densities) >= 0.0

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


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_N12 = random.Random(12)
# At n = 12 a beta or psi curve has 24576 rows, more than one block of the CSV writer.
_WEIGHTS = {
    1: "1",
    3: "0.5,0.3,0.2",
    12: ",".join(repr(_N12.random()) for _ in range(12)),
}


def _fixed_curve_rows(text, functional):
    weights = simplex.as_weight_vector([float(w) for w in text.split(",")], normalize=True)
    return reference.step_curve_rows(games.fixed_weight_quota_curve(weights, functional))


def _power_curve_rows():
    curves = experiments.mc_power_curve(
        3, experiments.default_quota_grid(), samples=300, seed=simplex.RandomSeed(4, 0),
        statistic="beta", workers=1,
    )
    return [row for curve in curves for row in reference.quota_curve_rows(curve)]


def _sample_weights_rows():
    draws = simplex.sample_uniform_simplex_batch(3, 25, simplex.RandomSeed(8, 0))
    return [tuple(float(x) for x in row) for row in draws]


def _beta_n3_rows():
    rows = []
    for q in experiments.default_quota_grid():
        for k, value in enumerate(analytic.expected_beta_n3(float(q)), start=1):
            rows.append((float(q), f"beta_rank_{k}", value, 0.0, 0))
    return rows


def _classes_rows():
    catalog = experiments.discover_classes(3, budget=4000, seed=simplex.RandomSeed(6, 0))
    return [
        (idx, ";".join(reference.table_cell(b) for b in cls.beta), cls.hits)
        for idx, cls in enumerate(catalog.classes)
    ]


_GOLDEN = [
    pytest.param(
        ["fixed-curve", "--weights", _WEIGHTS[n], "--functional", functional],
        _CURVE_HEADER,
        lambda n=n, functional=functional: _fixed_curve_rows(_WEIGHTS[n], functional),
        id=f"fixed-curve-n{n}-{functional}",
    )
    for n in (1, 3, 12)
    for functional in ("beta", "psi", "coleman")
] + [
    pytest.param(
        ["power-curve", "--n", "3", "--samples", "300", "--seed", "4"],
        _CURVE_HEADER, _power_curve_rows, id="power-curve-n3",
    ),
    pytest.param(
        ["sample-weights", "--n", "3", "--samples", "25", "--seed", "8"],
        ("w1", "w2", "w3"), _sample_weights_rows, id="sample-weights",
    ),
    pytest.param(
        ["analytic", "--what", "beta-n3"], _CURVE_HEADER, _beta_n3_rows, id="analytic-beta-n3",
    ),
    pytest.param(
        ["classes", "--n", "3", "--budget", "4000", "--seed", "6"],
        ("class-id", "beta-vector", "hit-count"), _classes_rows, id="classes-n3",
    ),
]


class TestTableWriter:
    @given(st.floats() | st.integers(0, 2 ** 64 - 1).map(_bits_to_float))
    @example(-0.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(5e-324)
    @example(-2.225073858507201e-308)
    @settings(max_examples=2000, deadline=None)
    def test_percent_format_matches_format(self, value):
        expected = format(value, ".17g")
        assert "%.17g" % value == expected
        assert _float_text(np.array([value, value, -value])) == [
            expected, expected, format(-value, ".17g")
        ]

    def test_signed_zeros_and_nans_keep_their_text(self, capsys):
        args = argparse.Namespace(format="csv", output=None)
        column = np.array([0.0, -0.0, -0.0, math.nan, math.nan])
        _write_table(args, ("x", "name", "count"), [column, "z", 0])
        assert capsys.readouterr().out == "x,name,count\n0,z,0\n-0,z,0\n-0,z,0\nnan,z,0\nnan,z,0\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, header, rows", _GOLDEN)
    def test_matches_row_wise_reference(self, capsys, argv, header, rows, fmt):
        code, out, _ = run_cli([*argv, "--format", fmt], capsys)
        assert code == 0
        assert out == reference.table_text(header, rows(), fmt)


class _RecordingStream:
    """A text stream that keeps each write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestJsonTable:
    @pytest.mark.parametrize(
        "weights, functional", [("0.5,0.3,0.2", "beta"), ("1", "coleman")], ids=["n3", "one-row"]
    )
    def test_matches_json_dumps(self, capsys, weights, functional):
        rows = _fixed_curve_rows(weights, functional)
        code, out, _ = run_cli(
            ["fixed-curve", "--weights", weights, "--functional", functional, "--format", "json"],
            capsys,
        )
        assert code == 0
        expected = [dict(zip(_CURVE_HEADER, row)) for row in rows]
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_special_values_and_empty_table(self, capsys):
        args = argparse.Namespace(format="json", output=None)
        column = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1])
        _write_table(args, ("x", "name", "count", "text"), [column, "z", 0, list("abcdefg")])
        rows = zip(column.tolist(), ["z"] * 7, [0] * 7, "abcdefg")
        expected = [dict(zip(("x", "name", "count", "text"), row)) for row in rows]
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
        _write_table(args, ("x",), [np.array([])])
        assert capsys.readouterr().out == "[]\n"

    def test_rows_are_written_in_blocks(self, monkeypatch):
        # At n = 12 the curve has 24576 rows, more than one block.
        stream = _RecordingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        argv = ["fixed-curve", "--weights", _WEIGHTS[12], "--functional", "psi"]
        assert main([*argv, "--format", "json"]) == 0
        rows = _fixed_curve_rows(_WEIGHTS[12], "psi")
        assert len(rows) > _TABLE_BLOCK
        assert max(text.count("{") for text in stream.writes) <= _TABLE_BLOCK
        assert "".join(stream.writes) == reference.table_text(_CURVE_HEADER, rows, "json")
