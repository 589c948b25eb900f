import argparse
import hashlib
import importlib
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
from votepower import analytic, experiments, games, simplex
from votepower.cli import build_parser, main
from votepower.commands import _CURVE_HEADER, _TABLE_BLOCK, _write_table
from votepower.floattext import _digits_exponent, float_text as _float_text


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample-weights"],
            ["weight-density", "--k", "1"],
            ["moments", "--sum-sq"],
            ["power-curve", "--samples", "8"],
            ["coleman-curve", "--method", "inversion"],
            ["coleman-curve", "--method", "normal"],
            ["coleman-curve", "--method", "mc", "--samples", "8"],
            ["coleman-curve", "--method", "hoeffding-bound", "--samples", "8"],
            ["classes", "--budget", "8"],
            ["analytic", "--what", "cf"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_zero_players_is_a_dimension_error(self, capsys, argv):
        code, out, err = run_cli([*argv, "--n", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: InvalidDimensionError: player count")

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
        "command",
        [
            ["coleman-curve", "--n", "3", "--method", "inversion"],
            ["power-curve", "--n", "3", "--samples", "16"],
            ["analytic", "--what", "beta-n2"],
        ],
        ids=["coleman-curve", "power-curve", "analytic"],
    )
    def test_empty_quota_grid_is_refused(self, tmp_path, capsys, command):
        # an empty value is a grid with no quota, not an absent option
        config = tmp_path / "votepower.conf"
        config.write_text("quotas=\n")
        for argv in ([*command, "--quotas="], ["--config", str(config), *command]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert "InvalidArgumentsError: quota grid must be non-empty" in err

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

    @pytest.mark.parametrize(
        "argv, message",
        [(["indices", "--weights-int", "5,3,2"], "--weights-int requires --quota-frac"),
         (["indices", "--weights", "0.5,0.3,0.2"], "a quota is required")],
        ids=["weights-int-without-quota-frac", "indices-without-quota"],
    )
    def test_game_without_a_quota(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("fraction", ["1/0", "0/0", "2/00"])
    def test_quota_fraction_with_zero_denominator(self, capsys, fraction):
        code, out, err = run_cli(
            ["indices", "--weights-int", "1,2", "--quota-frac", fraction], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "zero denominator" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, options",
        [
            (
                ["indices", "--weights", "0.5,0.3,0.2", "--quota", "0.55",
                 "--weights-int", "1,2", "--quota-frac", "3/5"],
                ("--weights", "--weights-int"),
            ),
            (["indices", "--weights-int", "1,2", "--quota", "0.5", "--quota-frac", "3/5"],
             ("--quota", "--quota-frac")),
            (["indices", "--weights", "0.5,0.5", "--weights-csv", "w.csv", "--quota", "0.6"],
             ("--weights", "--weights-csv")),
            (["fixed-curve", "--weights", "0.5,0.5", "--weights-csv", "w.csv"],
             ("--weights", "--weights-csv")),
            (["coleman-curve", "--n", "3", "--quota", "0.7", "--quotas", "0.6,0.8"],
             ("--quota", "--quotas")),
        ],
        ids=["weights-and-weights-int", "quota-and-quota-frac", "indices-weights-and-csv",
             "fixed-curve-weights-and-csv", "quota-and-quotas"],
    )
    def test_conflicting_options(self, capsys, argv, options):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err
        assert all(option in err for option in options)

    def test_config_default_does_not_conflict(self, tmp_path, capsys):
        config = tmp_path / "q.cfg"
        config.write_text("quotas=0.6,0.8\n")
        argv = ["coleman-curve", "--n", "3", "--quota", "0.7"]
        expected = run_cli(argv, capsys)
        assert expected[0] == 0
        assert run_cli(["--config", str(config), *argv], capsys) == expected

    @pytest.mark.parametrize("ts", ["nan", "0,inf", "1,-inf"])
    def test_cf_rejects_non_finite_arguments(self, capsys, ts):
        code, out, err = run_cli(["analytic", "--what", "cf", "--t", ts], capsys)
        assert (code, out) == (2, "")
        assert "InvalidArgumentsError" in err and "finite" in err

    @pytest.mark.parametrize("above", [1, 32])
    def test_cf_above_validated_range(self, capsys, above):
        n = str(analytic.COLEMAN_N_MAX + above)
        code, out, err = run_cli(["analytic", "--what", "cf", "--n", n, "--t", "1,108"], capsys)
        assert (code, out) == (2, "")
        assert "AccuracyUnsupportedError" in err

    def test_cf_help_names_the_validated_range(self, capsys):
        code, out, _ = run_cli(["analytic", "--help"], capsys)
        assert code == 0
        assert f"1..{analytic.COLEMAN_N_MAX} for cf" in " ".join(out.split())

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

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["indices", "--weights", "0.5,0.3,0.2", "--quota", "0.55", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "player,psi,beta,member-count"
        profile = votepower.banzhaf(votepower.VotingGame(np.array([0.5, 0.3, 0.2]), 0.55))
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        assert [float(r[1]) for r in rows] == profile.psi.tolist()
        assert [float(r[2]) for r in rows] == profile.beta.tolist()
        assert [int(r[3]) for r in rows] == profile.member_counts.tolist()

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

    def test_hoeffding_above_enumeration_budget(self, capsys):
        argv = ["coleman-curve", "--n", "30", "--quotas", "0.6,1.0", "--samples", "512"]
        code, out, _ = run_cli([*argv, "--method", "hoeffding-bound"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[1] for row in rows] == ["hoeffding_bound"] * 2
        assert run_cli([*argv, "--method", "mc"], capsys)[0] == 4


class TestExitCodes:
    def test_budget_error(self, capsys):
        weights = ",".join(["1"] * 60)
        code, _, err = run_cli(
            ["indices", "--weights", weights, "--quota", "0.6"], capsys
        )
        assert code == 4
        assert "BudgetExceededError" in err

    def test_hoeffding_has_no_player_cap(self, capsys):
        argv = ["coleman-curve", "--n", "3000", "--method", "hoeffding-bound", "--samples", "3"]
        code, out, err = run_cli([*argv, "--quotas", "0.6,1.0", "--workers", "2"], capsys)
        assert (code, err) == (0, "")
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["hoeffding_bound"] * 2

    def test_usage_error(self, capsys):
        code, _, err = run_cli(
            ["indices", "--weights", "0.5,0.5", "--quota", "0.4"], capsys
        )
        assert code == 2

    def test_output_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "absent" / "out.csv"
        code, out, err = run_cli(["expected-weights", "--n", "3", "--output", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

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

    @pytest.mark.parametrize("players", [3, 12])
    def test_closed_pipe_exits_quietly(self, players):
        # Three players' curve fits in the stream's buffer, so the write
        # fails at the final flush; twelve players' 24576 rows fail mid-table.
        # The read end is closed before the child starts, so every run fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = ["fixed-curve", "--weights", _WEIGHTS[players], "--functional", "psi"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "votepower.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=_package_env(),
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_broken_pipe_without_a_descriptor(self, capsys, monkeypatch):
        def closed(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(experiments, "mc_power_curve", closed)
        argv = ["power-curve", "--n", "3", "--samples", "16", "--quotas", "0.6"]
        assert run_cli(argv, capsys) == (1, "", "")


def _package_env():
    """This process's environment, with this votepower first on PYTHONPATH."""
    package_root = str(Path(votepower.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))


def fresh_interpreter(code, **variables):
    """Run ``code`` in a new Python process that imports this votepower;
    ``variables`` set its environment variables (None unsets one)."""
    env = _package_env()
    for key, value in variables.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
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

    def test_no_submodule_or_error_ratio_loads_scipy(self):
        proc = fresh_interpreter(
            "import importlib, pkgutil, sys, votepower\n"
            "for module in pkgutil.iter_modules(votepower.__path__):\n"
            "    importlib.import_module('votepower.' + module.name)\n"
            "votepower.coleman_error_ratio(6, 0.1)\n"
            "print('scipy' in sys.modules)\n"
        )
        assert proc.stdout.strip() == "False"

    def test_package_import_loads_no_submodule_or_numpy(self):
        proc = fresh_interpreter(
            "import sys, votepower; "
            "print([m for m in sys.modules if m == 'numpy' or m.startswith('votepower.')])"
        )
        assert proc.stdout.strip() == "[]"

    def test_public_names_are_unchanged(self):
        assert votepower.__all__ == sorted(PUBLIC_NAMES.split())

    def test_public_names_resolve_lazily_to_their_submodules(self):
        # Each name is looked up first in a fresh process, through the lazy
        # path, and must be the object its defining submodule holds.
        proc = fresh_interpreter(
            "import importlib, sys, types, votepower\n"
            "for name in votepower.__all__:\n"
            "    value = getattr(votepower, name)\n"
            "    if isinstance(value, types.ModuleType):\n"
            "        ok = value is sys.modules['votepower.' + name]\n"
            "    else:\n"
            "        home = importlib.import_module(value.__module__)\n"
            "        ok = value.__module__.startswith('votepower.') and getattr(home, name) is value\n"
            "    print(name, ok)\n"
        )
        lines = proc.stdout.split("\n")[:-1]
        assert lines == [f"{name} True" for name in votepower.__all__]

    def test_dir_lists_public_names_and_unknown_names_raise(self):
        assert set(votepower.__all__) <= set(dir(votepower))
        with pytest.raises(AttributeError, match="no_such_name"):
            votepower.no_such_name

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["expected-weights", "--n", "6"], ["games", "experiments", "analytic", "numpy"]),
            (["weight-density", "--n", "4", "--k", "2", "--plot", "density.svg"],
             ["games", "experiments", "analytic", "numpy"]),
            (["moments", "--n", "4", "--m", "2,1,0,0", "--sum-sq"],
             ["games", "experiments", "analytic", "numpy"]),
            (["indices", "--weights", "0.5,0.3,0.2", "--quota", "0.55"],
             ["experiments", "analytic", "weightdist"]),
            (["coleman-curve", "--n", "12", "--method", "inversion"],
             ["experiments", "games", "numpy"]),
            (["coleman-curve", "--n", "6", "--method", "inversion", "--quota", "1.0"],
             ["experiments", "games", "numpy"]),
            (["analytic", "--what", "beta-n3"], ["experiments", "games", "numpy"]),
            (["analytic", "--what", "extrema"], ["experiments", "games", "numpy"]),
        ],
        ids=["expected-weights", "density-plot", "moments", "indices", "coleman-inversion",
             "coleman-single-quota", "beta-n3", "extrema"],
    )
    def test_subcommand_imports_only_what_it_uses(self, tmp_path, argv, absent):
        # votepower submodules by their short names; numpy by its own
        names = [m if m == "numpy" else "votepower." + m for m in absent]
        argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            f"code = main({argv!r}); "
            f"print(code, [m for m in {names!r} if m in sys.modules], file=sys.stderr)"
        )
        assert proc.stdout
        assert proc.stderr.strip() == "0 []"

    @pytest.mark.parametrize(
        "argv",
        [["analytic", "--what", "cf", "--n", "3", "--t", "1"],
         ["power-curve", "--n", "3", "--samples", "16"]],
        ids=["cf", "monte-carlo"],
    )
    def test_cf_and_monte_carlo_load_numpy(self, argv):
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            f"code = main({argv!r}); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)"
        )
        assert proc.stderr.strip() == "0 True"

    @pytest.mark.parametrize(
        "argv",
        [["power-curve", "--n", "3", "--samples", "16"],
         ["classes", "--n", "3", "--budget", "100"]],
        ids=["power-curve", "classes"],
    )
    def test_one_worker_loads_no_pool_or_closed_forms(self, argv):
        absent = ["votepower.analytic", "concurrent.futures"]
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            f"code = main({argv!r}); "
            f"print(code, [m for m in {absent!r} if m in sys.modules], file=sys.stderr)"
        )
        assert proc.stdout
        assert proc.stderr.strip() == "0 []"

    def test_two_workers_still_run_in_a_pool(self):
        argv = ["power-curve", "--n", "3", "--samples", "16"]
        one = fresh_interpreter(f"from votepower.cli import main; main({argv!r})")
        two = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            f"code = main({argv + ['--workers', '2']!r}); "
            "print(code, 'concurrent.futures' in sys.modules, file=sys.stderr)"
        )
        assert two.stdout == one.stdout
        assert two.stderr.strip() == "0 True"

    def test_fixed_curve_does_not_load_numpy_ma(self):
        if "True" in fresh_interpreter(
            "import sys, numpy; print('numpy.ma' in sys.modules)"
        ).stdout:
            pytest.skip("importing numpy alone loads numpy.ma here")
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            "code = main(['fixed-curve', '--weights', '0.5,0.3,0.2']); "
            "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)"
        )
        assert proc.stdout.startswith("quota,")
        assert proc.stderr.strip() == "0 False"

    def test_only_the_cf_loads_numpy_polynomial(self):
        if "True" in fresh_interpreter(
            "import sys, numpy; print('numpy.polynomial' in sys.modules)"
        ).stdout:
            pytest.skip("importing numpy alone loads numpy.polynomial here")
        for argv, loaded in [
            (["coleman-curve", "--n", "12", "--method", "inversion"], "False"),
            (["analytic", "--what", "cf", "--n", "12"], "True"),
        ]:
            proc = fresh_interpreter(
                "import sys; from votepower.cli import main; "
                f"code = main({argv!r}); "
                "print(code, 'numpy.polynomial' in sys.modules, file=sys.stderr)"
            )
            assert proc.stderr.strip() == f"0 {loaded}"

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["power-curve", "--help"], 0), (["power-curve"], 2),
         (["--config", "unknown.cfg", "moments", "--n", "4"], 2)],
        ids=["help", "subcommand-help", "usage-error", "config-error"],
    )
    def test_help_and_usage_errors_load_no_numpy(self, tmp_path, argv, code):
        (tmp_path / "unknown.cfg").write_text("no-such-option = 1\n")
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        proc = fresh_interpreter(
            "import sys; from votepower.cli import main; "
            f"code = main({argv!r}); "
            "print(code, 'numpy' in sys.modules, file=sys.stderr)"
        )
        assert proc.stderr.splitlines()[-1] == f"{code} False"

    def test_module_run_plots_without_a_second_cli(self, tmp_path):
        # under ``python -m votepower.cli`` the handlers' lookup of emit_plot
        # finds the running module, so no second copy is compiled and run
        svg = tmp_path / "d.svg"
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "votepower.cli", "weight-density",
             "--n", "3", "--k", "1", "--points", "8", "--plot", str(svg)],
            capture_output=True, text=True, env=_package_env(),
        )
        assert proc.returncode == 0
        assert svg.read_text().startswith("<?xml")
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "votepower.commands" in imported
        assert "votepower.cli" not in imported

    @pytest.mark.parametrize("parent, seen", [(None, "1"), ("2", "2")])
    def test_cli_defaults_openblas_threads_to_one(self, parent, seen):
        proc = fresh_interpreter(
            "import os, votepower.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))",
            OPENBLAS_NUM_THREADS=parent,
        )
        assert proc.stdout.strip() == seen

    def test_library_use_leaves_openblas_threads_unset(self):
        proc = fresh_interpreter(
            "import os, votepower; votepower.banzhaf; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))",
            OPENBLAS_NUM_THREADS=None,
        )
        assert proc.stdout.strip() == "None"


PUBLIC_NAMES = """
AccuracyUnsupportedError BudgetExceededError ClassTable
DegenerateDistributionError Extremum GameClass GameClassCatalog GameClassInfo
InvalidArgumentsError InvalidDimensionError InvalidRankError
PiecewisePolynomialCurve PowerProfile QuotaCurve RandomSeed SplineFit StepCurve
VotePowerError VotingGame analytic as_weight_vector banzhaf class_table_n3
coalition_weight_cf coleman_error_ratio count_extrema count_winning_mitm
default_quota_grid discover_classes dummies errors
expected_beta_n2 expected_beta_n2_curve expected_beta_n3 expected_beta_n3_curve
expected_coleman expected_coleman_normal expected_ordered_weight
expected_ordered_weight_exact expected_ordered_weights experiments extrema_n3
fit_spline fixed_weight_quota_curve games hoeffding_bound
mc_coleman_curve mc_hoeffding_curve mc_power_curve optimal_quota_diagnostic
ordered_weight_cdf
ordered_weight_density ordered_weight_support power_sum_moment product_moment
product_moment_exact renyi_partial_sums sample_uniform_simplex_batch
simplex sum_sq_stats weightdist
"""


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

    def test_spline_fit_reads_json_curves_as_csv_ones(self, tmp_path, capsys):
        # both float texts round-trip exactly, so the fits agree to the byte
        fits = []
        for fmt in ("csv", "json"):
            curve_path = tmp_path / f"curve.{fmt}"
            code, _, _ = run_cli(
                ["power-curve", "--n", "6", "--samples", "256", "--output", str(curve_path),
                 "--format", fmt],
                capsys,
            )
            assert code == 0
            fits.append(run_cli(
                ["spline-fit", "--input", str(curve_path), "--series", "beta_rank_2",
                 "--max-degree", "5"],
                capsys,
            ))
        assert fits[0][0] == 0
        assert fits[1] == fits[0]

    def test_spline_fit_unknown_series(self, tmp_path, capsys):
        curve_path = tmp_path / "beta2.csv"
        code, _, _ = run_cli(
            ["analytic", "--what", "beta-n2", "--output", str(curve_path)], capsys
        )
        assert code == 0
        code, out, err = run_cli(
            ["spline-fit", "--input", str(curve_path), "--series", "beta_rank_3",
             "--max-degree", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "series 'beta_rank_3' not found" in err

    def test_spline_fit_rejects_a_table_that_is_no_curve(self, tmp_path, capsys):
        table_path = tmp_path / "weights.csv"
        code, _, _ = run_cli(["expected-weights", "--n", "3", "--output", str(table_path)],
                             capsys)
        assert code == 0
        code, out, err = run_cli(
            ["spline-fit", "--input", str(table_path), "--max-degree", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert "is not a curve CSV" in err

    @pytest.mark.parametrize("text", ["[1, 2]", '[{"quota": 0.6}]', "[{"])
    def test_spline_fit_rejects_other_json(self, tmp_path, capsys, text):
        curve_path = tmp_path / "curve.json"
        curve_path.write_text(text)
        code, out, err = run_cli(
            ["spline-fit", "--input", str(curve_path), "--max-degree", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert "is not a curve JSON row list" in err

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

    @pytest.mark.parametrize(
        "penalty, code", [("0", 0), ("1e300", 0), ("nan", 2), ("inf", 2), ("-inf", 2),
                          ("-1e-300", 2)])
    def test_spline_fit_penalty_edges(self, tmp_path, capsys, penalty, code):
        # a NaN or infinite penalty would switch the knot search off
        curve_path = tmp_path / "beta2.csv"
        assert run_cli(["analytic", "--what", "beta-n2", "--output", str(curve_path)],
                       capsys)[0] == 0
        got, out, err = run_cli(
            ["spline-fit", "--input", str(curve_path), "--max-degree", "1",
             f"--penalty={penalty}"],
            capsys,
        )
        assert got == code
        if code:
            assert out == "" and "penalty must be finite and >= 0" in err

    def test_spline_fit_does_not_follow_the_cpu_kernels(self, tmp_path, capsys):
        # The fit is one Householder QR in elementwise arithmetic, so neither
        # the OpenBLAS kernel (ignored where numpy does not use OpenBLAS) nor
        # numpy's SIMD dispatch moves a bit of it.
        curve_path = tmp_path / "curve.csv"
        argv = ["power-curve", "--n", "6", "--samples", "8192", "--seed", "7",
                "--output", str(curve_path)]
        assert run_cli(argv, capsys)[0] == 0
        argv = ["spline-fit", "--input", str(curve_path), "--series", "beta_rank_2",
                "--max-degree", "5"]
        code = f"from votepower.cli import main; main({argv!r})"
        hosts = [{"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Haswell"}]
        baseline = _numpy_cpu_baseline()
        if baseline is not None:
            hosts.append({"NPY_ENABLE_CPU_FEATURES": " ".join(baseline)})
        outs = {fresh_interpreter(code, **host).stdout for host in hosts}
        assert outs == {run_cli(argv, capsys)[1]}

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

    def test_config_sets_the_worker_default(self, tmp_path, capsys, monkeypatch):
        # the flag's default is one worker, a config line changes it, and
        # no environment variable does
        monkeypatch.setenv("VOTEPOWER_WORKERS", "two")
        argv = ["power-curve", "--n", "3", "--samples", "16", "--quotas", "0.6"]
        assert build_parser().parse_args(argv).workers == 1
        assert build_parser({"workers": "2"}, "power-curve").parse_args(argv).workers == 2
        config = tmp_path / "votepower.conf"
        config.write_text("workers=2\n")
        code, out, _ = run_cli(["--config", str(config), *argv], capsys)
        assert code == 0
        assert out == run_cli(argv, capsys)[1]
        config.write_text("workers=0\n")
        code, out, err = run_cli(["--config", str(config), *argv], capsys)
        assert (code, out) == (2, "")
        assert "worker count must be at least 1" in err

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
    def test_plots_go_through_cli_emit_plot(self, tmp_path, capsys, monkeypatch):
        # the handlers look emit_plot up on votepower.cli when they plot, so
        # a wrapper put there sees every chart
        import votepower.cli

        calls = []
        monkeypatch.setattr(votepower.cli, "emit_plot", lambda *args: calls.append(args[1:]))
        svg = str(tmp_path / "d.svg")
        code, _, _ = run_cli(
            ["weight-density", "--n", "3", "--k", "1", "--points", "8", "--plot", svg], capsys
        )
        assert code == 0
        assert calls == [(svg, "ordered-weight density, n=3 k=1")]

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

    def test_fixed_curve_reads_a_weights_file(self, tmp_path, capsys):
        weights_path = tmp_path / "w.csv"
        weights_path.write_text("5,3,2\n")
        argv = ["fixed-curve", "--functional", "psi"]
        from_file = run_cli([*argv, "--weights-csv", str(weights_path)], capsys)
        assert from_file[0] == 0
        assert from_file == run_cli([*argv, "--weights", "0.5,0.3,0.2"], capsys)

    @pytest.mark.parametrize(
        "weights, functional",
        [("1", "beta"), ("1", "psi"), ("1", "coleman"), ("0.5,0.3,0.2", "psi")],
    )
    def test_fixed_curve_plot_names_series_as_the_table(
        self, tmp_path, capsys, weights, functional
    ):
        svg_path = tmp_path / "curve.svg"
        code, out, _ = run_cli(
            ["fixed-curve", "--weights", weights, "--functional", functional,
             "--plot", str(svg_path)],
            capsys,
        )
        assert code == 0
        names = {line.split(",")[1] for line in out.strip().splitlines()[1:]}
        svg = svg_path.read_text()
        assert all(f">{name}</text>" in svg for name in names)

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

    def test_plot_bytes_are_the_same_from_lists_and_arrays(self, tmp_path):
        from votepower.svgplot import emit_plot

        xs = np.linspace(0.505, 1.0, 100)
        ys = np.sin(40 * xs) / 3
        charts = []
        for kind, convert in (("list", list), ("tolist", np.ndarray.tolist), ("array", np.asarray)):
            target = tmp_path / f"{kind}.svg"
            emit_plot([("a", convert(xs), convert(ys)), ("b", convert(xs[:1]), convert(ys[:1]))],
                      str(target), "caption")
            charts.append(target.read_bytes())
        assert charts[0] == charts[1] == charts[2]
        assert charts[0].count(b"<polyline") == 1 and charts[0].count(b"<circle") == 1


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_text_mismatches(values):
    """(value, CSV text, "%.17g" text) wherever the two differ."""
    expected = ["%.17g" % v for v in values.tolist()]
    return [
        (v, got, want)
        for v, got, want in zip(values.tolist(), _float_text(values), expected)
        if got != want
    ]


def _kernel_edge_values():
    """Values at every edge of the vectorized CSV float text, and their
    negatives: zeros, non-finite values, subnormals, the switches between
    fixed and exponent notation, the ends of the range the kernel takes
    without falling back, and dyadic values, among them exact ties."""
    values = [0.0, math.nan, math.inf, 5e-324, 1e-310, 2.225073858507201e-308]
    values.append(1.7976931348623157e308)
    for edge in (1e-5, 1e-4, 1e16, 1e17, 1e-30, 1e30, 0.1, 1.0, 1e-300, 1e300):
        below = above = edge
        values.append(edge)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            values += [float(below), float(above)]
    # k + m / 2**17 has 18 significant digits ending in 5: a tie at 17,
    # rounded to even whichever the digit before it is.
    values += [k + m * 2.0 ** -17 for k in range(1, 10) for m in (1, 3)]
    rng = random.Random(18)
    values += [rng.randrange(1, 2 ** 53) / 2.0 ** j for j in range(64) for _ in range(16)]
    return values + [-v for v in values]


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


def _beta_n2_rows():
    rows = []
    for q in experiments.default_quota_grid():
        b1, b2 = analytic.expected_beta_n2(float(q))
        rows.append((float(q), "beta_rank_1", b1, 0.0, 0))
        rows.append((float(q), "beta_rank_2", b2, 0.0, 0))
    return rows


def _class_probs_rows():
    table = analytic.class_table_n3()
    rows = []
    for q in experiments.default_quota_grid():
        for label, prob in table.probabilities(float(q)).items():
            rows.append((float(q), f"class_{label}", prob, 0.0, 0))
    return rows


_COLEMAN_GRID = (0.55, 0.7, 0.85, 1.0)


def _coleman_rows(method):
    closed_forms = {
        "inversion": ("coleman", analytic.expected_coleman),
        "normal": ("coleman_normal", analytic.expected_coleman_normal),
    }
    if method in closed_forms:
        name, formula = closed_forms[method]
        return [(q, name, formula(5, q), 0.0, 0) for q in _COLEMAN_GRID]
    estimator = experiments.mc_coleman_curve if method == "mc" else experiments.mc_hoeffding_curve
    curve = estimator(
        5, np.array(_COLEMAN_GRID), samples=300, seed=simplex.RandomSeed(7, 0), workers=1
    )
    return reference.quota_curve_rows(curve)


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
        [
            "coleman-curve", "--n", "5", "--method", method, "--samples", "300", "--seed", "7",
            "--quotas", ",".join(map(str, _COLEMAN_GRID)),
        ],
        _CURVE_HEADER,
        lambda method=method: _coleman_rows(method),
        id=f"coleman-curve-{method}",
    )
    for method in ("inversion", "normal", "mc", "hoeffding-bound")
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
        ["analytic", "--what", "beta-n2"], _CURVE_HEADER, _beta_n2_rows, id="analytic-beta-n2",
    ),
    pytest.param(
        ["analytic", "--what", "class-probs"], _CURVE_HEADER, _class_probs_rows,
        id="analytic-class-probs",
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

    def test_kernel_edge_values(self):
        values = np.array(_kernel_edge_values())
        assert _float_text_mismatches(values) == []

    def test_kernel_steps_an_exponent_log10_rounds_up(self):
        # Both lie just below a power of ten, and log10 rounds them onto it.
        values = np.array([1e23, 0.09999999999999999])
        assert np.log10(values).tolist() == [23.0, -1.0]
        d, e, exact = _digits_exponent(values)
        assert d.tolist() == [99999999999999992, 99999999999999992]
        assert e.tolist() == [22, -2] and exact.all()

    def test_table_longer_than_a_block(self, capsys):
        rng = np.random.default_rng(16)
        rows = 2 * _TABLE_BLOCK + 5
        # Runs of two equal neighbours, both notations, both signs, and
        # magnitudes beyond the kernel's own range.
        magnitudes = rng.standard_normal(rows) * 10.0 ** rng.integers(-35, 36, rows)
        x = np.repeat(magnitudes, 2)[:rows]
        names = [f"series_{i % 3}" for i in range(rows)]
        header = ("x", "name", "count", "zero")
        args = argparse.Namespace(format="csv", output=None)
        _write_table(args, header, [x, names, np.arange(rows), 0.0])
        expected = zip(x.tolist(), names, range(rows), [0.0] * rows)
        assert capsys.readouterr().out == reference.table_text(header, expected)

    @pytest.mark.extended
    def test_kernel_matches_percent_format_in_bulk(self):
        rng = np.random.default_rng(17)
        chunk = 10 ** 5  # values per call, which bounds the memory held
        for _ in range(100):
            values = rng.integers(0, 2 ** 64, chunk, dtype=np.uint64).view(np.float64)
            assert _float_text_mismatches(values) == []
        for j in range(64):
            values = rng.integers(1, 2 ** 53, chunk) / 2.0 ** j
            assert _float_text_mismatches(values) == []

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


class TestClosedFormBytes:
    """The closed forms' default CSV output, pinned by its sha256 digest.

    ``_GOLDEN`` rebuilds its references from the library, so it cannot see
    a changed value; a digest changes with any bit of any value.
    """

    @pytest.mark.parametrize(
        "what, digest",
        [
            ("beta-n2", "d8b1ce4655ce68123e82a1a313daa43744ba7cbc7d336cbf629b62aed8cc8ab5"),
            ("beta-n3", "646f814e7c7add1cd64a6a0d4d9880f21efe2d9d419bf4793f2f8db01f2dcd36"),
            ("class-probs", "66d2f4902080749ddee63a451c7e0c7ac57f1fefd66b5be9ac25102de2447836"),
            ("extrema", "ac32affdd4c45dba7464efff740ff8209c338f5200d4c4547d807cfd3598029f"),
        ],
    )
    def test_default_output_digest(self, capsys, what, digest):
        code, out, _ = run_cli(["analytic", "--what", what], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (12, "c7fd6fd77a17ef39bfc4d32da2f196baf589c61e6faa22fed51ebf2b8b420be5"),
            (30, "72312871021745efe33e08d7070743c59247c7af7bf64ab93a638b9081cb0bcb"),
        ],
    )
    def test_coleman_inversion_digest(self, capsys, n, digest):
        # every bit of expected_coleman on the default quota grid
        code, out, _ = run_cli(["coleman-curve", "--n", str(n), "--method", "inversion"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [12, 30])
    def test_coleman_inversion_ignores_numpy_cpu_dispatch(self, capsys, n):
        # The exact curve takes exp from the C library, so its bits are the
        # same when numpy may use only the CPU features it was built for.
        baseline = _numpy_cpu_baseline()
        if baseline is None:
            pytest.skip("numpy exposes no __cpu_baseline__")
        argv = ["coleman-curve", "--n", str(n), "--method", "inversion"]
        proc = fresh_interpreter(
            f"import numpy; from votepower.cli import main; main({argv!r})",
            NPY_ENABLE_CPU_FEATURES=" ".join(baseline),
        )
        assert proc.stdout == run_cli(argv, capsys)[1]


def _numpy_cpu_baseline():
    """The CPU features numpy was built for, or None where numpy does not
    say."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return list(importlib.import_module(name).__cpu_baseline__)
        except (ImportError, AttributeError):
            continue
    return None


class TestHelpBytes:
    """``--help`` and every subcommand's ``--help`` at 80 columns: exit
    code 0, nothing on stderr, and stdout pinned by its sha256 digest.
    argparse's layout differs between Python versions, so the digests
    hold for the version they were taken on."""

    DIGESTS = {
        "": "d5772084f94ca259a3456a19cee8c58cd865b93310f2113d627f1932611a2d81",
        "sample-weights": "ba2cd3d8e9c3b76aec771f3362c5a8eab3b411031e4e3eb6e0b240ab1bb738e2",
        "expected-weights": "6d5d4d426542012aeb36583db2c8396bb8bcaefa9ca01e54b97f59dc245eb8da",
        "weight-density": "4e76fcd8dd890583f10caf45b308a913c5aa2bc4ec949bb8a4d3b909ef381390",
        "moments": "6bf71f47667c197391b2f28c2b898305f19c5d8259531444cbf273c28144bff6",
        "indices": "401de5eb60c0959e6ce153ecab342685f2adadc081e62aaaac6e653df0f9f5c9",
        "fixed-curve": "207b1be0027791e5fbd982fdeed1ed4cb5ef7d86f12613092a5ac0dba804a947",
        "power-curve": "1609a0a5c54361b67b94ec1b31ead65b6bb4a7995d2d220bf8ffa16a3fd5c851",
        "coleman-curve": "a60a622fa30380c5a81f91084c29ac9b94bfb92329e3a3b13a718bdb67c08e24",
        "classes": "a908c9ed0de063faa8663ef86780fe27bae9ebd8c2cd9767403ec62046d2eb74",
        "spline-fit": "3c60e3b62fa8bd27bce68af35ff3385bfd2be86373ea56eda58ac785e2448c5e",
        "analytic": "177a34b6bf2bec39a33f7371471e6e2af2f16c7dfa6a92dc05c56e4f98ad7890",
    }

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests taken on Python 3.11")
    def test_help_digests(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        seen = {}
        for command in self.DIGESTS:
            code, out, err = run_cli([command, "--help"] if command else ["--help"], capsys)
            seen[command] = (code, err, hashlib.sha256(out.encode()).hexdigest())
        assert seen == {command: (0, "", digest) for command, digest in self.DIGESTS.items()}


class TestFixedCurveBytes:
    """A two-block fixed-curve CSV (2**11 breakpoints times 12 players is
    24,576 rows), pinned by its sha256 digest, so that any change of the
    float text shows."""

    WEIGHTS = (
        "0.638477,0.519519,0.583047,0.553241,0.590484,0.342294,"
        "0.741145,0.365004,0.989872,0.697956,0.664937,0.858049"
    )

    @pytest.mark.parametrize(
        "functional, digest",
        [
            ("beta", "209593d920e382dd4f684b998fa17ff3a045a3ec2096ec126dff28749a39e8be"),
            ("psi", "f20ed167c0d3ba04c785c449922b0047fa24505a3c33b90b5e0087b224284c3c"),
        ],
    )
    def test_output_digest(self, tmp_path, capsys, functional, digest):
        path = tmp_path / "f.csv"
        argv = ["fixed-curve", "--weights", self.WEIGHTS, "--functional", functional]
        code, _, _ = run_cli([*argv, "--output", str(path)], capsys)
        assert code == 0
        data = path.read_bytes()
        assert data.count(b"\n") == 1 + 2 ** 11 * 12 > 1 + _TABLE_BLOCK
        assert hashlib.sha256(data).hexdigest() == digest


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_number_lists_match_arrays(self, capsys, fmt):
        # the closed forms write lists of Python numbers, the rest numpy
        # arrays; the bytes are the same
        args = argparse.Namespace(format=fmt, output=None)
        floats = [0.0, -0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1e22, 1e-5]
        ints = list(range(-3, len(floats) - 3))
        _write_table(args, ("x", "k"), [floats, ints])
        from_lists = capsys.readouterr().out
        _write_table(args, ("x", "k"), [np.array(floats), np.array(ints)])
        assert from_lists == capsys.readouterr().out

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
