"""CLI tests: parsing, report formats, exit codes, byte-stable output."""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys

import pytest

import twoshock
from twoshock import (catastrophic, cumulative, distributions, errors, gamma_convolution,
                      montecarlo, numerics)
from twoshock.catastrophic import survival_probability
from twoshock.cumulative import model2_fptf_curve, model2_fptf_mean
from twoshock.cli import _build_parser, _render, load_model_file, main, parse_grid, parse_points
from twoshock.numerics import QuadraturePolicy

CATASTROPHIC = {
    "kind": "catastrophic",
    "proc1": {"type": "exponential", "rate": 1.0},
    "proc2": {"type": "exponential", "rate": 2.0},
}
ERLANG_EXP = {
    "kind": "catastrophic",
    "proc1": {"type": "erlang", "shape": 2, "rate": 1.0},
    "proc2": {"type": "exponential", "rate": 1.0},
}
ERLANG_EXP2 = dict(ERLANG_EXP, proc2={"type": "exponential", "rate": 2.0})
CUMULATIVE = {
    "kind": "cumulative",
    "rate1": 1.0,
    "rate2": 1.0,
    "mag1": {"type": "exponential", "rate": 1.0},
    "mag2": {"type": "exponential", "rate": 1.0},
    "threshold": 3.0,
}
GENERAL = {
    "kind": "general_cumulative",
    "inter1": {"type": "erlang", "shape": 2, "rate": 1.0},
    "inter2": {"type": "erlang", "shape": 2, "rate": 1.0},
    "mag1": {"type": "exponential", "rate": 1.0},
    "mag2": {"type": "exponential", "rate": 1.0},
    "threshold": 2.0,
}
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


@pytest.fixture
def model_file(tmp_path):
    def write(obj, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


class TestGridParsing:
    def test_inclusive_uniform_grid(self):
        assert parse_grid("0:5:11") == pytest.approx(
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])

    def test_single_point_grid(self):
        assert parse_grid("2:2:1") == [2.0]
        with pytest.raises(ValueError, match="a single-step grid needs MIN == MAX"):
            parse_grid("1:2:1")

    @pytest.mark.parametrize("bad", ["0:5", "5:0:3", "-1:2:3", "0:5:0", "a:b:c", "1:1:2x",
                                     "0:inf:3", "nan:1:2"])
    def test_malformed_grid(self, bad):
        with pytest.raises(ValueError, match="grid"):
            parse_grid(bad)

    def test_points_list(self):
        assert parse_points("0.1,0.5,2") == [0.1, 0.5, 2.0]

    @pytest.mark.parametrize("bad", ["2,1", "1,1", "-1,2", "", "a,b", "1,nan", "nan", "1,inf"])
    def test_malformed_points(self, bad):
        with pytest.raises(ValueError, match="points"):
            parse_points(bad)


class TestModelFile:
    def test_catastrophic(self, model_file):
        mf = load_model_file(model_file(CATASTROPHIC))
        assert mf.kind == "catastrophic"
        assert mf.tail_epsilon == 1e-10
        assert mf.rel_tol == 1e-10

    def test_policies_override(self, model_file):
        obj = dict(CUMULATIVE, tail_epsilon=1e-8, rel_tol=1e-6)
        mf = load_model_file(model_file(obj))
        assert mf.tail_epsilon == 1e-8
        assert mf.rel_tol == 1e-6

    def test_unknown_field_rejected(self, model_file):
        with pytest.raises(ValueError, match="unknown fields"):
            load_model_file(model_file(dict(CATASTROPHIC, threshold=1.0)))

    def test_missing_threshold_rejected(self, model_file):
        obj = dict(CUMULATIVE)
        del obj["threshold"]
        with pytest.raises(ValueError, match="missing fields"):
            load_model_file(model_file(obj))

    def test_json_array_rejected(self, model_file):
        with pytest.raises(ValueError, match="must contain a JSON object"):
            load_model_file(model_file([CATASTROPHIC]))

    def test_unknown_kind_rejected(self, model_file):
        with pytest.raises(ValueError, match="unknown model kind"):
            load_model_file(model_file({"kind": "renewal"}))


class TestAnalyticCommands:
    def test_survival_csv(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CATASTROPHIC), "--grid", "0:5:11"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 12
        assert lines[1] == "0,1"
        t, v = lines[3].split(",")
        assert float(v) == pytest.approx(math.exp(-3.0 * float(t)), abs=1e-15)

    @pytest.mark.parametrize("procs", [
        ({"type": "erlang", "shape": 50, "rate": 19.27}, {"type": "erlang", "shape": 4, "rate": 2.0}),
        ({"type": "weibull", "shape": 0.8, "scale": 1.5}, {"type": "weibull", "shape": 0.8, "scale": 2.0}),
    ], ids=["erlang-erlang", "weibull-weibull"])
    def test_survival_grid_prints_the_per_point_values(self, model_file, capsys, procs):
        obj = {"kind": "catastrophic", "proc1": procs[0], "proc2": procs[1]}
        model = load_model_file(model_file(obj)).model
        grid = parse_grid("0:3:4001")
        expected = ["t,value", *("%.17g,%.17g" % (t, survival_probability(model, t))
                                 for t in grid)]
        rc = main(["survival", "--model", model_file(obj), "--grid", "0:3:4001"])
        assert rc == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_fptf_cdf_points(self, model_file, capsys):
        rc = main(["fptf-cdf", "--model", model_file(CATASTROPHIC),
                   "--points", "0.5,1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[0] == "0.5"
        assert float(lines[2].split(",")[1]) == pytest.approx(1 - math.exp(-3.0), abs=1e-15)

    def test_mean_fptf_single_value(self, model_file, capsys):
        rc = main(["mean-fptf", "--model", model_file(ERLANG_EXP)])
        assert rc == 0
        assert capsys.readouterr().out == "0.75\n"

    def test_mean_fptf_cumulative_is_model2_fptf_mean(self, model_file, capsys):
        path = model_file(CUMULATIVE)
        assert main(["mean-fptf", "--model", path]) == 0
        expected = model2_fptf_mean(load_model_file(path).model)
        assert capsys.readouterr().out == "%.17g\n" % expected

    def test_mean_fptf_general_kind_exits_one(self, model_file, capsys):
        assert main(["mean-fptf", "--model", model_file(GENERAL)]) == 1
        assert capsys.readouterr().err == ("error: mean-fptf needs a model of kind "
                                           "catastrophic or cumulative, got general_cumulative\n")

    def test_mean_fptf_tiny_weibull_shape(self, model_file, capsys):
        # Gamma(1 + 1/0.005) is past the double range: the Weibull mean is
        # infinite, the pair's mean is not.
        model = {"kind": "catastrophic",
                 "proc1": {"type": "erlang", "shape": 2, "rate": 1.0},
                 "proc2": {"type": "weibull", "shape": 0.005, "scale": 1.0}}
        rc = main(["mean-fptf", "--model", model_file(model)])
        assert rc == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.73604290516537, rel=1e-10)

    def test_mean_fptf_two_infinite_means_exits_two(self, model_file, capsys):
        model = {"kind": "catastrophic",
                 "proc1": {"type": "weibull", "shape": 0.005, "scale": 1.0},
                 "proc2": {"type": "weibull", "shape": 0.004, "scale": 1.0}}
        rc = main(["mean-fptf", "--model", model_file(model)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure in mean-fptf" in captured.err

    @pytest.mark.parametrize("fields", [{"threshold": 1e12},
                                        {"mag1": {"type": "exponential", "rate": 1e200},
                                         "threshold": 1e200}])
    def test_mean_fptf_cumulative_past_phase_cap_exits_two(self, model_file, capsys, fields):
        # mu_f K = 1e12 and mu_f K = inf (an overflowed product) both leave
        # out more than tail_epsilon of the mean.
        rc = main(["mean-fptf", "--model", model_file(dict(CUMULATIVE, **fields))])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numerical failure in mean-fptf: phase series")

    def test_damage_cdf_requires_x(self, model_file, capsys):
        rc = main(["damage-cdf", "--model", model_file(CUMULATIVE), "--grid", "0:2:3"])
        assert rc == 1
        assert "--x" in capsys.readouterr().err

    def test_damage_cdf_curve(self, model_file, capsys):
        rc = main(["damage-cdf", "--model", model_file(CUMULATIVE),
                   "--grid", "0:2:3", "--x", "2.0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0,1"
        assert 0.0 < float(lines[3].split(",")[1]) < 1.0

    def test_damage_mean_general_kind(self, model_file, capsys):
        rc = main(["damage-mean", "--model", model_file(GENERAL), "--points", "1,2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_fptf_model2_curve(self, model_file, capsys):
        rc = main(["fptf-model2", "--model", model_file(CUMULATIVE), "--grid", "0:4:5"])
        assert rc == 0
        values = [float(line.split(",")[1])
                  for line in capsys.readouterr().out.splitlines()[1:]]
        assert values[0] == 0.0
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("argv", [
        ["fptf-model2", "--grid", "0:5:201"],
        ["damage-cdf", "--grid", "0:5:201", "--x", "2.5"],
        ["compare", "--points", "0.5,1.5,2.5", "--reps", "2000", "--seed", "3", "--workers", "1"],
        ["compare", "--points", "0.5,1.5", "--x", "2.5", "--reps", "2000", "--seed", "3",
         "--workers", "1"]])
    def test_cumulative_curves_print_library_curve(self, model_file, capsys, argv):
        spec = dict(CUMULATIVE, mag1={"type": "erlang", "shape": 2, "rate": 2.0})
        rc = main([argv[0], "--model", model_file(spec), *argv[1:]])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        model = load_model_file(model_file(spec)).model
        if "--x" in argv:  # the damage CDF at x is the survival of the time it is passed
            x = float(argv[argv.index("--x") + 1])
            curve = model2_fptf_curve(dataclasses.replace(model, threshold=x),
                                      [float(row[0]) for row in rows])[1]
        else:
            curve = model2_fptf_curve(model, [float(row[0]) for row in rows])[0]
        assert [row[1] for row in rows] == ["%.17g" % value for value in curve]

    def test_fptf_model2_general_kind(self, model_file, capsys):
        rc = main(["fptf-model2", "--model", model_file(GENERAL), "--grid", "0:4:5"])
        assert rc == 0
        values = [float(line.split(",")[1])
                  for line in capsys.readouterr().out.splitlines()[1:]]
        assert values[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_fptf_model2_general_kind_long_horizon(self, model_file, capsys):
        # About 10,000 Erlang(2, 1) renewals per stream by t = 20,000: the
        # curve needs only as many counts as its phase series has terms.
        rc = main(["fptf-model2", "--model", model_file(GENERAL), "--points", "10,20000"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert 0.99 < float(lines[1].split(",")[1]) < 1.0
        assert lines[2] == "20000,1"

    # README marks with exponential arrivals: the law of the cumulative model below.
    POISSON_GENERAL = {"kind": "general_cumulative", "inter1": {"type": "exponential", "rate": 1.0},
                       "inter2": {"type": "exponential", "rate": 2.0},
                       "mag1": {"type": "erlang", "shape": 3, "rate": 2.0},
                       "mag2": {"type": "exponential", "rate": 1.0}, "threshold": 5.0}
    POISSON_CUMULATIVE = {"kind": "cumulative", "rate1": 1.0, "rate2": 2.0,
                          "mag1": POISSON_GENERAL["mag1"], "mag2": POISSON_GENERAL["mag2"],
                          "threshold": 5.0}

    @pytest.mark.parametrize("argv", [
        ["fptf-model2", "--points", "1e-6,0.001,0.1,1,4"],
        ["mean-fptf"],
        ["compare", "--points", "0.5,1.5,2.5", "--reps", "2000", "--seed", "3", "--workers", "1"]])
    def test_exponential_arrivals_take_the_cumulative_model(self, model_file, capsys, argv):
        outputs = []
        for spec in (self.POISSON_GENERAL, self.POISSON_CUMULATIVE):
            assert main([argv[0], "--model", model_file(spec), *argv[1:]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_exponential_arrivals_keep_early_failure_digits(self, model_file, capsys):
        # 1 - general_damage_cdf cancels at t = 1e-6 (1.5e-4 relative); the crossing curve does not.
        assert main(["fptf-model2", "--model", model_file(self.POISSON_GENERAL),
                     "--points", "1e-6"]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        model = load_model_file(model_file(self.POISSON_CUMULATIVE)).model
        assert value == pytest.approx(model2_fptf_curve(model, [1e-6])[0][0], rel=1e-12, abs=0)
        general = load_model_file(model_file(self.POISSON_GENERAL)).model
        cancelled = 1.0 - cumulative.general_damage_cdf(general, 1e-6, 5.0)
        assert abs(cancelled - value) > 1e-6 * value

    @pytest.mark.parametrize("spec,argv", [
        (GENERAL, ["fptf-model2", "--points", "0.5,1,2"]),
        (POISSON_GENERAL, ["damage-cdf", "--points", "0.5,1,2", "--x", "3"]),
        (POISSON_GENERAL, ["damage-mean", "--points", "0.5,1,2"])])
    def test_other_general_commands_stay_point_by_point(self, model_file, capsys, spec, argv):
        assert main([argv[0], "--model", model_file(spec), *argv[1:]]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        model = load_model_file(model_file(spec)).model
        ts = [float(row[0]) for row in rows]
        if argv[0] == "fptf-model2":
            expected = [1.0 - cumulative.general_damage_cdf(model, t, model.threshold) for t in ts]
        elif argv[0] == "damage-cdf":
            expected = [cumulative.general_damage_cdf(model, t, 3.0) for t in ts]
        else:
            expected = [cumulative.general_damage_mean(model, t) for t in ts]
        assert [row[1] for row in rows] == ["%.17g" % value for value in expected]

    def test_kind_mismatch_exits_one(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CUMULATIVE), "--grid", "0:1:2"])
        assert rc == 1
        assert "kind" in capsys.readouterr().err

    def test_weibull_power_past_double_range(self, model_file, capsys):
        # (1e100 / 1e-10) ** 3 overflows a double; the survival is 0.
        model = {"kind": "catastrophic",
                 "proc1": {"type": "exponential", "rate": 1.0},
                 "proc2": {"type": "weibull", "shape": 3.0, "scale": 1e-10}}
        rc = main(["survival", "--model", model_file(model), "--points", "1e100"])
        assert rc == 0
        assert capsys.readouterr().out == "t,value\n1e+100,0\n"

    def test_json_format(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:3", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"points", "model", "policies"}
        assert payload["points"][0] == {"t": 0.0, "value": 1.0}
        assert payload["model"]["kind"] == "catastrophic"
        assert payload["policies"] == {"tail_epsilon": 1e-10, "rel_tol": 1e-10}

    def test_json_policies_default_to_the_policy_classes(self, model_file, capsys):
        assert main(["damage-cdf", "--model", model_file(GENERAL), "--x", "1",
                     "--points", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == {"tail_epsilon": cumulative.TruncationPolicy().tail_epsilon,
                                       "rel_tol": QuadraturePolicy().rel_tol}

    def test_json_policies_echo_the_model_file(self, model_file, capsys):
        path = model_file(dict(CUMULATIVE, tail_epsilon=1e-8, rel_tol=1e-6))
        assert main(["mean-fptf", "--model", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policies"] == {"tail_epsilon": 1e-8, "rel_tol": 1e-6}
        policy = cumulative.TruncationPolicy(tail_epsilon=1e-8)
        assert payload["value"] == model2_fptf_mean(load_model_file(path).model, policy)

    @pytest.mark.parametrize("flag", ["--tail-epsilon", "--rel-tol"])
    def test_tolerance_flags_are_gone(self, model_file, capsys, flag):
        assert main(["fptf-model2", "--model", model_file(CUMULATIVE), "--points", "1",
                     flag, "1e-8"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSimulationCommands:
    def test_simulate_survival(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:3", "--reps", "20000", "--seed", "42"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,value"
        assert lines[1] == "0,1"

    def test_simulate_requires_seed(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:3", "--reps", "1000"])
        assert rc == 1
        assert "--seed" in capsys.readouterr().err

    def test_compare_table(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(CATASTROPHIC),
                   "--grid", "0.5:2:4", "--reps", "50000", "--seed", "42"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,analytic,estimate,std_error,z"
        assert len(lines) == 5
        for line in lines[1:]:
            t, analytic, estimate, std_error, z = map(float, line.split(","))
            assert abs(z) <= 4.5
            assert std_error > 0.0

    def test_compare_cumulative_crossing(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(CUMULATIVE),
                   "--points", "1,2,4", "--reps", "50000", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(abs(float(line.split(",")[4])) <= 4.5 for line in lines[1:])

    def test_compare_damage_level(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(CUMULATIVE),
                   "--points", "0.5,1", "--x", "2.0", "--reps", "50000", "--seed", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(abs(float(line.split(",")[4])) <= 4.5 for line in lines[1:])

    @pytest.mark.parametrize("obj, t", [(CUMULATIVE, "1e-6"), (ERLANG_EXP2, "8")])
    def test_compare_z_finite_where_ecdf_is_empty(self, model_file, capsys, obj, t):
        # No replication fails by t, so the estimate and its std_error are 0;
        # the score z uses the null variance and stays finite.
        rc = main(["compare", "--model", model_file(obj), "--points", t,
                   "--reps", "16384", "--seed", "1", "--workers", "1"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        _, analytic, estimate, std_error, z = map(float, row.split(","))
        assert 0.0 < analytic < 1e-6 and estimate == std_error == 0.0
        assert -1.0 < z < 0.0

    def test_compare_z_zero_where_survival_rounds_past_one(self, model_file, capsys):
        # Erlang(48, 1) survival at this t sums to 1 + 2^-52 before the clamp;
        # the rate-1e-300 exponential never fires, so every replication survives.
        obj = dict(ERLANG_EXP, proc1={"type": "erlang", "shape": 48, "rate": 1.0},
                   proc2={"type": "exponential", "rate": 1e-300})
        rc = main(["compare", "--model", model_file(obj), "--points", "0.2340773591197066",
                   "--reps", "16384", "--seed", "1", "--workers", "1"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1]
        _, analytic, estimate, std_error, z = map(float, row.split(","))
        assert analytic == estimate == 1.0 and std_error == 0.0
        assert z == 0.0

    def test_general_requires_x(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file(GENERAL),
                   "--points", "1", "--reps", "1000", "--seed", "3"])
        assert rc == 1
        assert "--x" in capsys.readouterr().err

    def test_general_compare_requires_x(self, model_file):
        proc = run_twoshock(["compare", "--model", model_file(GENERAL), "--points", "1",
                             "--reps", "1000", "--seed", "3"])
        assert_one_error_line(proc, "compare on a general_cumulative model requires --x")

    def test_x_rejected_for_catastrophic(self, model_file, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("--x is checked before any analytic or simulation work")

        monkeypatch.setattr(catastrophic, "survival_curve", fail)
        monkeypatch.setattr(montecarlo, "simulate_catastrophic", fail)
        for command in ("compare", "simulate"):
            rc = main([command, "--model", model_file(CATASTROPHIC),
                       "--points", "1", "--x", "2.0", "--reps", "1000", "--seed", "3"])
            assert rc == 1
            assert capsys.readouterr().err == (
                "error: --x is only meaningful for cumulative model kinds\n")

    def test_general_compare(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(GENERAL),
                   "--points", "1,2", "--x", "1.0", "--reps", "50000", "--seed", "9"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(abs(float(line.split(",")[4])) <= 4.5 for line in lines[1:])

    def test_simulator_extension_cap_exits_two(self, model_file, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_EXTENSION_ROUNDS", 0)
        rc = main(["compare", "--model", model_file(CUMULATIVE),
                   "--points", "1,2", "--reps", "1000", "--seed", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure in compare" in captured.err
        assert "extension cap" in captured.err

    def test_identical_invocations_identical_output(self, model_file, capsys):
        argv = ["compare", "--model", model_file(CATASTROPHIC),
                "--grid", "0.5:2:4", "--reps", "20000", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_workers_do_not_change_output(self, model_file, capsys):
        base = ["compare", "--model", model_file(CATASTROPHIC),
                "--grid", "0.5:2:4", "--reps", "50000", "--seed", "5"]
        assert main(base + ["--workers", "1"]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--workers", "4"]) == 0
        assert capsys.readouterr().out == first


class TestOutputFile:
    def test_out_file_written(self, model_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["survival", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:2", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().splitlines()[0] == "t,value"

    def test_failed_replace_keeps_old_report(self, model_file, tmp_path, capsys,
                                             monkeypatch):
        model = model_file(CATASTROPHIC)
        out = tmp_path / "report.csv"
        out.write_text("previous report\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        rc = main(["survival", "--model", model, "--grid", "0:1:2", "--out", str(out)])
        assert rc == 1
        assert "disk full" in capsys.readouterr().err
        assert out.read_text() == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "report.csv"]

    def test_no_partial_output_on_bad_model(self, model_file, tmp_path, capsys):
        bad = model_file({"kind": "catastrophic", "proc1": {"type": "nope"}},
                         name="bad.json")
        out = tmp_path / "report.csv"
        rc = main(["survival", "--model", bad, "--grid", "0:1:2", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["survival", "--model", str(path), "--grid", "0:1:2"])
        assert rc == 1
        assert capsys.readouterr().err != ""

    def test_missing_file_exits_one(self, capsys):
        rc = main(["survival", "--model", "/nonexistent/m.json", "--grid", "0:1:2"])
        assert rc == 1


def run_twoshock(argv: list) -> subprocess.CompletedProcess:
    """twoshock in a fresh process; a hang fails the test at the timeout."""
    return subprocess.run([sys.executable, "-m", "twoshock", *argv], capture_output=True,
                          text=True, timeout=30, env=SUBPROCESS_ENV)


def assert_one_error_line(proc: subprocess.CompletedProcess, start: str) -> None:
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {start}") and proc.stderr.count("\n") == 1


class TestBadParameters:
    """Parameters the model classes reject exit 1 with one error line, never a hang."""

    @pytest.mark.parametrize("argv", [
        ["damage-cdf", "--points", "1", "--x", "1"],
        ["fptf-model2", "--points", "1"],
        ["compare", "--points", "1", "--reps", "1000", "--seed", "1", "--workers", "1"],
    ])
    def test_infinite_rate_exits_one(self, tmp_path, argv):
        text = json.dumps(CUMULATIVE)
        assert '"rate1": 1.0' in text
        path = tmp_path / "model.json"
        path.write_text(text.replace('"rate1": 1.0', '"rate1": 1e400'))  # parses as inf
        assert_one_error_line(run_twoshock([*argv, "--model", str(path)]), "rate1 must be")

    def test_rate_past_double_range_exits_one(self, model_file):
        obj = dict(CATASTROPHIC, proc1={"type": "exponential", "rate": 10 ** 400})
        proc = run_twoshock(["survival", "--points", "1", "--model", model_file(obj)])
        assert_one_error_line(proc, "rate must be")

    def test_list_valued_kind_exits_one(self, model_file):
        proc = run_twoshock(["survival", "--points", "1",
                             "--model", model_file(dict(CATASTROPHIC, kind=["catastrophic"]))])
        assert_one_error_line(proc, "unknown model kind")

    @pytest.mark.parametrize("argv, value", [
        (["fptf-model2"], "1"),
        (["damage-cdf", "--x", "1"], "0"),
    ])
    def test_overflowing_poisson_mean_exits_zero(self, model_file, argv, value):
        # rate1 * t overflows to inf: the values are those of a huge finite mean.
        path = model_file(dict(CUMULATIVE, rate1=1e300))
        for t in ("1", "1e10"):
            proc = run_twoshock([*argv, "--points", t, "--model", path])
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout.splitlines()[1].split(",")[1] == value

    @pytest.mark.parametrize("obj, start", [
        (dict(CUMULATIVE, rate1=1e300), "rate1: a block of 100 replications"),
        (dict(GENERAL, inter1={"type": "erlang", "shape": 2, "rate": 1e300}),
         "inter1: a block of 100 replications"),
        # 1e17 arrivals pass numpy's Poisson limit, but their slots need 711 PiB.
        (dict(CUMULATIVE, rate1=1e15), "out of memory"),
    ])
    def test_undrawable_arrival_counts_exit_one(self, model_file, obj, start):
        proc = run_twoshock(["simulate", "--points", "1", "--x", "1", "--reps", "100",
                             "--seed", "1", "--model", model_file(obj)])
        assert_one_error_line(proc, start)

    def test_undrawable_crossing_index_exits_one(self, model_file):
        # Without --x a cumulative model simulates crossing times, whose
        # expected shock count is threshold / mean mark = 1e310 per replication.
        tiny = {"type": "exponential", "rate": 1e300}
        obj = dict(CUMULATIVE, mag1=tiny, mag2=tiny, threshold=1e10)
        proc = run_twoshock(["simulate", "--points", "1", "--reps", "100", "--seed", "1",
                             "--workers", "1", "--model", model_file(obj)])
        assert_one_error_line(proc, "threshold: a block of 100 replications")

    def test_nan_level_exits_one(self, model_file):
        proc = run_twoshock(["simulate", "--points", "1", "--x", "nan", "--reps", "100",
                             "--seed", "1", "--model", model_file(CUMULATIVE)])
        assert_one_error_line(proc, "ECDF argument x must be a number")

    def test_string_policy_field_exits_one(self, model_file, capsys):
        path = model_file(dict(CUMULATIVE, tail_epsilon="1e-8"))
        assert main(["fptf-model2", "--points", "1", "--model", path]) == 1
        assert "tail_epsilon" in capsys.readouterr().err


def as_floats(obj: dict) -> dict:
    """The model with every JSON integer but an Erlang shape written as a float."""
    return {key: as_floats(value) if isinstance(value, dict)
            else float(value) if isinstance(value, int) and not (
                key == "shape" and obj.get("type") == "erlang")
            else value
            for key, value in obj.items()}


class TestIntegerFields:
    """A model file with JSON integers prints what its float twin prints."""

    CATASTROPHIC_INT = {"kind": "catastrophic",
                        "proc1": {"type": "erlang", "shape": 2, "rate": 1},
                        "proc2": {"type": "weibull", "shape": 2, "scale": 3}}
    CUMULATIVE_INT = {"kind": "cumulative", "rate1": 1, "rate2": 2,
                      "mag1": {"type": "erlang", "shape": 3, "rate": 2},
                      "mag2": {"type": "exponential", "rate": 1}, "threshold": 5}
    SIM = ["--reps", "2000", "--seed", "3", "--workers", "1"]

    @pytest.mark.parametrize("obj, argv", [
        (CATASTROPHIC_INT, ["survival", "--grid", "0:4:9"]),
        (CATASTROPHIC_INT, ["mean-fptf"]),
        (CATASTROPHIC_INT, ["compare", "--points", "0.5,1", *SIM]),
        (CUMULATIVE_INT, ["fptf-model2", "--grid", "0:4:9"]),
        (CUMULATIVE_INT, ["damage-cdf", "--grid", "0:4:9", "--x", "2.5"]),
        (CUMULATIVE_INT, ["compare", "--points", "1,2", *SIM]),
    ])
    def test_same_bytes_as_float_twin(self, model_file, capsys, obj, argv):
        outputs = []
        for model in (obj, as_floats(obj)):
            assert main([*argv, "--model", model_file(model)]) == 0
            outputs.append(capsys.readouterr().out)
        assert json.dumps(obj) != json.dumps(as_floats(obj))
        assert outputs[0] == outputs[1]


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """The README's two model files and every twoshock line of its CLI block, as written."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    models = re.findall(r"```json\n(.*?)```", section, re.S)
    shell = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for name, text in zip(("cat.json", "cum.json"), models):
        (tmp_path / name).write_text(text)
    lines = [shlex.split(line, comments=True) for line in shell.splitlines()
             if line.startswith("twoshock ")]
    assert len(models) == 2 and len(lines) == 9
    for argv in lines:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if argv[1] == "mean-fptf":
            assert len(out) == 1 and math.isfinite(float(out[0])), argv
            continue
        spec = argv[argv.index("--grid") + 1] if "--grid" in argv else None
        points = parse_grid(spec) if spec else parse_points(argv[argv.index("--points") + 1])
        header = "t,analytic,estimate,std_error,z" if argv[1] == "compare" else "t,value"
        assert out[0] == header and len(out) == 1 + len(points), argv


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_grid_and_points_mutually_exclusive(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:2", "--points", "1,2"])
        assert rc == 1

    def test_grid_required(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CATASTROPHIC)])
        assert rc == 1

    def test_help_names_the_kinds_each_command_takes(self):
        text = " ".join(_build_parser().format_help().split())
        assert "survival survival probability curve (catastrophic models)" in text
        assert "mean-fptf mean failure time (catastrophic or cumulative models)" in text
        assert ("damage-cdf damage CDF curve at level --x "
                "(cumulative or general_cumulative models)") in text
        assert "compare analytic values vs Monte Carlo estimates options" in text


def test_import_loads_neither_mpmath_nor_scipy_stats():
    code = ("import sys, twoshock, twoshock.cli; "
            "print(sorted(m for m in ('mpmath', 'scipy', 'scipy.stats') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The package's exports before each module's __all__ became their one source.
EXPORTED = {
    "CatastrophicModel", "CumulativeModel", "Distribution", "EqualRatesError", "Erlang",
    "ErlangProduct", "Exponential", "GeneralCumulativeModel", "NonConvergedError",
    "PartialFractionExpansion", "QuadraturePolicy", "SimulationConfig", "SimulationEstimate",
    "TruncationPolicy", "UnsupportedConvolutionError", "Weibull",
    "compound_poisson_exponential_cdf", "convolution_cdf", "damage_cdf", "damage_mean",
    "distribution_from_dict", "distribution_to_dict", "expand", "fptf_cdf",
    "general_damage_cdf", "general_damage_mean", "mean_fptf", "mean_fptf_quadrature",
    "model2_fptf_cdf", "model2_fptf_curve", "model2_fptf_mean", "simulate_catastrophic",
    "simulate_cumulative", "simulate_fptf_cumulative", "simulate_general_cumulative",
    "survival_curve", "survival_probability",
}


def test_package_exports_every_module_all_and_names_none_itself():
    modules = [catastrophic, cumulative, distributions, errors, gamma_convolution, montecarlo,
               numerics]
    assert twoshock.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(twoshock.__all__)) == len(twoshock.__all__) == 42
    assert set(twoshock.__all__) == EXPORTED | {
        "erlang_survival", "erlang_cdf", "CatastrophicSimulation", "DamageSimulation",
        "FptfSimulation"}
    for module in modules:
        for name in module.__all__:
            assert getattr(twoshock, name) is getattr(module, name)
    bound: dict = {}
    exec("from twoshock import *", bound)
    assert bound.keys() - {"__builtins__"} == set(twoshock.__all__)
    init = ast.parse(pathlib.Path(twoshock.__file__).read_text(encoding="utf-8"))
    written = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    written |= {node.id for node in ast.walk(init) if isinstance(node, ast.Name)}
    written |= {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not written & set(twoshock.__all__)


def test_every_module_cache_is_bounded_or_takes_no_arguments():
    # A long-lived process calls the evaluators on ever new inputs, so a
    # cache keyed by them must evict; one of a function without arguments
    # (cli._build_parser) holds a single entry.
    caches = []
    for info in pkgutil.iter_modules(twoshock.__path__, "twoshock."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                caches.append(f"{info.name}.{name}")
                if value.cache_parameters()["maxsize"] is None:
                    assert not inspect.signature(value).parameters, f"{info.name}.{name}"
    assert {"twoshock.cli._build_parser", "twoshock.cumulative._erlang_cdf_terms"} <= set(caches)


class TestRepeatedCalls:
    """main(argv) builds its parser once per process and reuses it."""

    def test_calls_in_one_process_match_fresh_processes(self, model_file, capsys):
        weibull = {"kind": "catastrophic",
                   "proc1": {"type": "erlang", "shape": 2, "rate": 1.0},
                   "proc2": {"type": "weibull", "shape": 1.5, "scale": 2.0}}
        path = model_file(weibull)
        runs = [["survival", "--model", path],  # usage error: no grid
                ["survival", "--model", path, "--grid", "0:3:31"],
                ["mean-fptf", "--model", path, "--format", "json"]]
        for argv, code in zip(runs, (1, 0, 0)):
            assert main(argv) == code
            captured = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "twoshock", *argv],
                                   capture_output=True, text=True, timeout=120,
                                   env=SUBPROCESS_ENV)
            assert (fresh.returncode, fresh.stdout, fresh.stderr) == (
                code, captured.out, captured.err)

    @pytest.mark.parametrize("width", [2, 5])
    def test_csv_fields_are_format_17g(self, width):
        values = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300]
        columns = tuple(f"c{j}" for j in range(width))
        # Every value appears in every column.
        rows = [tuple(values[(i + j) % len(values)] for j in range(width))
                for i in range(len(values))]
        expected = [",".join(columns)]
        expected += [",".join(format(v, ".17g") for v in row) for row in rows]
        assert _render(rows, columns, "csv", None) == "\n".join(expected) + "\n"

    def test_parser_built_on_first_call_only(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import twoshock.cli\n"
                "at_import = len(built)\n"
                "twoshock.cli.main([])\n"
                "first = len(built)\n"
                "twoshock.cli.main(['frobnicate'])\n"
                "print(at_import, first, len(built))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        at_import, first, second = map(int, proc.stdout.split())
        assert at_import == 0
        assert first == second == 9  # the parser and its eight subcommands
