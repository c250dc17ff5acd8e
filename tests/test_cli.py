"""CLI tests: parsing, report formats, exit codes, byte-stable output."""

import json
import math
import os
import subprocess
import sys

import pytest

from twoshock.cli import load_model_file, main, parse_grid, parse_points

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

    @pytest.mark.parametrize("bad", ["0:5", "5:0:3", "-1:2:3", "0:5:0", "a:b:c", "1:1:2x"])
    def test_malformed_grid(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_points_list(self):
        assert parse_points("0.1,0.5,2") == [0.1, 0.5, 2.0]

    @pytest.mark.parametrize("bad", ["2,1", "1,1", "-1,2", "", "a,b"])
    def test_malformed_points(self, bad):
        with pytest.raises(ValueError):
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

    def test_fptf_model2_general_kind(self, model_file, capsys):
        rc = main(["fptf-model2", "--model", model_file(GENERAL), "--grid", "0:4:5"])
        assert rc == 0
        values = [float(line.split(",")[1])
                  for line in capsys.readouterr().out.splitlines()[1:]]
        assert values[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_kind_mismatch_exits_one(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CUMULATIVE), "--grid", "0:1:2"])
        assert rc == 1
        assert "kind" in capsys.readouterr().err

    def test_json_format(self, model_file, capsys):
        rc = main(["survival", "--model", model_file(CATASTROPHIC),
                   "--grid", "0:1:3", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"points", "model", "policies"}
        assert payload["points"][0] == {"t": 0.0, "value": 1.0}
        assert payload["model"]["kind"] == "catastrophic"
        assert payload["policies"] == {"tail_epsilon": 1e-10, "rel_tol": 1e-10}


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

    def test_general_requires_x(self, model_file, capsys):
        rc = main(["simulate", "--model", model_file(GENERAL),
                   "--points", "1", "--reps", "1000", "--seed", "3"])
        assert rc == 1
        assert "--x" in capsys.readouterr().err

    def test_x_rejected_for_catastrophic(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(CATASTROPHIC),
                   "--points", "1", "--x", "2.0", "--reps", "1000", "--seed", "3"])
        assert rc == 1
        assert "--x" in capsys.readouterr().err

    def test_general_compare(self, model_file, capsys):
        rc = main(["compare", "--model", model_file(GENERAL),
                   "--points", "1,2", "--x", "1.0", "--reps", "50000", "--seed", "9"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(abs(float(line.split(",")[4])) <= 4.5 for line in lines[1:])

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


def test_import_loads_neither_mpmath_nor_scipy_stats():
    code = ("import sys, twoshock, twoshock.cli; "
            "print(sorted(m for m in ('mpmath', 'scipy.stats') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
