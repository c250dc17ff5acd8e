"""The value sweep of tools/sweep.py: its report, and the working tree against itself."""

import importlib.util
import json
import math
import pathlib
import subprocess
import sys

from twoshock.cumulative import _MAX_TERMS, _STAGE_SHAPE
from twoshock.distributions import _ARRAY_SHAPE, _SERIES_LIMIT, _poisson_reach

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP = ROOT / "tools" / "sweep.py"

_spec = importlib.util.spec_from_file_location("sweep", SWEEP)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def _twice(outcomes):
    """Each outcome as the pair of two evaluations in a row that agree."""
    return [[outcome, outcome] for outcome in outcomes]


def test_report_counts_each_kind_of_change():
    calls = [{"fn": "damage_cdf"}] * 6
    tree = [{"values": [0.5]}, {"values": [0.5]}, {"error": "E: a"}, {"error": "E: a"},
            {"error": "E: b"}, {"values": [math.nan]}]
    parent = [{"values": [0.5]}, {"values": [math.nextafter(0.5, 1.0)]}, {"error": "E: a"},
              {"values": [0.5]}, {"error": "E: c"}, {"values": [0.25]}]
    row = sweep.compare(calls, _twice(tree), _twice(parent))["damage_cdf"]
    assert row == {"calls": 6, "identical": 2, "max_abs": math.inf, "max_rel": math.inf,
                   "raised": 2, "raise_one_side": 1, "message_changes": 1, "repeat_changes": 0}
    row = sweep.compare(calls[:2], _twice(tree[:2]), _twice(parent[:2]))["damage_cdf"]
    assert (row["max_abs"], row["max_rel"]) == (2.0 ** -53, 2.0 ** -53 / math.nextafter(0.5, 1.0))


def test_report_counts_calls_whose_repeat_differs_in_either_tree():
    calls = [{"fn": "damage_cdf"}] * 5
    first = [{"values": [0.5]}, {"values": [math.nan]}, {"error": "E: a"}, {"values": [0.5]},
             {"values": [0.5]}]
    again = [{"values": [0.5]}, {"values": [math.nan]}, {"error": "E: b"},
             {"values": [math.nextafter(0.5, 1.0)]}, {"error": "E: a"}]
    tree = [list(pair) for pair in zip(first, again)]
    row = sweep.compare(calls, tree, _twice(first))["damage_cdf"]
    assert (row["identical"], row["repeat_changes"]) == (5, 3)
    assert sweep.compare(calls, _twice(first), tree)["damage_cdf"]["repeat_changes"] == 3


def test_inputs_cover_equal_rates_both_stage_routes_and_the_cap():
    calls = sweep.make_calls(1, 40)
    assert [call["fn"] for call in calls[:len(sweep.FUNCTIONS)]] == list(sweep.FUNCTIONS)
    models = [call["model"] for call in calls if call["fn"] == "damage_cdf"]
    rates = [model["mag1"]["rate"] == model["mag2"]["rate"] for model in models]
    assert sum(rates) >= 0.15 * len(models)
    slower = [min((model["mag1"], model["mag2"]), key=lambda mark: mark["rate"])["shape"]
              for model, equal in zip(models, rates) if not equal]
    assert min(slower) <= _STAGE_SHAPE < max(slower)
    levels = [model["threshold"] * max(model["mag1"]["rate"], model["mag2"]["rate"])
              for model in models]
    assert sweep.CAP == _MAX_TERMS
    assert sum(level > sweep.CAP for level in levels) >= 0.15 * len(models)
    eps = [call["eps"] for call in calls if "eps" in call]
    assert 1e-14 <= min(eps) < 1e-12 and 1e-8 < max(eps) <= 1e-6


def test_erlang_survival_inputs_cover_both_sides_of_the_exit_and_the_array_shape():
    calls = [call for call in sweep.make_calls(1, 100) if call["fn"] == "erlang_survival"]
    shapes = [call["shape"] for call in calls]
    assert 1 <= min(shapes) < _ARRAY_SHAPE and 1e6 < max(shapes) <= 1e7
    big = [call for call in calls if call["shape"] >= _ARRAY_SHAPE]
    exits = [call["x"] < call["shape"] and call["shape"] >= _poisson_reach(call["x"], 1)
             for call in big]
    assert 0.2 * len(big) < sum(exits) < len(big)
    for far in (False, True):  # on both sides of the exit beyond _SERIES_LIMIT too
        assert {exit for call, exit in zip(big, exits)
                if (call["x"] > _SERIES_LIMIT) == far} == {False, True}
    assert sum(call["x"] > _SERIES_LIMIT for call in calls) >= 0.2 * len(calls)


def test_erlang_survival_inputs_leave_the_other_inputs_unchanged(monkeypatch):
    def other_draws(rng, past_limit):
        rng.random()  # a draw the Erlang survival inputs did not make
        return 1, 1.0

    calls = sweep.make_calls(3, 20)
    monkeypatch.setattr(sweep, "_erlang_survival", other_draws)
    assert ([call for call in sweep.make_calls(3, 20) if call["fn"] != "erlang_survival"]
            == [call for call in calls if call["fn"] != "erlang_survival"])


def test_working_tree_against_itself_is_bit_identical():
    proc = subprocess.run([sys.executable, str(SWEEP), "--tree", str(ROOT), "--parent", str(ROOT),
                           "--calls", "40"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert list(report["functions"]) == list(sweep.FUNCTIONS)
    for fn, row in report["functions"].items():
        assert row["calls"] == row["identical"] == 40, fn
        assert row["raise_one_side"] == row["message_changes"] == row["repeat_changes"] == 0, fn
