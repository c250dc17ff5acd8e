"""Seeded workloads: input generation and execution against twoshock.

Each workload has three parts (the third lives in bench/checks.py):

* ``inputs(seed)`` builds plain JSON-able inputs.  The seed draws evaluation
  points and damage levels, jitters the rates of catastrophic models, and
  picks the Monte Carlo stream; it never changes the model families, the
  shapes or the number of calls, so every seed costs about the same.  Models
  use the twoshock JSON encoding.
* ``execute(ts, inputs, ledger)`` calls the public API of the ``twoshock``
  package passed in as ``ts``, through its modules, so a traced run can wrap
  the same module attributes the package itself calls through.
* ``checks.check(workload, inputs, ledger)`` compares every result with
  bench/oracles.py, which never imports twoshock.

Analytic work is single-threaded; only ``mc_oracle`` uses worker threads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time

import numpy as np

WORKLOADS = ("catastrophic", "damage_curves", "damage_levels", "mc_oracle")
_WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}

MC_REPS = 1_000_000
MC_REPS_CLI = 1 << 18  # mc_oracle: a session must be short enough to repeat five times
MC_REPS_SMALL = 1 << 14
# Simulations run fixed models at fixed points on one of MC_STREAMS master
# seeds, picked by the workload seed.  Every row must pass |z| <= 3.5, as in
# the acceptance suite; with a fresh stream for every seed, that per-row
# limit would fail a correct program on about one seed in a hundred.  The
# streams were checked once against the oracles.
MC_STREAMS = 4
_MC_SEED_BASE = 20_210_917


def _exp(rate: float) -> dict:
    return {"type": "exponential", "rate": rate}


def _erlang(shape: int, rate: float) -> dict:
    return {"type": "erlang", "shape": shape, "rate": rate}


def _weibull(shape: float, scale: float) -> dict:
    return {"type": "weibull", "shape": shape, "scale": scale}


class _Draw:
    """Seeded draws; every value is rounded so inputs print and compare exactly."""

    def __init__(self, workload: str, seed: int):
        self._rng = np.random.default_rng([seed, _WORKLOAD_IDS[workload]])
        self._stream = seed % MC_STREAMS

    def jitter(self, value: float, share: float) -> float:
        return round(value * (1.0 + share * (2.0 * self._rng.random() - 1.0)), 6)

    def stratified(self, lo: float, hi: float, n: int) -> list:
        """One uniform point in each of n equal strata of [lo, hi]."""
        width = (hi - lo) / n
        return [round(lo + (i + self._rng.random()) * width, 6) for i in range(n)]

    def mc_seed(self, k: int) -> int:
        """Master seed of the workload's k-th simulation on this seed's stream."""
        return _MC_SEED_BASE + 1000 * self._stream + k


def _mean(dist: dict) -> float:
    if dist["type"] == "exponential":
        return 1.0 / dist["rate"]
    if dist["type"] == "erlang":
        return dist["shape"] / dist["rate"]
    return dist["scale"] * math.gamma(1.0 + 1.0 / dist["shape"])


# --------------------------------------------------------------------------
# Ledger: timed calls and their results


class Ledger:
    """Results of one session, with time split by kind of work.

    kind is one of "curve" (analytic curve points), "mean" (scalar means),
    "mc" (Monte Carlo replications) or "other".  Every call counts as one
    attempted operation; a call that raises is recorded with its exception.
    """

    KINDS = ("curve", "mean", "mc", "other")

    def __init__(self):
        self.results = {}
        self.seconds = dict.fromkeys(self.KINDS, 0.0)
        self.points = 0
        self.reps = 0
        self.last_result = None

    def call(self, kind: str, key, fn, *args, points: int = 0, reps: int = 0):
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # recorded and judged by the check
            value = exc
        end = time.perf_counter()
        self.seconds[kind] += end - start
        self.last_result = time.monotonic()
        self.points += points
        self.reps += reps
        self.results[key] = value

    @property
    def attempted(self) -> int:
        return len(self.results)

    def digest(self) -> str:
        """Hash of every result, exact to the bit: a repeat of the seed must match it."""
        digest = hashlib.sha256()
        for key, value in self.results.items():
            digest.update(repr(key).encode())
            _feed(digest, value)
        return digest.hexdigest()


def _feed(digest, value) -> None:
    """Add a result to a digest: floats by repr, arrays by their bytes, records by field."""
    if isinstance(value, str):
        digest.update(value.encode())
    elif isinstance(value, np.ndarray):
        digest.update(repr((value.dtype.str, value.shape)).encode() + value.tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(digest, item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, BaseException):
        digest.update(f"{type(value).__name__}: {value}".encode())
    else:
        digest.update(repr(value).encode())


# --------------------------------------------------------------------------
# catastrophic: a design sweep over six model families

_FAMILIES = ("exp_exp", "erlang_exp", "erlang_equal", "erlang_unequal",
             "weibull_common", "erlang_weibull")
_MODELS_PER_FAMILY = 40
_CURVE_POINTS = 48


def _catastrophic_model(family: str, i: int, draw: _Draw) -> dict:
    """Model i of a family; shapes depend on i only, rates are jittered but for i = 0."""
    share = 0.1 if i else 0.0
    r1 = draw.jitter(0.5 + 0.04 * i, share)
    r2 = draw.jitter(2.0 - 0.03 * i, share)
    if family == "exp_exp":
        return {"proc1": _exp(r1), "proc2": _exp(r2)}
    if family == "erlang_exp":
        # i = 0 keeps the simulated model small; the sweep reaches shape 200.
        return {"proc1": _erlang(2 + (i * 37) % 199, round(r1 * (1 + i), 6)), "proc2": _exp(r2)}
    if family == "erlang_equal":
        m = 2 + i % 6
        return {"proc1": _erlang(m, r1), "proc2": _erlang(m, r2)}
    if family == "erlang_unequal":
        return {"proc1": _erlang(2 + i % 4, r1), "proc2": _erlang(6 + i % 5, r2)}
    alpha = round(0.6 + 0.05 * (i % 30), 6)
    if family == "weibull_common":
        return {"proc1": _weibull(alpha, 1.0 / r1), "proc2": _weibull(alpha, 1.0 / r2)}
    return {"proc1": _erlang(2 + i % 5, r1), "proc2": _weibull(alpha, 1.0 / r2)}


def _catastrophic_inputs(draw: _Draw) -> dict:
    models = []
    for family in _FAMILIES:
        for i in range(_MODELS_PER_FAMILY):
            model = _catastrophic_model(family, i, draw)
            horizon = 2.5 * min(_mean(model["proc1"]), _mean(model["proc2"]))
            entry = {"family": family, "model": model,
                     "grid": draw.stratified(0.0, horizon, _CURVE_POINTS)}
            if i == 0:
                entry["mc_grid"] = [round(0.3 * horizon, 6), round(0.7 * horizon, 6)]
                entry["mc_seed"] = draw.mc_seed(len(models))
            models.append(entry)
    return {"models": models}


def _catastrophic_execute(ts, inputs: dict, ledger: Ledger) -> None:
    for n, entry in enumerate(inputs["models"]):
        model = ts.catastrophic.CatastrophicModel(
            ts.distributions.distribution_from_dict(entry["model"]["proc1"]),
            ts.distributions.distribution_from_dict(entry["model"]["proc2"]))
        survival = ts.catastrophic.survival_probability
        for j, t in enumerate(entry["grid"]):
            ledger.call("curve", ("survival", n, j), survival, model, t, points=1)
        ledger.call("mean", ("mean", n), ts.catastrophic.mean_fptf, model)
        if "mc_grid" in entry:
            cfg = ts.montecarlo.SimulationConfig(
                replications=MC_REPS, master_seed=entry["mc_seed"], workers=1)
            ledger.call("mc", ("mc", n), ts.montecarlo.simulate_catastrophic,
                        model, cfg, entry["mc_grid"], reps=MC_REPS)


# --------------------------------------------------------------------------
# Cumulative models shared by the damage workloads


# Cumulative models have fixed rates: the quadrature in model2_fptf_mean
# doubles its horizon until the integrand is negligible, so a few percent on
# a rate can double the damage table it builds and swing mean_s twofold.
# The seed draws their evaluation points and damage levels instead.

# The README's model: unequal mark rates, one Erlang(3) mark.
_README = {"rate1": 1.0, "rate2": 2.0, "mag1": _erlang(3, 2.0), "mag2": _exp(1.0),
           "threshold": 5.0}
# The same model at a lower threshold: its mean builds a table about a
# sixth the cost of the one at threshold 5.
_README_LOW = dict(_README, threshold=2.0)
# Erlang(2) and exponential marks, at unequal and at equal mark rates.
_MIX = {"rate1": 0.5, "rate2": 1.5, "mag1": _erlang(2, 1.0), "mag2": _exp(2.0),
        "threshold": 4.0}
_MIX_EQUAL_RATES = dict(_MIX, mag2=_exp(1.0))


def _equal_exp(threshold: float = 3.0) -> dict:
    """Equal exponential marks: the two streams merge into one."""
    return {"rate1": 1.0, "rate2": 1.0, "mag1": _exp(1.0), "mag2": _exp(1.0),
            "threshold": threshold}


# Fixed model of the simulations in the damage workloads and mc_oracle.
_EQUAL_EXP_FIXED = _equal_exp()


def _cumulative(ts, model: dict):
    decode = ts.distributions.distribution_from_dict
    return ts.cumulative.CumulativeModel(
        model["rate1"], model["rate2"], decode(model["mag1"]), decode(model["mag2"]),
        threshold=model["threshold"])


def _general_cumulative(ts, model: dict):
    decode = ts.distributions.distribution_from_dict
    return ts.cumulative.GeneralCumulativeModel(
        decode(model["inter1"]), decode(model["inter2"]),
        decode(model["mag1"]), decode(model["mag2"]), threshold=model["threshold"])


# --------------------------------------------------------------------------
# damage_curves: read-heavy use of one damage level per model

_FPTF_POINTS = 100
_RENEWAL_POINTS = 40


def _damage_curves_inputs(draw: _Draw) -> dict:
    # The Erlang/Exp mix has equal mark rates: at unequal rates its mean alone
    # doubles the session (damage_levels evaluates it at unequal rates).
    models = []
    for name, model, t_max in (("readme", _README_LOW, 2.0), ("equal_exp", _equal_exp(), 5.0),
                               ("erlang_exp", _MIX_EQUAL_RATES, 5.0)):
        models.append({"name": name, "model": model,
                       "grid": draw.stratified(0.0, t_max, _FPTF_POINTS)})
    renewal = {"inter1": _erlang(2, 1.0), "inter2": _erlang(2, 1.0),
               "mag1": _exp(1.0), "mag2": _exp(1.0), "threshold": 2.0}
    return {"models": models,
            "renewal": {"model": renewal, "grid": draw.stratified(0.0, 4.0, _RENEWAL_POINTS)},
            "mc": {"model": _EQUAL_EXP_FIXED, "grid": [1.5, 2.5], "seed": draw.mc_seed(0)}}


def _damage_curves_execute(ts, inputs: dict, ledger: Ledger) -> None:
    built = [_cumulative(ts, entry["model"]) for entry in inputs["models"]]
    for n, (entry, model) in enumerate(zip(inputs["models"], built)):
        for j, t in enumerate(entry["grid"]):
            ledger.call("curve", ("fptf", n, j), ts.cumulative.model2_fptf_cdf,
                        model, t, points=1)
        ledger.call("mean", ("mean", n), ts.cumulative.model2_fptf_mean, model)
    renewal = _general_cumulative(ts, inputs["renewal"]["model"])
    level = inputs["renewal"]["model"]["threshold"]
    for j, t in enumerate(inputs["renewal"]["grid"]):
        ledger.call("curve", ("renewal", j), ts.cumulative.general_damage_cdf,
                    renewal, t, level, points=1)
    mc = inputs["mc"]
    cfg = ts.montecarlo.SimulationConfig(replications=MC_REPS_SMALL,
                                         master_seed=mc["seed"], workers=1)
    ledger.call("mc", "mc", ts.montecarlo.simulate_fptf_cumulative,
                _cumulative(ts, mc["model"]), cfg, reps=MC_REPS_SMALL)


# --------------------------------------------------------------------------
# damage_levels: write-heavy use, a fresh damage level on every call


def _damage_levels_inputs(draw: _Draw) -> dict:
    pairs = []
    # Levels are stratified: uniform draws swing the cost of cold levels.  On
    # the unequal-rate models a level below about 2.5 builds its table several
    # times faster than one above, so their levels start there.
    for model, t, n_levels, x_min, x_max in ((_README, 0.5, 2, 3.0, 7.0),
                                             (_MIX, 1.0, 4, 3.0, 8.0),
                                             (_equal_exp(), 2.0, 40, 0.5, 10.0)):
        pairs.append({"model": model, "t": t,
                      "levels": draw.stratified(x_min, x_max, n_levels)})
    fast = draw.jitter(200.0, 0.02)
    return {
        "pairs": pairs,
        # Both shapes >= 100: the arbitrary-precision route.
        "wide": {"a": 120, "ra": 1.0, "b": 120, "rb": 1.3,
                 "x": draw.stratified(190.0, 200.0, 1)[0]},
        # Hundreds of Poisson terms on one axis, equal mark rates.
        "long_series": {"model": {"rate1": fast, "rate2": 1.0, "mag1": _exp(1.0),
                                  "mag2": _exp(1.0), "threshold": 250.0},
                        "t": 1.0, "x": draw.stratified(190.0, 210.0, 1)[0]},
        # Documented in-range input with Poisson mean > 745: one fast stream,
        # equal mark rates, so a fixed kernel evaluates it cheaply.
        "edge": {"model": {"rate1": draw.jitter(800.0, 0.01), "rate2": 0.5,
                           "mag1": _exp(1.0), "mag2": _exp(1.0), "threshold": 900.0},
                 "t": 1.0, "x": 800.0},
        "mean_models": [_equal_exp(threshold) for threshold in (3.5, 4.5, 5.5)],
        "mc": {"model": _EQUAL_EXP_FIXED, "grid": [0.5, 1.0, 2.0], "seed": draw.mc_seed(0)},
    }


def _damage_levels_execute(ts, inputs: dict, ledger: Ledger) -> None:
    for n, pair in enumerate(inputs["pairs"]):
        model = _cumulative(ts, pair["model"])
        for j, x in enumerate(pair["levels"]):
            ledger.call("curve", ("level", n, j), ts.cumulative.damage_cdf,
                        model, pair["t"], x, points=1)
    wide = inputs["wide"]
    product = ts.gamma_convolution.ErlangProduct(wide["a"], wide["ra"], wide["b"], wide["rb"])
    ledger.call("other", "wide", ts.gamma_convolution.convolution_cdf, product, wide["x"])
    long_series = inputs["long_series"]
    ledger.call("curve", "long_series", ts.cumulative.damage_cdf,
                _cumulative(ts, long_series["model"]), long_series["t"],
                long_series["x"], points=1)
    edge = inputs["edge"]
    ledger.call("other", "edge", ts.cumulative.damage_cdf,
                _cumulative(ts, edge["model"]), edge["t"], edge["x"])
    for n, model in enumerate(inputs["mean_models"]):
        ledger.call("mean", ("mean", n), ts.cumulative.model2_fptf_mean, _cumulative(ts, model))
    mc = inputs["mc"]
    cfg = ts.montecarlo.SimulationConfig(replications=MC_REPS_SMALL,
                                         master_seed=mc["seed"], workers=1)
    ledger.call("mc", "mc", ts.montecarlo.simulate_cumulative,
                _cumulative(ts, mc["model"]), mc["grid"], cfg, reps=MC_REPS_SMALL)


# --------------------------------------------------------------------------
# mc_oracle: the command line, Monte Carlo at a million replications

_MC_WORKERS = 2
_MC_ORACLE_CURVES = 4
_MC_ORACLE_MEANS = 24


def _mc_oracle_inputs(draw: _Draw) -> dict:
    curves = [{"proc1": _erlang(2, 1.0), "proc2": _exp(2.0)},
              {"proc1": _erlang(20, draw.jitter(8.0, 0.05)), "proc2": _weibull(1.5, 2.0)},
              {"proc1": _erlang(50, draw.jitter(20.0, 0.05)), "proc2": _erlang(4, 2.0)},
              {"proc1": _weibull(0.8, draw.jitter(1.5, 0.05)), "proc2": _weibull(0.8, 2.0)}]
    means = []  # fixed rates: quadrature cost jumps with them (see _README)
    for i in range(_MC_ORACLE_MEANS):
        r1, r2 = round(1.0 + 0.1 * i, 6), round(2.0 - 0.05 * i, 6)
        means.append([{"proc1": _erlang(3, r1), "proc2": _erlang(5 + i % 3, r2)},
                      {"proc1": _erlang(2 + i % 4, r1), "proc2": _erlang(2 + i % 4, r2)},
                      {"proc1": _erlang(2 + i % 3, r1), "proc2": _weibull(1.5, 1.0 / r2)}][i % 3])
    models = {"cumulative": dict(_EQUAL_EXP_FIXED, kind="cumulative")}
    models.update({f"curve{i}": dict(m, kind="catastrophic") for i, m in enumerate(curves)})
    models.update({f"mean{i}": dict(m, kind="catastrophic") for i, m in enumerate(means)})
    return {
        "models": models,
        "survival_grid": "0:3:4001",
        "fptf_grid": "0:5:201",
        "crossing_points": [1.5, 2.5, 3.5],
        "damage_points": [0.5, 1.5, 2.5],
        "damage_x": 2.0,
        "catastrophic_points": [0.3, 0.8, 1.5],
        "seed": draw.mc_seed(0),
        "workers": _MC_WORKERS,
    }


def _points_arg(points: list) -> str:
    return ",".join(repr(p) for p in points)


def _grid_size(grid: str) -> int:
    return int(grid.split(":")[2])


def mc_oracle_commands(inputs: dict, paths: dict) -> list:
    """(kind, key, argv, points, reps) for every command of the session."""
    sim = ["--reps", str(MC_REPS_CLI), "--seed", str(inputs["seed"]),
           "--workers", str(min(inputs["workers"], len(os.sched_getaffinity(0))))]
    cum, cat = paths["cumulative"], paths["curve0"]
    survival = [("curve", f"curve{i}", ["survival", "--model", paths[f"curve{i}"],
                                        "--grid", inputs["survival_grid"]],
                 _grid_size(inputs["survival_grid"]), 0)
                for i in range(_MC_ORACLE_CURVES)]
    means = [("mean", f"mean{i}", ["mean-fptf", "--model", paths[f"mean{i}"]], 0, 0)
             for i in range(_MC_ORACLE_MEANS)]
    light = [
        *survival,
        ("curve", "fptf", ["fptf-model2", "--model", cum, "--grid", inputs["fptf_grid"]],
         _grid_size(inputs["fptf_grid"]), 0),
        *means,
    ]
    compares = [
        ("mc", "crossing", ["compare", "--model", cum, "--points",
                            _points_arg(inputs["crossing_points"]), *sim], 0, MC_REPS_CLI),
        ("mc", "damage", ["compare", "--model", cum, "--points",
                          _points_arg(inputs["damage_points"]), "--x",
                          repr(inputs["damage_x"]), *sim], 0, MC_REPS_CLI),
        ("mc", "catastrophic", ["compare", "--model", cat, "--points",
                                _points_arg(inputs["catastrophic_points"]), *sim], 0, MC_REPS_CLI),
    ]
    # The short commands are spread between the simulations, so that the
    # host's slow and fast spells, which last a second or more, fall on the
    # short commands and the simulations alike.
    commands = []
    for i, compare in enumerate(compares):
        commands += [*light[i::4], compare]
    return commands + light[3::4]


def _run_cli(main, argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"twoshock {argv[0]} exited with {code}")
    return out.getvalue()


def _mc_oracle_execute(ts, inputs: dict, ledger: Ledger, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = {}
        for name, model in inputs["models"].items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(model, fh)
        for kind, key, argv, points, reps in mc_oracle_commands(inputs, paths):
            ledger.call(kind, key, _run_cli, ts.cli.main, argv, points=points, reps=reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --------------------------------------------------------------------------

_INPUTS = {"catastrophic": _catastrophic_inputs, "damage_curves": _damage_curves_inputs,
           "damage_levels": _damage_levels_inputs, "mc_oracle": _mc_oracle_inputs}


def inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for this seed; the same seed gives the same inputs."""
    return _INPUTS[workload](_Draw(workload, seed))


def execute(ts, workload: str, data: dict, ledger: Ledger, workdir: str) -> None:
    if workload == "catastrophic":
        _catastrophic_execute(ts, data, ledger)
    elif workload == "damage_curves":
        _damage_curves_execute(ts, data, ledger)
    elif workload == "damage_levels":
        _damage_levels_execute(ts, data, ledger)
    else:
        _mc_oracle_execute(ts, data, ledger, workdir)
