"""Value sweep: the public evaluators on one seeded set of inputs, in two source trees.

    python tools/sweep.py --tree DIR [--parent DIR] [--seed S] [--calls N]

N calls per function are drawn from one generator seeded with S, and each
tree evaluates all of them in its own subprocess with PYTHONPATH=<tree>/src
and OPENBLAS_NUM_THREADS=1: OpenBLAS runs a dot product of more than 10,000
terms on every core, so a series past 10,000 phases would round by the
host's core count, and the two subprocesses, run side by side, would
oversubscribe the cores (a 40-call sweep took 12-47 s instead of 3-4 s on
2 cores).
With no --parent the tree is run twice, which checks that its values do not
depend on the process.  Each subprocess evaluates every call twice in a row,
which checks that a value does not depend on what the process has kept from
the call before.  Per function the report gives the calls, how many have the
same outcome in both trees (every value equal bit for bit, or the same
exception with the same message), the largest absolute and relative
difference between values, the calls that raise in both trees, those that
raise in one tree only, those that raise in both with different messages,
and those whose second outcome differs from the first in either tree.  The
last line of stdout is the report as one JSON object.  The exit status is 0
unless a subprocess fails.

The inputs cover equal mark rates (a fifth of the cumulative calls), slower
mark shapes 1-13, on both sides of the stage-sum route's bound, tail_epsilon
from 1e-14 to 1e-6, and a fifth of the scalar cumulative calls at a damage
level past the 10,240-term phase cap.  Failure-time curves stay at
mu_f K <= 2,000, where K is the threshold, to keep runs short.  Erlang
survival takes shapes log-uniform over 1 to 1e7 at x = shape e^U, U uniform
on (-8, 0.5), with a fifth of its calls past x = 700, and the Erlang CDF the
same shapes at U uniform on (-8, 0), below the shape, where it sums its own
tail.  Each of the two draws from a generator of its own, so each leaves
every other function's inputs as they were.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import pathlib
import random
import subprocess
import sys

FUNCTIONS = ("damage_cdf", "model2_fptf_mean", "model2_fptf_curve", "general_damage_cdf",
             "general_damage_mean", "mean_fptf", "survival_curve", "convolution_cdf",
             "erlang_survival", "erlang_cdf")
CAP = 10_240  # the phase cap of the cumulative series


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _erlang(shape: int, rate: float) -> dict:
    return {"type": "erlang", "shape": shape, "rate": rate}


def _marks(rng: random.Random, equal: bool) -> list[dict]:
    """An Erlang(1-13) mark at or below the rate of an Erlang(1-5) mark, in random order."""
    fast = _log_uniform(rng, 0.5, 5.0)
    slow = _erlang(rng.randint(1, 13), fast if equal else fast * _log_uniform(rng, 1e-3, 0.99))
    marks = [slow, _erlang(rng.randint(1, 5), fast)]
    rng.shuffle(marks)
    return marks


def _mean(dist: dict) -> float:
    """Mean of an exponential or Erlang dict, or the scale of a Weibull one."""
    return dist["scale"] if dist["type"] == "weibull" else dist.get("shape", 1) / dist["rate"]


def _level(rng: random.Random, past_cap: bool, largest: float = 300.0) -> float:
    """mu_f K: just past the phase cap, or log-uniform from 0.5 to largest."""
    return rng.uniform(CAP - 100, CAP + 500) if past_cap else _log_uniform(rng, 0.5, largest)


def _cumulative(rng: random.Random, equal: bool, level: float) -> tuple[dict, float]:
    """(model, t): Poisson arrivals with mu_f K = level; t puts the mean damage in [K/5, 2K]."""
    marks = _marks(rng, equal)
    rates = [_log_uniform(rng, 0.1, 10.0) for _ in range(2)]
    threshold = level / max(mark["rate"] for mark in marks)
    growth = sum(rate * _mean(mark) for rate, mark in zip(rates, marks))
    model = {"rate1": rates[0], "rate2": rates[1], "mag1": marks[0], "mag2": marks[1],
             "threshold": threshold}
    return model, threshold * _log_uniform(rng, 0.2, 2.0) / growth


def _general(rng: random.Random, equal: bool, level: float) -> tuple[dict, float]:
    """(model, t) as _cumulative, with Erlang(1-4) renewal arrivals."""
    model, _ = _cumulative(rng, equal, level)
    inters = [_erlang(rng.randint(1, 4), _log_uniform(rng, 0.1, 10.0)) for _ in range(2)]
    growth = sum(_mean(mark) / _mean(inter)
                 for inter, mark in zip(inters, (model["mag1"], model["mag2"])))
    t = model["threshold"] * _log_uniform(rng, 0.2, 2.0) / growth
    return {"inter1": inters[0], "inter2": inters[1], "mag1": model["mag1"],
            "mag2": model["mag2"], "threshold": model["threshold"]}, t


def _process(rng: random.Random) -> dict:
    """An exponential, Erlang (shape up to 13, or now and then up to 3,000) or Weibull law."""
    kind = rng.random()
    if kind < 0.2:
        return {"type": "exponential", "rate": _log_uniform(rng, 0.1, 10.0)}
    if kind < 0.8:
        shape = rng.randint(1, 13) if rng.random() < 0.9 else rng.randint(14, 3000)
        return _erlang(shape, _log_uniform(rng, 0.1, 10.0))
    return {"type": "weibull", "shape": _log_uniform(rng, 0.3, 5.0),
            "scale": _log_uniform(rng, 0.1, 10.0)}


def _catastrophic(rng: random.Random) -> dict:
    first = _process(rng)
    second = _process(rng)
    if first["type"] == second["type"] == "weibull" and rng.random() < 0.5:
        second["shape"] = first["shape"]  # the closed-form common-shape mean
    return {"proc1": first, "proc2": second}


def _times(scale: float) -> list[float]:
    return [scale * f for f in (0.0, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0)]


def _erlang_point(rng: random.Random, top: float, past_limit: bool = False) -> tuple[int, float]:
    """(shape, x): shape log-uniform over 1 to 1e7, x = shape e^U, U uniform on (-8, top).

    With past_limit the shape is drawn so that x is past 700.
    """
    u = rng.uniform(-8.0, top)
    low = math.ceil(700.0 * math.exp(-u)) + 1 if past_limit else 1
    shape = round(_log_uniform(rng, low, 1e7))
    return shape, shape * math.exp(u)


def make_calls(seed: int, calls: int) -> list[dict]:
    """calls inputs for each function in FUNCTIONS, from generators seeded with seed."""
    rng = random.Random(seed)
    erlang_rng = random.Random(f"{seed} erlang_survival")
    cdf_rng = random.Random(f"{seed} erlang_cdf")
    out = []
    for i in range(calls):
        equal, past_cap = i % 5 == 0, i % 5 == 1
        eps = _log_uniform(rng, 1e-14, 1e-6)
        model, t = _cumulative(rng, equal, _level(rng, past_cap))
        out.append({"fn": "damage_cdf", "model": model, "t": t, "x": model["threshold"],
                    "eps": eps})
        model, _ = _cumulative(rng, equal, _level(rng, past_cap))
        out.append({"fn": "model2_fptf_mean", "model": model, "eps": eps})
        model, t = _cumulative(rng, equal, _level(rng, False, 2000.0))
        out.append({"fn": "model2_fptf_curve", "model": model, "ts": _times(t), "eps": eps})
        model, t = _general(rng, equal, _level(rng, past_cap))
        out.append({"fn": "general_damage_cdf", "model": model, "t": t,
                    "x": model["threshold"], "eps": eps})
        model, t = _general(rng, equal, _level(rng, False))
        if past_cap:  # renewal counts past the cap in the first stream
            inter = model["inter1"]
            t = inter["shape"] * rng.uniform(CAP - 100, CAP + 500) / inter["rate"]
        out.append({"fn": "general_damage_mean", "model": model, "t": t, "eps": eps})
        model = _catastrophic(rng)
        out.append({"fn": "mean_fptf", "model": model})
        model = _catastrophic(rng)
        scale = min(_mean(model["proc1"]), _mean(model["proc2"]))
        out.append({"fn": "survival_curve", "model": model, "ts": _times(scale)})
        a, b = rng.randint(0, 13), rng.randint(0, 13)
        ra = _log_uniform(rng, 0.1, 10.0)
        rb = ra if equal else _log_uniform(rng, 0.1, 10.0)
        x = (a / ra + b / rb or 1.0) * _log_uniform(rng, 0.1, 3.0)
        out.append({"fn": "convolution_cdf", "product": [a, ra, b, rb], "x": x})
        shape, x = _erlang_point(erlang_rng, 0.5, i % 5 == 1)
        out.append({"fn": "erlang_survival", "shape": shape, "x": x})
        shape, x = _erlang_point(cdf_rng, 0.0)
        out.append({"fn": "erlang_cdf", "shape": shape, "x": x})
    return out


def _evaluate(call: dict) -> list[float]:
    """The values of one call in the twoshock on the path, as a flat list."""
    import twoshock as ts

    fn = call["fn"]
    if fn == "erlang_survival":
        return [ts.erlang_survival(call["shape"], call["x"])]
    if fn == "erlang_cdf":
        return [ts.erlang_cdf(call["shape"], call["x"])]
    if fn == "convolution_cdf":
        return [ts.convolution_cdf(ts.ErlangProduct(*call["product"]), call["x"])]
    model = {name: ts.distribution_from_dict(value) if isinstance(value, dict) else value
             for name, value in call["model"].items()}
    if fn == "mean_fptf":
        return [ts.mean_fptf(ts.CatastrophicModel(**model))]
    if fn == "survival_curve":
        return ts.survival_curve(ts.CatastrophicModel(**model), call["ts"]).tolist()
    policy = ts.TruncationPolicy(call["eps"])
    if fn == "general_damage_cdf":
        return [ts.general_damage_cdf(ts.GeneralCumulativeModel(**model), call["t"], call["x"],
                                      policy)]
    if fn == "general_damage_mean":
        return [ts.general_damage_mean(ts.GeneralCumulativeModel(**model), call["t"], policy)]
    model = ts.CumulativeModel(**model)
    if fn == "damage_cdf":
        return [ts.damage_cdf(model, call["t"], call["x"], policy)]
    if fn == "model2_fptf_mean":
        return [ts.model2_fptf_mean(model, policy)]
    return [value for array in ts.model2_fptf_curve(model, call["ts"], policy)
            for value in array.tolist()]


def _outcome(call: dict) -> dict:
    """{"values": [...]} of one call, or {"error": "<type>: <message>"} when it raises."""
    try:
        return {"values": _evaluate(call)}
    except Exception as exc:  # the outcome under comparison; the next call still runs
        return {"error": f"{type(exc).__name__}: {exc}"}


def evaluate_stdin() -> None:
    """Read calls as JSON on stdin; write the outcomes of two evaluations in a row per call."""
    import twoshock

    src = pathlib.Path(os.environ["PYTHONPATH"]).resolve()
    if pathlib.Path(twoshock.__file__).resolve().parent != src / "twoshock":
        sys.exit(f"twoshock was imported from {twoshock.__file__}, not from {src}")
    json.dump([[_outcome(call), _outcome(call)] for call in json.load(sys.stdin)], sys.stdout)


def _run(tree: pathlib.Path, calls: list[dict]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", "import sweep; sweep.evaluate_stdin()"],
                          input=json.dumps(calls), capture_output=True, text=True, env=env,
                          cwd=pathlib.Path(__file__).resolve().parent, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the run of {tree} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _difference(a: float, b: float) -> tuple[float, float]:
    """(absolute, relative) difference of two values that differ in their bits; inf at a nan."""
    gap = abs(a - b)
    if math.isnan(gap):
        return math.inf, math.inf
    size = max(abs(a), abs(b))
    return gap, gap / size if size else 0.0


def _same(a: dict, b: dict) -> bool:
    """Whether two outcomes are the same exception message, or values equal bit for bit."""
    if "error" in a or "error" in b:
        return a == b
    return [v.hex() for v in a["values"]] == [v.hex() for v in b["values"]]


def compare(calls: list[dict], tree: list[list[dict]], parent: list[list[dict]]) -> dict:
    """The per-function report of two runs' outcome pairs on the same calls.

    The first outcome of each pair is compared across the runs; repeat_changes
    counts the calls whose second outcome differs from their first in either run.
    """
    report = {fn: {"calls": 0, "identical": 0, "max_abs": 0.0, "max_rel": 0.0, "raised": 0,
                   "raise_one_side": 0, "message_changes": 0, "repeat_changes": 0}
              for fn in FUNCTIONS}
    for call, (got, got_again), (base, base_again) in zip(calls, tree, parent):
        row = report[call["fn"]]
        row["calls"] += 1
        row["identical"] += _same(got, base)
        row["repeat_changes"] += not (_same(got, got_again) and _same(base, base_again))
        if "error" in got or "error" in base:
            if "error" in got and "error" in base:
                row["raised"] += 1
                row["message_changes"] += got != base
            else:
                row["raise_one_side"] += 1
            continue
        ours, theirs = got["values"], base["values"]
        if len(ours) != len(theirs):
            row["max_abs"] = row["max_rel"] = math.inf
            continue
        for a, b in zip(ours, theirs):
            if a.hex() != b.hex():
                gap, rel = _difference(a, b)
                row["max_abs"], row["max_rel"] = max(row["max_abs"], gap), max(row["max_rel"], rel)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tree", type=pathlib.Path, required=True,
                        help="the source tree under test (its src/ is put on PYTHONPATH)")
    parser.add_argument("--parent", type=pathlib.Path,
                        help="the tree to compare against (default: the tree itself)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the input generator")
    parser.add_argument("--calls", type=int, default=100, help="calls per function")
    args = parser.parse_args(argv)
    trees = [args.tree.resolve(), (args.parent or args.tree).resolve()]
    calls = make_calls(args.seed, args.calls)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(_run, tree, calls) for tree in trees]
        try:
            outcomes = [run.result() for run in runs]
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    report = compare(calls, *outcomes)
    for fn, row in report.items():
        print(f"{fn:20} " + " ".join(f"{key}={value:.3g}" if isinstance(value, float)
                                     else f"{key}={value}" for key, value in row.items()))
    print(json.dumps({"seed": args.seed, "calls": args.calls, "functions": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
