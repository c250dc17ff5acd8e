"""Command-line front end: evaluate model quantities on grids, simulate, compare.

Exit codes: 0 success, 1 usage, model-validation or file failure, 2 numerical
failure (non-convergence), with the offending quantity named on standard
error.  Reports go to standard output or --out; all diagnostics go to
standard error.  A fixed invocation produces byte-identical
output (numbers are written with 17 significant digits).

Each analytic command takes the model kinds _ANALYTIC lists for it, and
its help names them.  mean-fptf and fptf-model2 also take a
general_cumulative model whose interarrivals are both exponential: its
arrivals are Poisson, so they evaluate the cumulative model of the same law.
simulate and compare estimate the curve _quantity picks from the model and
--x; without --x that is the failure-time CDF of a model mean-fptf takes.
The model file's tail_epsilon and rel_tol fields are the only tolerances.

Curves use a grid function where the kind has one: fptf-model2 and
damage-cdf on cumulative models take one crossing-index sequence
(cumulative.model2_fptf_curve), and survival takes one array pass
(catastrophic.survival_curve, bit for bit survival_probability).  The rest
go point by point: general_cumulative models through general_damage_cdf,
and fptf-cdf because F1 + S1 F2 needs the cancellation-free Erlang CDF series.

main(argv) may be called repeatedly in one process.  The argument parser is
built on the first call and reused by every later one, so the --workers
default (the CPU count) is computed once per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import catastrophic, cumulative, montecarlo
from .distributions import Erlang, _check_positive, _require_keys, distribution_from_dict
from .errors import NonConvergedError
from .numerics import QuadraturePolicy

_MODEL_KINDS = {"catastrophic": catastrophic.CatastrophicModel,
                "cumulative": cumulative.CumulativeModel,
                "general_cumulative": cumulative.GeneralCumulativeModel}
_POLICY_DEFAULTS = {"tail_epsilon": cumulative.TruncationPolicy.tail_epsilon,
                    "rel_tol": QuadraturePolicy.rel_tol}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class ModelFile:
    kind: str
    model: object
    tail_epsilon: float
    rel_tol: float
    raw: dict


def load_model_file(path: str) -> ModelFile:
    """Parse a model JSON file: exactly the fields of the model class its kind names.

    Distribution fields are decoded; all values are checked by the classes.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("model file must contain a JSON object")
    kind = obj.get("kind")
    model_class = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if model_class is None:
        raise ValueError(f"unknown model kind: {kind!r}")
    fields = dataclasses.fields(model_class)
    _require_keys(obj, {"kind", *(field.name for field in fields)}, f"{kind} model",
                  _POLICY_DEFAULTS.keys())
    # the model modules postpone annotations, so a field's type is its name
    model = model_class(**{field.name: distribution_from_dict(obj[field.name])
                           if field.type == "Distribution" else obj[field.name]
                           for field in fields})
    policies = {name: obj.get(name, default) for name, default in _POLICY_DEFAULTS.items()}
    for name, value in policies.items():
        _check_positive(value, name)  # the policy classes then check the range
    return ModelFile(kind=kind, model=model, raw=obj, **policies)


def parse_grid(text: str) -> list:
    """Inclusive uniform grid MIN:MAX:STEPS."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be MIN:MAX:STEPS, got {text!r}")
    try:
        t_min, t_max, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be MIN:MAX:STEPS with numeric fields, got {text!r}") from None
    if not 0 <= t_min <= t_max < math.inf or steps < 1:
        raise ValueError(f"grid requires 0 <= MIN <= MAX < inf and STEPS >= 1, got {text!r}")
    if steps == 1:
        if t_min != t_max:
            raise ValueError("a single-step grid needs MIN == MAX")
        return [t_min]
    h = (t_max - t_min) / (steps - 1)
    points = [t_min + i * h for i in range(steps - 1)]
    points.append(t_max)
    return points


def parse_points(text: str) -> list:
    try:
        points = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise ValueError(f"points must be a comma-separated number list, got {text!r}") from None
    if not points:
        raise ValueError("points list is empty")
    if not all(0 <= p < math.inf for p in points) \
            or any(b <= a for a, b in zip(points, points[1:])):
        raise ValueError("points must be finite, nonnegative and strictly increasing")
    return points


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="twoshock",
                     description="Two-shock-process reliability models: "
                                 "analytic curves, simulation, comparison.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, grid=True, x=None, sim=False):
        if name in _ANALYTIC:
            help_text += f" ({' or '.join(_ANALYTIC[name])} models)"
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        if grid:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--grid", help="MIN:MAX:STEPS inclusive uniform grid")
            g.add_argument("--points", help="comma-separated evaluation points")
        if x:
            p.add_argument("--x", type=float, required=x == "required",
                           help="damage level for CDF evaluation")
        if sim:
            p.add_argument("--reps", type=int, required=True, help="replication count")
            p.add_argument("--seed", type=int, required=True, help="master seed")
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="worker count (never affects output values)")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    add("survival", "survival probability curve")
    add("fptf-cdf", "failure-time CDF curve")
    add("mean-fptf", "mean failure time", grid=False)
    add("damage-cdf", "damage CDF curve at level --x", x="required")
    add("damage-mean", "mean damage curve")
    add("fptf-model2", "failure-time CDF curve")
    add("simulate", "Monte Carlo estimates on a grid", x="optional", sim=True)
    add("compare", "analytic values vs Monte Carlo estimates", x="optional", sim=True)
    return parser


# Analytic command -> {model kind: f(model, grid, x, truncation, quadrature)}: what it prints,
# a list over the grid or mean-fptf's one number.  A command takes exactly the kinds it lists.
# Each library function is looked up in its module at call time, where a wrapper may replace it.
_ANALYTIC = {
    "survival": {
        "catastrophic": lambda m, ts, x, trunc, quad: catastrophic.survival_curve(m, ts).tolist()},
    "fptf-cdf": {
        "catastrophic": lambda m, ts, x, trunc, quad: [catastrophic.fptf_cdf(m, t) for t in ts]},
    "mean-fptf": {
        "catastrophic": lambda m, ts, x, trunc, quad: catastrophic.mean_fptf(m, quad),
        "cumulative": lambda m, ts, x, trunc, quad: cumulative.model2_fptf_mean(m, trunc)},
    "damage-cdf": {
        "cumulative": lambda m, ts, x, trunc, quad:
            cumulative._crossing_curve(m, x, ts, trunc)[1].tolist(),
        "general_cumulative": lambda m, ts, x, trunc, quad:
            [cumulative.general_damage_cdf(m, t, x, trunc) for t in ts]},
    "damage-mean": {
        "cumulative": lambda m, ts, x, trunc, quad: [cumulative.damage_mean(m, t) for t in ts],
        "general_cumulative": lambda m, ts, x, trunc, quad:
            [cumulative.general_damage_mean(m, t, trunc) for t in ts]},
    "fptf-model2": {
        "cumulative": lambda m, ts, x, trunc, quad:
            cumulative.model2_fptf_curve(m, ts, trunc)[0].tolist(),
        "general_cumulative": lambda m, ts, x, trunc, quad:
            [1.0 - cumulative.general_damage_cdf(m, t, m.threshold, trunc) for t in ts]},
}
# Commands that evaluate a general_cumulative model with exponential
# interarrivals as the cumulative model of the same law (_analytic_model).
_POISSON_EQUIVALENT = ("mean-fptf", "fptf-model2")


def _analytic_model(mf: ModelFile, quantity: str) -> tuple[str, object]:
    """(kind, model) that _ANALYTIC evaluates for the quantity.

    A general_cumulative model whose interarrivals are both exponential (Erlang
    of shape 1) has Poisson arrivals: for a _POISSON_EQUIVALENT quantity it is
    the cumulative model with those rates.  Any other model is the file's own.
    """
    model = mf.model
    if mf.kind == "general_cumulative" and quantity in _POISSON_EQUIVALENT:
        inter1, inter2 = model.inter1, model.inter2
        if all(isinstance(inter, Erlang) and inter.shape == 1 for inter in (inter1, inter2)):
            return "cumulative", cumulative.CumulativeModel(
                inter1.rate, inter2.rate, model.mag1, model.mag2, model.threshold)
    return mf.kind, model


def _quantity(command: str, mf: ModelFile, x) -> str:
    """The analytic command whose curve simulate and compare estimate for this model and --x."""
    if mf.kind == "catastrophic":
        if x is not None:
            raise ValueError("--x is only meaningful for cumulative model kinds")
        return "survival"
    if x is not None:
        return "damage-cdf"
    if _analytic_model(mf, "fptf-model2")[0] == "cumulative":
        return "fptf-model2"
    raise ValueError(f"{command} on a {mf.kind} model requires --x")


def _simulation_estimates(quantity: str, kind: str, model, args, grid: list) -> list:
    """Monte Carlo estimates of the quantity _quantity chose, one per grid time."""
    cfg = montecarlo.SimulationConfig(args.reps, args.seed, workers=args.workers)
    if quantity == "survival":
        return list(montecarlo.simulate_catastrophic(model, cfg, grid).survival)
    if quantity == "fptf-model2":
        sim = montecarlo.simulate_fptf_cumulative(model, cfg)
        return [sim.ecdf(t) for t in grid]
    simulate = (montecarlo.simulate_cumulative if kind == "cumulative"
                else montecarlo.simulate_general_cumulative)
    sim = simulate(model, grid, cfg)
    return [sim.ecdf(i, args.x) for i in range(len(grid))]


def _zscore(analytic: float, estimate: float, n: int) -> float:
    """Score z of a proportion of n against p0 = analytic (Wilson 1927).

    The variance is the null one, p0 (1 - p0) / n, so an ECDF of 0 or n has a
    finite z wherever 0 < p0 < 1.
    """
    diff = estimate - analytic
    if not 0.0 < analytic < 1.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / math.sqrt(analytic * (1.0 - analytic)) * math.sqrt(n)


def _render(rows, columns, fmt: str, mf: ModelFile) -> str:
    """rows (tuples in column order) as CSV or JSON; with columns None, rows is one value.

    "%.17g" writes what format(v, ".17g") does; JSON adds the model and its policies.
    """
    if fmt == "csv":
        if columns is None:
            return "%.17g\n" % rows
        template = ",".join(["%.17g"] * len(columns))
        return "\n".join([",".join(columns), *(template % row for row in rows)]) + "\n"
    payload = {"value": rows} if columns is None else {
        "points": [dict(zip(columns, row)) for row in rows]}
    payload.update(model=mf.raw,
                   policies={"tail_epsilon": mf.tail_epsilon, "rel_tol": mf.rel_tol})
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _dispatch(args) -> str:
    mf = load_model_file(args.model)
    trunc = cumulative.TruncationPolicy(tail_epsilon=mf.tail_epsilon)
    quad = QuadraturePolicy(rel_tol=mf.rel_tol)
    x = getattr(args, "x", None)
    simulated = args.command in ("simulate", "compare")
    quantity = _quantity(args.command, mf, x) if simulated else args.command
    kinds = _ANALYTIC[quantity]
    kind, model = _analytic_model(mf, quantity)
    if kind not in kinds:
        raise ValueError(f"{args.command} needs a model of kind {' or '.join(kinds)}, "
                         f"got {kind}")
    evaluate = kinds[kind]
    if args.command == "mean-fptf":
        return _render(evaluate(model, None, None, trunc, quad), None, args.format, mf)

    grid = parse_grid(args.grid) if args.grid is not None else parse_points(args.points)
    if args.command == "simulate":
        estimates = _simulation_estimates(quantity, kind, model, args, grid)
        return _render([(t, e.mean) for t, e in zip(grid, estimates)], ("t", "value"),
                       args.format, mf)
    analytic = evaluate(model, grid, x, trunc, quad)
    if args.command == "compare":
        estimates = _simulation_estimates(quantity, kind, model, args, grid)
        rows = [(t, a, e.mean, e.std_error, _zscore(a, e.mean, e.n))
                for t, a, e in zip(grid, analytic, estimates)]
        return _render(rows, ("t", "analytic", "estimate", "std_error", "z"), args.format, mf)
    return _render(list(zip(grid, analytic)), ("t", "value"), args.format, mf)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        report = _dispatch(args)
    except NonConvergedError as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1

    if args.out is None:
        sys.stdout.write(report)
        return 0
    try:
        _write_atomic(args.out, report)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temporary file next to path, then rename it over path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
