"""Command-line front end: evaluate model quantities on grids, simulate, compare.

Exit codes: 0 success, 1 usage, model-validation or file failure, 2 numerical
failure (non-convergence), with the offending quantity named on standard
error.  Reports go to standard output or --out; all diagnostics go to
standard error.  A fixed invocation produces byte-identical
output (numbers are written with 17 significant digits).

On cumulative models, fptf-model2 and damage-cdf (and compare, which uses
them) evaluate the whole grid from one crossing-index sequence
(cumulative.model2_fptf_curve), so early failure probabilities keep their
relative accuracy; general_cumulative models go point by point through
general_damage_cdf.

On catastrophic models, survival and compare evaluate the whole grid in one
array pass per process (catastrophic.survival_curve), with values bit for
bit those of survival_probability; fptf-cdf stays point by point, because
F1 + S1 F2 needs the cancellation-free Erlang CDF series.

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
from .distributions import _check_positive, _require_keys, distribution_from_dict
from .errors import NonConvergedError
from .numerics import QuadraturePolicy

_MODEL_KINDS = {"catastrophic": catastrophic.CatastrophicModel,
                "cumulative": cumulative.CumulativeModel,
                "general_cumulative": cumulative.GeneralCumulativeModel}
_POLICY_DEFAULTS = {"tail_epsilon": 1e-10, "rel_tol": 1e-10}


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

    def add(name, help_text, grid=True, x=False, sim=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON file")
        if grid:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--grid", help="MIN:MAX:STEPS inclusive uniform grid")
            g.add_argument("--points", help="comma-separated evaluation points")
        if x:
            p.add_argument("--x", type=float, default=None,
                           help="damage level for CDF evaluation")
        if sim:
            p.add_argument("--reps", type=int, required=True, help="replication count")
            p.add_argument("--seed", type=int, required=True, help="master seed")
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="worker count (never affects output values)")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--tail-epsilon", type=float, default=None,
                       help="series truncation bound (overrides the model file)")
        p.add_argument("--rel-tol", type=float, default=None,
                       help="quadrature relative tolerance (overrides the model file)")
        return p

    add("survival", "survival probability curve (catastrophic models)")
    add("fptf-cdf", "failure-time CDF curve (catastrophic models)")
    add("mean-fptf", "mean failure time (catastrophic models)", grid=False)
    add("damage-cdf", "damage CDF curve at level --x (cumulative models)", x=True)
    add("damage-mean", "mean damage curve (cumulative models)")
    add("fptf-model2", "failure-time CDF curve (cumulative models)")
    add("simulate", "Monte Carlo estimates on a grid", x=True, sim=True)
    add("compare", "analytic values vs Monte Carlo estimates", x=True, sim=True)
    return parser


def _require_kind(mf: ModelFile, command: str, kinds: tuple) -> None:
    if mf.kind not in kinds:
        raise ValueError(
            f"{command} needs a model of kind {' or '.join(kinds)}, got {mf.kind}")


def _policies(mf: ModelFile, args) -> tuple:
    tail = args.tail_epsilon if args.tail_epsilon is not None else mf.tail_epsilon
    rel = args.rel_tol if args.rel_tol is not None else mf.rel_tol
    return (cumulative.TruncationPolicy(tail_epsilon=tail),
            QuadraturePolicy(rel_tol=rel))


def _grid_from_args(args) -> list:
    return parse_grid(args.grid) if args.grid is not None else parse_points(args.points)


def _analytic_curve(mf: ModelFile, command: str, grid: list, x, trunc) -> list:
    model = mf.model
    if command == "survival":
        _require_kind(mf, command, ("catastrophic",))
        return catastrophic.survival_curve(model, grid).tolist()
    if command == "fptf-cdf":
        _require_kind(mf, command, ("catastrophic",))
        return [catastrophic.fptf_cdf(model, t) for t in grid]
    if command == "damage-cdf":
        _require_kind(mf, command, ("cumulative", "general_cumulative"))
        if x is None:
            raise ValueError("damage-cdf requires --x")
        if mf.kind == "cumulative":
            return cumulative._crossing_curve(model, x, grid, trunc)[1].tolist()
        return [cumulative.general_damage_cdf(model, t, x, trunc) for t in grid]
    if command == "damage-mean":
        _require_kind(mf, command, ("cumulative", "general_cumulative"))
        if mf.kind == "cumulative":
            return [cumulative.damage_mean(model, t) for t in grid]
        return [cumulative.general_damage_mean(model, t, trunc) for t in grid]
    if command == "fptf-model2":
        _require_kind(mf, command, ("cumulative", "general_cumulative"))
        if mf.kind == "cumulative":
            return cumulative.model2_fptf_curve(model, grid, trunc)[0].tolist()
        return [1.0 - cumulative.general_damage_cdf(model, t, model.threshold, trunc)
                for t in grid]
    raise ValueError(f"unknown command {command!r}")


def _simulation_estimates(mf: ModelFile, args, grid: list):
    """Monte Carlo estimates matching the compare/simulate quantity for this kind."""
    cfg = montecarlo.SimulationConfig(replications=args.reps,
                                      master_seed=args.seed,
                                      workers=args.workers)
    if mf.kind == "catastrophic":
        if args.x is not None:
            raise ValueError("--x is only meaningful for cumulative model kinds")
        sim = montecarlo.simulate_catastrophic(mf.model, cfg, grid)
        return list(sim.survival)
    if mf.kind == "cumulative" and args.x is None:
        sim = montecarlo.simulate_fptf_cumulative(mf.model, cfg)
        return [sim.ecdf(t) for t in grid]
    if args.x is None:
        raise ValueError("general_cumulative simulation requires --x")
    if mf.kind == "cumulative":
        sim = montecarlo.simulate_cumulative(mf.model, grid, cfg)
    else:
        sim = montecarlo.simulate_general_cumulative(mf.model, grid, cfg)
    return [sim.ecdf(i, args.x) for i in range(len(grid))]


def _compare_analytic(mf: ModelFile, args, grid: list, trunc) -> list:
    if mf.kind == "catastrophic":
        return _analytic_curve(mf, "survival", grid, None, trunc)
    if args.x is not None:
        return _analytic_curve(mf, "damage-cdf", grid, args.x, trunc)
    if mf.kind == "cumulative":
        return _analytic_curve(mf, "fptf-model2", grid, None, trunc)
    raise ValueError("compare on a general_cumulative model requires --x, the damage level")


def _zscore(analytic: float, estimate: float, n: int) -> float:
    """Score z of a proportion of n against p0 = analytic (Wilson 1927).

    The variance is the null one, p0 (1 - p0) / n, so an ECDF of 0 or n has a
    finite z wherever 0 < p0 < 1.
    """
    diff = estimate - analytic
    if not 0.0 < analytic < 1.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / math.sqrt(analytic * (1.0 - analytic)) * math.sqrt(n)


def _render(rows: list, columns: tuple, fmt: str, mf: ModelFile,
            trunc, quad) -> str:
    """rows are tuples in column order; "%.17g" writes what format(v, ".17g") does."""
    if fmt == "csv":
        template = ",".join(["%.17g"] * len(columns))
        return "\n".join([",".join(columns), *(template % row for row in rows)]) + "\n"
    return _json("points", [dict(zip(columns, row)) for row in rows], mf, trunc, quad)


def _render_scalar(value: float, fmt: str, mf: ModelFile, trunc, quad) -> str:
    if fmt == "csv":
        return "%.17g\n" % value
    return _json("value", value, mf, trunc, quad)


def _json(key: str, value, mf: ModelFile, trunc, quad) -> str:
    payload = {
        key: value,
        "model": mf.raw,
        "policies": {"tail_epsilon": trunc.tail_epsilon, "rel_tol": quad.rel_tol},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _dispatch(args) -> str:
    mf = load_model_file(args.model)
    trunc, quad = _policies(mf, args)

    if args.command == "mean-fptf":
        _require_kind(mf, args.command, ("catastrophic",))
        return _render_scalar(catastrophic.mean_fptf(mf.model, quad),
                              args.format, mf, trunc, quad)

    grid = _grid_from_args(args)
    x = getattr(args, "x", None)

    if args.command == "compare":
        analytic = _compare_analytic(mf, args, grid, trunc)
        estimates = _simulation_estimates(mf, args, grid)
        rows = [(t, a, e.mean, e.std_error, _zscore(a, e.mean, e.n))
                for t, a, e in zip(grid, analytic, estimates)]
        return _render(rows, ("t", "analytic", "estimate", "std_error", "z"),
                       args.format, mf, trunc, quad)

    if args.command == "simulate":
        rows = [(t, e.mean) for t, e in zip(grid, _simulation_estimates(mf, args, grid))]
    else:
        rows = list(zip(grid, _analytic_curve(mf, args.command, grid, x, trunc)))
    return _render(rows, ("t", "value"), args.format, mf, trunc, quad)


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
