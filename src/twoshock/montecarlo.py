"""Monte Carlo oracle: marked renewal-process simulation with deterministic streams.

Two independent Poisson streams with rates rate1 and rate2 superpose into
one Poisson stream of rate L = rate1 + rate2 in which each shock comes from
stream 1 with probability rate1 / L, independently of everything else.  The
simulators use that in two ways:

* Crossing times (simulate_fptf_cumulative) draw the merged marks with
  Bernoulli source labels until the damage exceeds the threshold at shock N;
  when both streams share one mark law the labels change nothing, and the
  merged marks are drawn from that law alone.  The merged interarrivals are
  i.i.d. Exp(L) and independent of the labels and marks, so the crossing
  time is one Gamma(N, L) draw.  Marks come in chunks of shocks, each sized
  to what the replications not yet across still need on average
  (_running_sums, shared with renewal arrivals), so a block draws few more
  marks than it uses.
* Damage paths (simulate_cumulative) split Poisson arrivals (Kingman 1993,
  section 5.1): a block's total in each grid interval is one Poisson draw,
  and each arrival goes to a uniform replication, so given the total the
  counts are multinomial and unconditionally i.i.d. Poisson.  Renewal
  arrivals (simulate_general_cumulative) are simulated in time and binned
  instead.  One bincount sums each stream's marks per (interval,
  replication) slot; the interval sums are accumulated along the grid.

Marks are always drawn by the streams' own samplers; nothing comes from the
analytic kernels, so the oracle stays independent of them.

Determinism contract: every summary depends only on (replications,
master_seed).  Replications are partitioned into fixed-size blocks; block j
draws from an independent substream seeded by SeedSequence([master_seed, j]),
and per-block partial results are reduced in block order, so the worker count
can never change an output bit.

Damage paths and crossing times are drawn straight into their block's
columns of one array allocated up front.  Each block's worker returns one
list of floats, such as its row sums and sums of squares, and _run_blocks
fsums each position over the blocks in block order.  Damage rows stay
unsorted, since every caller asks a row for one level and a count is cheaper
than a sort; crossing times are sorted once in place, since callers ask them
for a whole grid of times.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cumulative import CumulativeModel, GeneralCumulativeModel
from .catastrophic import CatastrophicModel
from .distributions import Distribution, Exponential, _check_integer, _time_grid
from .errors import NonConvergedError

__all__ = [
    "SimulationConfig",
    "SimulationEstimate",
    "CatastrophicSimulation",
    "DamageSimulation",
    "FptfSimulation",
    "simulate_catastrophic",
    "simulate_cumulative",
    "simulate_fptf_cumulative",
    "simulate_general_cumulative",
]

_BLOCK_SIZE = 1 << 14
# Chunk rounds of _running_sums.  A chunk after the first is sized to the
# mean gap left, but never below a floor that doubles each round, so a
# replication still short of its limit at the cap has drawn over 2^62
# increments: hitting it means a pathological model rather than bad luck.
_MAX_EXTENSION_ROUNDS = 64
# Most arrivals a block can draw: numpy's Poisson mean limit, an int64 step count.
_INT64_MAX = float(np.iinfo(np.int64).max)
_POISSON_MEAN_MAX = _INT64_MAX - 10.0 * math.sqrt(_INT64_MAX)


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, master seed, and worker count for one simulation run."""

    replications: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        _check_integer(self, "replications", 2)
        _check_integer(self, "master_seed", 0, 2 ** 64)
        _check_integer(self, "workers", 1)


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimate with its standard error and replication count."""

    mean: float
    std_error: float
    n: int
    quantity_tag: str


@dataclass(frozen=True)
class CatastrophicSimulation:
    grid: tuple
    survival: tuple
    fptf_mean: SimulationEstimate


@dataclass(frozen=True)
class DamageSimulation:
    """Damage summaries per grid time: mean estimates plus exact ECDFs."""

    grid: tuple
    means: tuple
    _samples: tuple  # unsorted damage draws per grid point, rows of one array

    def ecdf(self, grid_index: int, x: float) -> SimulationEstimate:
        """Exact fraction of damage draws at grid point grid_index that are <= x."""
        if not 0 <= grid_index < len(self.grid):  # a negative index would count from the end
            raise IndexError(f"grid_index {grid_index} is outside the {len(self.grid)} grid points")
        row = self._samples[grid_index]
        return _ecdf_estimate(int(np.count_nonzero(row <= x)), row.size, x, "x",
                              f"damage_ecdf@t={self.grid[grid_index]!r},x={float(x)!r}")


@dataclass(frozen=True)
class FptfSimulation:
    """Threshold-crossing time summaries: mean estimate plus exact ECDF."""

    mean: SimulationEstimate
    _times: np.ndarray  # crossing times, sorted once in place

    def ecdf(self, t: float) -> SimulationEstimate:
        count = int(np.searchsorted(self._times, t, side="right"))
        return _ecdf_estimate(count, self._times.size, t, "t", f"fptf_ecdf@t={float(t)!r}")


def _ecdf_estimate(count: int, n: int, value: float, name: str, tag: str) -> SimulationEstimate:
    """Fraction count / n of draws at or below value.

    A nan value raises ValueError: no draw compares <= nan, yet searchsorted
    would put nan past every draw, so neither count means anything.
    """
    if math.isnan(value):
        raise ValueError(f"ECDF argument {name} must be a number, got nan")
    return _proportion_estimate(count, n, tag)


def _proportion_estimate(count: int, n: int, tag: str) -> SimulationEstimate:
    p = count / n
    return SimulationEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n),
                              n=n, quantity_tag=tag)


def _mean_estimate(total: float, total_sq: float, n: int, tag: str) -> SimulationEstimate:
    mean = total / n
    var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
    return SimulationEstimate(mean=mean, std_error=math.sqrt(var / n),
                              n=n, quantity_tag=tag)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(cfg: SimulationConfig, worker) -> list:
    """Block-order fsum of each position of the float lists worker(rng, cols) returns per block."""
    n = cfg.replications
    blocks = [slice(start, min(start + _BLOCK_SIZE, n)) for start in range(0, n, _BLOCK_SIZE)]

    def run(j: int):
        return worker(np.random.default_rng([cfg.master_seed, j]), blocks[j])

    threads = min(cfg.workers, len(blocks), _usable_cpus())
    if threads == 1:
        parts = map(run, range(len(blocks)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(run, j) for j in range(len(blocks))]
            parts = [f.result() for f in futures]
    return [math.fsum(column) for column in zip(*parts)]


def _moments(block: np.ndarray) -> list:
    """Row sums of block (1-D: one row), then row sums of squares, squared in one scratch row."""
    rows = np.atleast_2d(block)
    scratch = np.empty(rows.shape[1])
    squares = [float(np.multiply(row, row, out=scratch).sum()) for row in rows]
    return [float(row.sum()) for row in rows] + squares


def _check_grid(t_grid) -> np.ndarray:
    grid = _time_grid(t_grid)
    if not (np.all(np.isfinite(grid) & (grid >= 0.0)) and np.all(np.diff(grid) > 0.0)):
        raise ValueError("grid points must be finite, nonnegative and strictly increasing")
    return grid


def simulate_catastrophic(model: CatastrophicModel, cfg: SimulationConfig,
                          t_grid=()) -> CatastrophicSimulation:
    """Draw the two first interarrival times per replication and summarize min(X1, Y1)."""
    grid = _check_grid(t_grid)

    def worker(rng, cols):
        first = model.proc1.sample_n(rng, cols.stop - cols.start)
        np.minimum(first, model.proc2.sample_n(rng, first.size), out=first)
        # Counts travel as floats, exact below 2^53.
        return _moments(first) + [float(np.count_nonzero(first > t)) for t in grid]

    total, total_sq, *counts = _run_blocks(cfg, worker)
    n = cfg.replications
    survival = tuple(
        _proportion_estimate(int(c), n, f"survival@t={float(t)!r}")
        for t, c in zip(grid, counts))
    return CatastrophicSimulation(
        grid=tuple(float(t) for t in grid),
        survival=survival,
        fptf_mean=_mean_estimate(total, total_sq, n, "fptf_mean"))


def _running_sums(name: str, draw, size: int, limit: float, mean: float):
    """Yield (reps, sums): running sums down the columns of draw(steps, len(reps)) increments.

    Column j belongs to replication reps[j], or to replication j in the
    first chunk, where reps is None; mean is the mean increment.  Each
    replication's sum is carried from chunk to chunk until it exceeds limit;
    only the replications still at or below it are drawn again.

    The first chunk has limit // mean steps (at least one), the mean count:
    a little under what most replications need, since steps drawn past a
    replication's crossing are wasted and a later chunk is cheap.  Each
    later chunk has g // mean + 1 steps, g the mean gap from the live
    replications' sums to limit, so it holds about what they still need.
    It never has fewer steps than a floor that doubles each round (1, 2,
    4, ...): where a heavy tail makes the mean increment overstate the
    typical one, the gap rule asks for a step or two while replications
    need many, and the floor still retires them well within
    _MAX_EXTENSION_ROUNDS.  A block whose expected steps cannot be counted
    raises ValueError naming name.
    """
    _check_drawable(name, size, size * limit / mean, _INT64_MAX)
    reps = carry = None
    steps, floor = max(1, int(limit / mean)), 1
    for _ in range(_MAX_EXTENSION_ROUNDS):
        sums = draw(steps, size if reps is None else reps.size)
        if carry is not None:
            sums[0] += carry
        for i in range(1, steps):  # row adds: numpy's accumulate is slow along axis 0
            sums[i] += sums[i - 1]
        yield reps, sums
        live = sums[-1] <= limit
        if not live.any():
            return
        carry = sums[-1][live]
        reps = np.flatnonzero(live) if reps is None else reps[live]
        steps = max(floor, int((limit - carry.mean()) / mean) + 1)
        floor *= 2
    raise NonConvergedError("extension cap exceeded before every replication "
                            "passed its limit; check the model's scales")


def _check_drawable(name: str, size: int, expected: float, limit: float) -> None:
    if not expected < limit:
        raise ValueError(f"{name}: a block of {size} replications expects {expected:.3g} "
                         f"arrivals, past the {limit:.3g} that can be drawn")


def _arrival_slots(name: str, inter: Distribution, grid: np.ndarray, rng,
                   size: int) -> np.ndarray:
    """Slot i * size + r of each arrival of one stream in (grid[i-1], grid[i]] of replication r.

    The first interval starts at 0.  Poisson arrivals are split: the block's
    total in interval i is Poisson(size * rate * width), and each arrival
    goes to a uniform replication.  Renewal arrivals are simulated past the
    last grid point and binned; those after it are dropped before any mark
    is drawn for them.  A stream whose expected arrivals per block cannot
    be drawn raises ValueError naming its field, name.
    """
    if isinstance(inter, Exponential):
        means = size * inter.rate * np.diff(grid, prepend=0.0)
        _check_drawable(name, size, float(means.max()), _POISSON_MEAN_MAX)
        return np.concatenate([rng.integers(i * size, (i + 1) * size, total)
                               for i, total in enumerate(rng.poisson(means))])
    t_max = float(grid[-1])
    every = np.arange(size)
    slots = []
    for reps, times in _running_sums(
            name, lambda k, n: inter.sample_n(rng, k * n).reshape(k, n),
            size, t_max, inter.mean()):
        inside = times <= t_max
        # An arrival at time s belongs to the first grid point >= s.
        bins = np.searchsorted(grid, times[inside], side="left")
        bins *= size
        bins += np.broadcast_to(every if reps is None else reps, times.shape)[inside]
        slots.append(bins)
    return np.concatenate(slots)


def _damage_paths(streams, grid: np.ndarray, rng, out: np.ndarray) -> np.ndarray:
    """Damage of (name, inter, mag) streams by grid time into out, (len(grid), reps); returns it."""
    out[...] = 0.0
    for name, inter, mag in streams:
        slots = _arrival_slots(name, inter, grid, rng, out.shape[1])
        out += np.bincount(slots, weights=mag.sample_n(rng, slots.size),
                           minlength=out.size).reshape(out.shape)
    for i in range(1, grid.size):
        out[i] += out[i - 1]
    return out


def _simulate_damage(streams, t_grid, cfg: SimulationConfig, tag: str) -> DamageSimulation:
    grid = _check_grid(t_grid)
    if not grid.size:
        raise ValueError("t_grid must contain at least one point")

    n = cfg.replications
    samples = np.empty((grid.size, n))
    sums = _run_blocks(cfg, lambda rng, cols: _moments(
        _damage_paths(streams, grid, rng, samples[:, cols])))
    means = tuple(_mean_estimate(sums[i], sums[grid.size + i], n, f"{tag}_mean@t={float(t)!r}")
                  for i, t in enumerate(grid))
    return DamageSimulation(grid=tuple(float(t) for t in grid),
                            means=means, _samples=tuple(samples))


def simulate_cumulative(model: CumulativeModel, t_grid,
                        cfg: SimulationConfig) -> DamageSimulation:
    """Sum the marks of two Poisson streams over [0, t] for each grid t.

    Each stream's arrivals in every grid interval are one Poisson total per
    block, split uniformly over the replications; their marks are summed per
    interval, then accumulated along the grid.
    """
    return _simulate_damage((("rate1", Exponential(model.rate1), model.mag1),
                             ("rate2", Exponential(model.rate2), model.mag2)),
                            t_grid, cfg, tag="damage")


def simulate_general_cumulative(model: GeneralCumulativeModel, t_grid,
                                cfg: SimulationConfig) -> DamageSimulation:
    """Renewal-arrival variant of simulate_cumulative; any sampleable interarrivals.

    Arrival times are simulated and binned per grid interval; Exponential
    interarrivals take the Poisson-splitting path, drawing exactly what
    simulate_cumulative draws.
    """
    return _simulate_damage((("inter1", model.inter1, model.mag1),
                             ("inter2", model.inter2, model.mag2)),
                            t_grid, cfg, tag="general_damage")


def _merged_marks(model: CumulativeModel, p1: float, rng, steps: int, reps: int) -> np.ndarray:
    """Marks of the merged stream, (steps, reps): each from stream 1 with probability p1.

    When both marks have one (shape, rate), the merged marks are i.i.d. from
    that law and are drawn by mag1 alone, with no source labels.  Otherwise
    the labels' uniforms are drawn into the buffer that then takes the
    marks.  Integer positions scatter the draws several times faster than a
    mask, and each stream's positions are freed before the next.
    """
    if (model.mag1.shape, model.mag1.rate) == (model.mag2.shape, model.mag2.rate):
        return model.mag1.sample_n(rng, steps * reps).reshape(steps, reps)
    marks = rng.random(steps * reps)
    from_first = marks < p1
    at = np.flatnonzero(from_first)
    marks[at] = model.mag1.sample_n(rng, at.size)
    del at
    at = np.flatnonzero(~from_first)
    del from_first
    marks[at] = model.mag2.sample_n(rng, at.size)
    return marks.reshape(steps, reps)


def _crossing_times(model: CumulativeModel, rng, out: np.ndarray) -> np.ndarray:
    """First instants at which the merged stream's damage exceeds the threshold, into out.

    Marks are drawn in the chunks of _running_sums; only the replications
    that have not yet crossed are carried into the next chunk.  Damage only
    grows, so the crossing index N is 1 plus the number of partial sums at
    or below the threshold, counted row by row into out.  Given N, the
    crossing time is a sum of N Exp(total rate) interarrivals, independent
    of the marks: one Gamma(N) draw scaled by 1/total.
    """
    total = model.rate1 + model.rate2
    p1 = model.rate1 / total
    mark_mean = p1 * model.mag1.mean() + (1.0 - p1) * model.mag2.mean()
    out[...] = 1.0  # counts are exact in a double below 2^53
    for reps, damage in _running_sums(
            "threshold", lambda k, n: _merged_marks(model, p1, rng, k, n),
            out.size, model.threshold, mark_mean):
        counts = out if reps is None else out[reps]
        for row in damage:
            counts += row <= model.threshold
        if reps is not None:
            out[reps] = counts
    rng.standard_gamma(out, out=out)
    out /= total
    return out


def simulate_fptf_cumulative(model: CumulativeModel,
                             cfg: SimulationConfig) -> FptfSimulation:
    """First time the summed damage of both streams exceeds the threshold, per replication.

    The time is Gamma(N, rate1 + rate2), with N the index of the crossing
    shock in the merged stream.
    """
    n = cfg.replications
    times = np.empty(n)
    total, total_sq = _run_blocks(cfg, lambda rng, cols: _moments(
        _crossing_times(model, rng, times[cols])))
    times.sort()
    return FptfSimulation(mean=_mean_estimate(total, total_sq, n, "fptf_mean"), _times=times)
