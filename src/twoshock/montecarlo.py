"""Monte Carlo oracle: marked renewal-process simulation with deterministic streams.

Two independent Poisson streams with rates rate1 and rate2 superpose into
one Poisson stream of rate L = rate1 + rate2 in which each shock comes from
stream 1 with probability rate1 / L, independently of everything else.  The
simulators use that in two ways:

* Crossing times (simulate_fptf_cumulative) draw the merged marks with
  Bernoulli source labels until the damage exceeds the threshold at shock N.
  The merged interarrivals are i.i.d. Exp(L) and independent of the labels
  and marks, so the crossing time is one Gamma(N, L) draw.
* Damage paths (simulate_cumulative) draw each stream's arrival count in
  every grid interval as a Poisson variable, draw that many marks and sum
  them per interval.  Renewal arrivals (simulate_general_cumulative) are
  simulated in time and counted per interval instead.

Marks are always drawn by each stream's own sampler; nothing comes from the
analytic kernels, so the oracle stays independent of them.

Determinism contract: every summary depends only on (replications,
master_seed).  Replications are partitioned into fixed-size blocks; block j
draws from an independent substream seeded by SeedSequence([master_seed, j]),
and per-block partial results are reduced in block order, so the worker count
can never change an output bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cumulative import CumulativeModel, GeneralCumulativeModel
from .catastrophic import CatastrophicModel
from .distributions import Distribution, Exponential
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
# Chunk rounds of _running_sums; chunks grow geometrically, so hitting the
# cap means a pathological model rather than bad luck.
_MAX_EXTENSION_ROUNDS = 64


@dataclass(frozen=True)
class SimulationConfig:
    """Replication count, master seed, and worker count for one simulation run."""

    replications: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if not (isinstance(self.replications, int) and self.replications >= 2):
            raise ValueError(f"replications must be an integer >= 2, got {self.replications!r}")
        if not (isinstance(self.master_seed, int) and not isinstance(self.master_seed, bool)
                and 0 <= self.master_seed < 2 ** 64):
            raise ValueError(f"master_seed must be a 64-bit integer, got {self.master_seed!r}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ValueError(f"workers must be a positive integer, got {self.workers!r}")


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
    _samples: tuple  # sorted damage draws per grid point

    def ecdf(self, grid_index: int, x: float) -> SimulationEstimate:
        """Exact fraction of damage draws at grid point grid_index that are <= x."""
        samples = self._samples[grid_index]
        count = int(np.searchsorted(samples, x, side="right"))
        return _proportion_estimate(
            count, len(samples),
            f"damage_ecdf@t={self.grid[grid_index]!r},x={x!r}")


@dataclass(frozen=True)
class FptfSimulation:
    """Threshold-crossing time summaries: mean estimate plus exact ECDF."""

    mean: SimulationEstimate
    _times: np.ndarray  # sorted crossing times

    def ecdf(self, t: float) -> SimulationEstimate:
        count = int(np.searchsorted(self._times, t, side="right"))
        return _proportion_estimate(count, len(self._times), f"fptf_ecdf@t={t!r}")


def _proportion_estimate(count: int, n: int, tag: str) -> SimulationEstimate:
    p = count / n
    return SimulationEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n),
                              n=n, quantity_tag=tag)


def _mean_estimate(total: float, total_sq: float, n: int, tag: str) -> SimulationEstimate:
    mean = total / n
    var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
    return SimulationEstimate(mean=mean, std_error=math.sqrt(var / n),
                              n=n, quantity_tag=tag)


def _block_sizes(replications: int) -> list:
    full, rest = divmod(replications, _BLOCK_SIZE)
    sizes = [_BLOCK_SIZE] * full
    if rest:
        sizes.append(rest)
    return sizes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(cfg: SimulationConfig, worker) -> list:
    """worker(rng, size) per block; results returned in block order."""
    sizes = _block_sizes(cfg.replications)

    def run(j: int):
        rng = np.random.default_rng([cfg.master_seed, j])
        return worker(rng, sizes[j])

    threads = min(cfg.workers, len(sizes), _usable_cpus())
    if threads == 1:
        return [run(j) for j in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run, j) for j in range(len(sizes))]
        return [f.result() for f in futures]


def _check_grid(t_grid) -> np.ndarray:
    grid = np.asarray(list(t_grid), dtype=float)
    if grid.size and (np.any(grid < 0.0) or np.any(np.diff(grid) <= 0.0)):
        raise ValueError("grid points must be nonnegative and strictly increasing")
    return grid


def simulate_catastrophic(model: CatastrophicModel, cfg: SimulationConfig,
                          t_grid=()) -> CatastrophicSimulation:
    """Draw the two first interarrival times per replication and summarize min(X1, Y1)."""
    grid = _check_grid(t_grid)

    def worker(rng, size):
        x = model.proc1.sample_n(rng, size)
        y = model.proc2.sample_n(rng, size)
        first = np.minimum(x, y)
        counts = ((first[None, :] > grid[:, None]).sum(axis=1)
                  if grid.size else np.zeros(0, dtype=np.int64))
        return float(first.sum()), float((first * first).sum()), counts

    parts = _run_blocks(cfg, worker)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    counts = sum((p[2] for p in parts), np.zeros(grid.size, dtype=np.int64))
    n = cfg.replications
    survival = tuple(
        _proportion_estimate(int(c), n, f"survival@t={t!r}")
        for t, c in zip(grid, counts))
    return CatastrophicSimulation(
        grid=tuple(float(t) for t in grid),
        survival=survival,
        fptf_mean=_mean_estimate(total, total_sq, n, "fptf_mean"))


def _running_sums(draw, size: int, cols: int, limit: float):
    """Yield (rows, sums): running row sums of draw(len(rows), cols) increments.

    Each row's sum is carried from chunk to chunk until it exceeds limit;
    only the rows still at or below it are drawn again.  Each chunk is half
    as wide again as the one before.
    """
    carried = np.zeros(size)
    rows = np.arange(size)
    rounds = 0
    while rows.size:
        rounds += 1
        if rounds > _MAX_EXTENSION_ROUNDS:
            raise NonConvergedError("extension cap exceeded before every replication "
                                    "passed its limit; check the model's scales")
        sums = draw(rows.size, cols)
        sums[:, 0] += carried[rows]
        np.cumsum(sums, axis=1, out=sums)
        yield rows, sums
        carried[rows] = sums[:, -1]
        rows = rows[sums[:, -1] <= limit]
        cols += cols // 2


def _interval_counts(inter: Distribution, grid: np.ndarray, rng, size: int) -> np.ndarray:
    """Arrivals of one stream per replication in each (grid[i-1], grid[i]]: (size, len(grid)).

    The first interval starts at 0.  Poisson arrivals fall in disjoint
    intervals independently, so their counts are Poisson(rate * width);
    renewal arrivals are simulated past the last grid point and binned.
    """
    if isinstance(inter, Exponential):
        return rng.poisson(inter.rate * np.diff(grid, prepend=0.0), size=(size, grid.size))
    t_max = float(grid[-1])
    # Column grid.size collects the arrivals after t_max.
    counts = np.zeros(size * (grid.size + 1), dtype=np.int64)
    for rows, times in _running_sums(
            lambda n, k: inter.sample_n(rng, n * k).reshape(n, k),
            size, max(4, int(t_max / inter.mean()) + 1), t_max):
        # An arrival at time s belongs to the first grid point >= s.
        bins = np.searchsorted(grid, times, side="left")
        bins += (grid.size + 1) * rows[:, None]
        counts += np.bincount(bins.ravel(), minlength=counts.size)
    return counts.reshape(size, grid.size + 1)[:, :-1]


def _stream_damage(inter: Distribution, mag: Distribution, grid: np.ndarray, rng,
                   size: int) -> np.ndarray:
    """One stream's damage per replication at each grid time: (size, len(grid))."""
    counts = _interval_counts(inter, grid, rng, size)
    marks = mag.sample_n(rng, int(counts.sum()))
    owner = np.repeat(np.arange(counts.size), counts.ravel())
    # bincount, not np.add.reduceat: an interval without arrivals must sum to 0.
    sums = np.bincount(owner, weights=marks, minlength=counts.size).reshape(counts.shape)
    return np.cumsum(sums, axis=1, out=sums)


def _damage_paths(inter1, mag1, inter2, mag2, grid: np.ndarray, rng, size: int) -> np.ndarray:
    """Damage totals per replication at each grid time: (len(grid), size)."""
    damage = _stream_damage(inter1, mag1, grid, rng, size)
    damage += _stream_damage(inter2, mag2, grid, rng, size)
    return damage.T


def _simulate_damage(inter1, mag1, inter2, mag2, t_grid, cfg: SimulationConfig,
                     tag: str) -> DamageSimulation:
    grid = _check_grid(t_grid)
    if not grid.size:
        raise ValueError("t_grid must contain at least one point")

    samples = np.concatenate(_run_blocks(cfg, lambda rng, size: _damage_paths(
        inter1, mag1, inter2, mag2, grid, rng, size)), axis=1)  # block order
    n = cfg.replications
    means = tuple(
        _mean_estimate(float(row.sum()), float((row * row).sum()), n,
                       f"{tag}_mean@t={t!r}")
        for t, row in zip(grid, samples))
    samples.sort(axis=1)  # in place: the draws are held once
    return DamageSimulation(grid=tuple(float(t) for t in grid),
                            means=means, _samples=tuple(samples))


def simulate_cumulative(model: CumulativeModel, t_grid,
                        cfg: SimulationConfig) -> DamageSimulation:
    """Sum the marks of two Poisson streams over [0, t] for each grid t.

    Each stream's arrival count in every grid interval is a Poisson draw;
    that many marks are drawn and summed per interval, then accumulated
    along the grid.
    """
    return _simulate_damage(Exponential(model.rate1), model.mag1,
                            Exponential(model.rate2), model.mag2,
                            t_grid, cfg, tag="damage")


def simulate_general_cumulative(model: GeneralCumulativeModel, t_grid,
                                cfg: SimulationConfig) -> DamageSimulation:
    """Renewal-arrival variant of simulate_cumulative; any sampleable interarrivals.

    Arrival times are simulated and counted per grid interval; Exponential
    interarrivals take the Poisson-count path, drawing exactly what
    simulate_cumulative draws.
    """
    return _simulate_damage(model.inter1, model.mag1, model.inter2, model.mag2,
                            t_grid, cfg, tag="general_damage")


def _merged_marks(model: CumulativeModel, p1: float, rng, rows: int, cols: int) -> np.ndarray:
    """Marks of the merged stream, (rows, cols): each from stream 1 with probability p1."""
    from_first = rng.random(rows * cols) < p1
    # Integer positions scatter the draws several times faster than a mask.
    first, second = np.flatnonzero(from_first), np.flatnonzero(~from_first)
    marks = np.empty(rows * cols)
    marks[first] = model.mag1.sample_n(rng, first.size)
    marks[second] = model.mag2.sample_n(rng, second.size)
    return marks.reshape(rows, cols)


def _crossing_times(model: CumulativeModel, rng, size: int) -> np.ndarray:
    """First instants at which the merged stream's cumulative damage exceeds the threshold.

    Marks are drawn in chunks of columns, the first about threshold / mean
    mark wide and each later one half as wide again; only the rows that have
    not yet crossed are carried into the next chunk.  Given the index N of the
    crossing shock, the crossing time is a sum of N Exp(total rate)
    interarrivals, independent of the marks: one Gamma(N) draw scaled by
    1/total.
    """
    total = model.rate1 + model.rate2
    p1 = model.rate1 / total
    mark_mean = p1 * model.mag1.mean() + (1.0 - p1) * model.mag2.mean()
    shocks = np.zeros(size, dtype=np.int64)
    for rows, damage in _running_sums(
            lambda n, k: _merged_marks(model, p1, rng, n, k),
            size, max(4, int(model.threshold / mark_mean) + 1), model.threshold):
        over = damage > model.threshold
        shocks[rows] += np.where(over[:, -1], over.argmax(axis=1) + 1, over.shape[1])
    return rng.standard_gamma(shocks) / total


def simulate_fptf_cumulative(model: CumulativeModel,
                             cfg: SimulationConfig) -> FptfSimulation:
    """First time the summed damage of both streams exceeds the threshold, per replication.

    The time is Gamma(N, rate1 + rate2), with N the index of the crossing
    shock in the merged stream.
    """
    parts = _run_blocks(cfg, lambda rng, size: _crossing_times(model, rng, size))
    times = np.concatenate(parts)
    n = cfg.replications
    est = _mean_estimate(float(times.sum()), float((times * times).sum()), n,
                         "fptf_mean")
    return FptfSimulation(mean=est, _times=np.sort(times))
