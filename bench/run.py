"""twoshock benchmark: seeded workloads, end-to-end metrics, per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/workloads.py): catastrophic, damage_curves, damage_levels,
mc_oracle.  Each measurement is one fresh single-process session
(bench/session.py) that imports twoshock from ./src, builds the seeded
inputs and runs the workload once.  The first session checks every output
against bench/oracles.py; every later one must reproduce those outputs bit
for bit.  Sessions repeat until S seconds have passed (at least five).

Timings (units s and 1/s) are given at a reference host speed: each session
first times a fixed probe (bench/session.py), and a timing is the run's total
of it over the run's total probe time, times PROBE_REF_S.  peak_rss_mb is the
median over the sessions.  The record keeps every session's measured values
and probe time.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced sessions, then runs the layer microcases (bench/micro.py) in a fresh
session, and prints the per-layer metrics, trace.overhead included.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A record of the run (git sha, library
versions, core count, load average before and after, every session's report)
is written under bench/out/.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from tracer import SELF_TIME_LAYERS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

MIN_SESSIONS = 5  # a run's timings total at least this many sessions
MIN_SETUPS = 7
HARD_LIMIT_S = 170.0  # the whole run, set-up sessions and microcases included
PROBE_REF_S = 0.012  # host probe time (bench/session.py) the timings are scaled to


class BenchError(Exception):
    pass


def _git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment() -> dict:
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"git_sha": _git_sha(), "versions": versions,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for a section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Runner:
    """Starts sessions one at a time and keeps their reports."""

    def __init__(self, workload: str, seed: int, started: float, trace_out: str | None = None):
        self.workload, self.seed, self.started = workload, seed, started
        self.trace_out = trace_out  # where traced sessions write their spans
        self.reports = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def session(self, mode: str, check: bool = False) -> dict:
        if self.remaining() <= 0:
            raise BenchError("time limit reached before all sessions ran")
        cmd = [sys.executable, os.path.join(BENCH, "session.py"), "--root", ROOT,
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
               "--check", str(int(check))]
        if mode == "trace" and self.trace_out:
            cmd += ["--trace-out", self.trace_out]
        # One analytic thread: no BLAS or OpenMP pool competes with the session.
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} session timed out") from exc
        ended = time.monotonic()
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} session failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["setup_done"] - spawned
        report["duration_s"] = ended - spawned
        self.reports.append(report)
        return report

    def by_mode(self, *modes) -> list:
        return [r for r in self.reports if r["mode"] in modes]

    def repeat(self, modes: tuple, seconds: float, min_rounds: int) -> None:
        """Run rounds of sessions (one per mode) until the next would overrun.

        The first session checks its outputs against the oracles; every later
        one must reproduce them bit for bit (see verdict).
        """
        deadline = self.started + seconds
        rounds = []
        while True:
            start = time.monotonic()
            for mode in modes:
                self.session(mode, check=not self.reports)
            rounds.append(time.monotonic() - start)
            if len(rounds) >= min_rounds:
                next_end = time.monotonic() + statistics.median(rounds)
                if next_end > deadline or next_end > self.started + HARD_LIMIT_S - 30.0:
                    return

    def setup_reports(self) -> list:
        """Every session's report, after set-up-only sessions make up MIN_SETUPS."""
        while len(self.reports) < MIN_SETUPS:
            self.session("setup")
        return self.reports


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(runner: Runner) -> dict:
    """The end-to-end metrics of a run, timings at the reference host speed.

    A timing is the run's total of it over its total host probe time, times
    PROBE_REF_S: the mean per session, in units of the probe.  On the shared
    host this was built on, that total ratio spread least from run to run
    (below the median of per-session ratios and the ratio of medians).
    """
    runs, setups = runner.by_mode("run"), runner.setup_reports()

    def seconds(sessions: list, value) -> float:
        return PROBE_REF_S * sum(map(value, sessions)) / sum(r["probe_s"] for r in sessions)

    (points,), (reps,) = {r["points"] for r in runs}, {r["reps"] for r in runs}
    return {
        "setup_s": seconds(setups, lambda r: r["setup_s"]),
        "wall_s": seconds(runs, lambda r: r["wall_s"]),
        "curve_points_per_s": points / seconds(runs, lambda r: r["seconds"]["curve"]),
        "mean_s": seconds(runs, lambda r: r["seconds"]["mean"]),
        "mc_reps_per_s": reps / seconds(runs, lambda r: r["seconds"]["mc"]),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in runs),
    }


def per_layer_metrics(runner: Runner) -> dict:
    traced, untraced = runner.by_mode("trace"), runner.by_mode("run")
    (micro,) = runner.by_mode("micro")
    metrics = dict(micro["layers"])
    metrics["cumulative.calls_per_level"] = _median(r["calls_per_level"] for r in traced)
    metrics["cumulative.nonconverged_calls"] = _median(
        len(r["known_defects"]) for r in traced + untraced if r["checked"])
    metrics["cli.self_ms"] = _median(r["cli_self_ms"] for r in traced)
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = _median(r["self_s"][layer] for r in traced)
    metrics["trace.overhead"] = (_median(r["wall_s"] for r in traced)
                                 / _median(r["wall_s"] for r in untraced))
    return metrics


def verdict(runner: Runner) -> dict:
    """Failures of the checked session, plus every repeat whose outputs differ from it.

    A repeat makes the same seeded calls, so any difference from the checked
    outputs is a failure; all of that repeat's operations count as failed.
    """
    sessions = runner.by_mode("run", "trace")
    (checked,) = [r for r in sessions if r["checked"]]
    differing = [r for r in sessions if r["digest"] != checked["digest"]]
    problems = list(checked["failures"])
    if differing:
        problems.append(f"{len(differing)} repeats of the seed gave other outputs")
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in sessions),
            "failed": checked["failed"] + sum(r["attempted"] for r in differing),
            "problems": problems,
            "known_defects": sorted(checked["known_defects"])}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="twoshock benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt so subprocess.run kills and reaps the session.
    signal.signal(signal.SIGTERM, _terminate)

    started = time.monotonic()
    load_before = os.getloadavg()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "twoshock", "__init__.py")):
            raise BenchError(f"no twoshock sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(OUT, exist_ok=True)
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
        runner = Runner(args.workload, args.seed, started,
                        trace_out=os.path.join(OUT, f"{name}-spans.ndjson.gz"))
        if args.trace:
            runner.repeat(("run", "trace"), args.seconds, 1)
            runner.session("micro")
            metrics, units = per_layer_metrics(runner), _units("per_layer")
        else:
            runner.repeat(("run",), args.seconds, MIN_SESSIONS)
            metrics, units = end_to_end_metrics(runner), _units("end_to_end")
    except (BenchError, OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    outcome = verdict(runner)
    for problem in outcome["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for defect in outcome["known_defects"]:
        print(f"known defect: {defect}", file=sys.stderr)
    result = {"correct": outcome["correct"], "attempted": outcome["attempted"],
              "failed": outcome["failed"],
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    sessions = len(runner.by_mode("run"))
    print(f"{sessions} untraced sessions, {len(runner.by_mode('setup'))} set-up-only sessions",
          file=sys.stderr)
    record = {"args": vars(args), "environment": _environment(), "run_sessions": sessions,
              "load_before": load_before, "load_after": os.getloadavg(),
              "elapsed_s": time.monotonic() - started, "result": result,
              "known_defects": outcome["known_defects"], "problems": outcome["problems"],
              "sessions": runner.reports}
    with open(os.path.join(OUT, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for key, entry in result["metrics"].items():
        print(f"{key:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
