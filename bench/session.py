"""One fresh benchmark session: import twoshock, build inputs, run, check.

Usage (started by bench/run.py, one process per session):

    python3 bench/session.py --root DIR --workload NAME --seed N --mode MODE [--check 0|1]

MODE is ``setup`` (stop once inputs are built), ``run`` (untraced workload),
``trace`` (workload with spans around every public layer call) or ``micro``
(the layer microcases).  Every session but ``micro`` times the host probe
once its inputs are built.  A ``run`` or ``trace`` session reports a digest
of all its results, and with ``--check 1`` also checks them against the
oracles.  The session imports twoshock from DIR/src only and prints one JSON
object as the last line of standard output.  ``setup_done``
is a CLOCK_MONOTONIC reading, which the parent compares with its own reading
taken just before starting the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_twoshock(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import twoshock
    import twoshock.cli  # the package itself does not import its command line

    location = os.path.dirname(os.path.abspath(twoshock.__file__))
    if os.path.dirname(location) != os.path.abspath(src):
        raise SystemExit(f"twoshock imported from {location}, not from {src}")
    return twoshock


def _host_probe_s() -> float:
    """Median time of a fixed interpreter loop plus a fixed numpy kernel.

    The shared host this benchmark was built on changes speed by up to a
    factor of two over minutes; the probe's time follows those changes, and
    bench/run.py scales the session's timings by it.
    """
    import numpy as np

    rng = np.random.default_rng(1)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        values = rng.random(200_000)
        np.exp(np.sort(values))
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "micro"), required=True)
    parser.add_argument("--trace-out", default=None, help="file for the spans (trace mode)")
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="check the outputs against the oracles (else only digest them)")
    args = parser.parse_args(argv)

    ts = _import_twoshock(args.root)
    sys.path.insert(0, HERE)
    import workloads

    data = workloads.inputs(args.workload, args.seed)
    setup_done = time.monotonic()
    report = {"mode": args.mode, "setup_done": setup_done}
    if args.mode != "micro":
        # Before the workload, so that nothing the program leaves running slows it.
        report["probe_s"] = _host_probe_s()

    if args.mode == "micro":
        import micro

        report["layers"] = micro.run(ts)
    elif args.mode in ("run", "trace"):
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer

            tracer = Tracer(f"{args.workload}:{args.seed}")
            tracer.install(ts)
        ledger = workloads.Ledger()
        workdir = os.path.join(args.root, "bench", "out", f"session-{os.getpid()}")
        started = time.monotonic()
        workloads.execute(ts, args.workload, data, ledger, workdir)
        wall = ledger.last_result - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        report.update(
            wall_s=wall, peak_rss_mb=peak_rss_mb, seconds=ledger.seconds, points=ledger.points, reps=ledger.reps,
            attempted=ledger.attempted, digest=ledger.digest(), checked=bool(args.check),
            failed=0, failures=[], known_defects=[])
        if args.check:
            import checks  # loads scipy.stats; kept out of the set-up time

            verdict = checks.check(args.workload, data, ledger)
            report.update(failed=len(verdict.failed), failures=verdict.messages,
                          known_defects=verdict.known_defects)
        if tracer is not None:
            report.update(self_s=tracer.self_times(), cli_self_ms=tracer.cli_self_ms(),
                          calls_per_level=tracer.calls_per_level(), spans=len(tracer.spans))
            if args.trace_out:
                tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
