"""Output checks: every result of a session against bench/oracles.py.

Nothing here imports twoshock or evaluates a quantity with it: results
arrive as plain values (floats, CSV text, simulation summaries read through
their public accessors), and references come from the oracles.  A check records a failed operation with a message; an
operation that raised is a failure too, except for known defects, which are
recorded by name so they stay visible without failing the run.
"""

from __future__ import annotations

import csv
import io

import oracles
from workloads import Ledger


class Verdict:
    """Failed operations of one session, plus known defects seen as expected errors."""

    def __init__(self, ledger: Ledger):
        self._ledger = ledger
        self.failed = set()
        self.messages = []
        self.known_defects = []

    def raw(self, key):
        """The result under key as recorded, exception included."""
        return self._ledger.results[key]

    def value(self, key):
        """The result under key, or None after recording a failure if it raised."""
        value = self.raw(key)
        if isinstance(value, Exception):
            self.fail(key, f"raised {type(value).__name__}: {value}")
            return None
        return value

    def fail(self, key, message: str) -> None:
        self.failed.add(key)
        if len(self.messages) < 20:
            self.messages.append(f"{key}: {message}")

    def close(self, key, got: float, want: float, atol: float = 0.0,
              rtol: float = 0.0) -> None:
        if not abs(got - want) <= atol + rtol * abs(want):
            self.fail(key, f"got {got!r}, reference {want!r}")

    def z(self, key, estimate: float, std_error: float, reference: float) -> None:
        z = oracles.z_score(reference, estimate, std_error)
        if not abs(z) <= oracles.Z_LIMIT:
            self.fail(key, f"estimate {estimate!r} +- {std_error!r} vs reference "
                           f"{reference!r} (z = {z:.2f})")


def _catastrophic_check(inputs: dict, verdict: Verdict) -> None:
    for n, entry in enumerate(inputs["models"]):
        model = entry["model"]
        refs = oracles.catastrophic_survival(model, entry["grid"])
        for j, ref in enumerate(refs):
            key = ("survival", n, j)
            got = verdict.value(key)
            if got is not None:
                verdict.close(key, got, float(ref), atol=oracles.CURVE_ATOL)
        mean = oracles.catastrophic_mean(model)
        got = verdict.value(("mean", n))
        if got is not None:
            verdict.close(("mean", n), got, mean, rtol=oracles.MEAN_RTOL)
        if "mc_grid" in entry:
            sim = verdict.value(("mc", n))
            if sim is None:
                continue
            refs = oracles.catastrophic_survival(model, entry["mc_grid"])
            for ref, est in zip(refs, sim.survival):
                verdict.z(("mc", n), est.mean, est.std_error, float(ref))
            verdict.z(("mc", n), sim.fptf_mean.mean, sim.fptf_mean.std_error, mean)


def _damage_curves_check(inputs: dict, verdict: Verdict) -> None:
    for n, entry in enumerate(inputs["models"]):
        model = entry["model"]
        for j, t in enumerate(entry["grid"]):
            got = verdict.value(("fptf", n, j))
            if got is not None:
                ref = 1.0 - oracles.damage_cdf(model, t, [model["threshold"]])[0]
                verdict.close(("fptf", n, j), got, ref, atol=oracles.DAMAGE_ATOL)
        got = verdict.value(("mean", n))
        if got is not None:
            verdict.close(("mean", n), got, oracles.fptf_mean(model), rtol=oracles.MEAN_RTOL)
    renewal = inputs["renewal"]["model"]
    for j, t in enumerate(inputs["renewal"]["grid"]):
        got = verdict.value(("renewal", j))
        if got is not None:
            ref = oracles.damage_cdf(renewal, t, [renewal["threshold"]])[0]
            verdict.close(("renewal", j), got, ref, atol=oracles.DAMAGE_ATOL)
    mc = inputs["mc"]
    sim = verdict.value("mc")
    if sim is not None:
        model = mc["model"]
        for t in mc["grid"]:
            est = sim.ecdf(t)
            ref = 1.0 - oracles.damage_cdf(model, t, [model["threshold"]])[0]
            verdict.z("mc", est.mean, est.std_error, ref)
        verdict.z("mc", sim.mean.mean, sim.mean.std_error, oracles.fptf_mean(model))


def _damage_levels_check(inputs: dict, verdict: Verdict) -> None:
    for n, pair in enumerate(inputs["pairs"]):
        refs = oracles.damage_cdf(pair["model"], pair["t"], pair["levels"])
        for j, ref in enumerate(refs):
            got = verdict.value(("level", n, j))
            if got is not None:
                verdict.close(("level", n, j), got, ref, atol=oracles.DAMAGE_ATOL)
    wide = inputs["wide"]
    got = verdict.value("wide")
    if got is not None:
        ref = oracles.convolution_cdf(wide["a"], wide["ra"], wide["b"], wide["rb"], wide["x"])
        verdict.close("wide", got, ref, atol=oracles.CONVOLUTION_ATOL)
    for key in ("long_series", "edge"):
        case = inputs[key]
        value = verdict.raw(key)
        # Matched by name, as this module never imports twoshock.
        if key == "edge" and type(value).__name__ == "NonConvergedError":
            # Known defect: exp(-mean) underflows in the Poisson weights.
            verdict.known_defects.append(f"edge: {value}")
            continue
        got = verdict.value(key)
        if got is not None:
            ref = oracles.damage_cdf(case["model"], case["t"], [case["x"]])[0]
            verdict.close(key, got, ref, atol=oracles.DAMAGE_ATOL)
    for n, model in enumerate(inputs["mean_models"]):
        got = verdict.value(("mean", n))
        if got is not None:
            verdict.close(("mean", n), got, oracles.fptf_mean(model), rtol=oracles.MEAN_RTOL)
    mc = inputs["mc"]
    sim = verdict.value("mc")
    if sim is not None:
        for i, t in enumerate(mc["grid"]):
            est = sim.ecdf(i, t)
            verdict.z("mc", est.mean, est.std_error, oracles.damage_cdf(mc["model"], t, [t])[0])


def _csv_rows(text: str) -> list:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _expect_rows(verdict: Verdict, key, rows: list, grid: str) -> None:
    """A MIN:MAX:STEPS grid must give STEPS rows."""
    if len(rows) != int(grid.split(":")[2]):
        verdict.fail(key, f"{len(rows)} rows for grid {grid}")


def _mc_oracle_check(inputs: dict, verdict: Verdict) -> None:
    models = inputs["models"]
    cum = models["cumulative"]
    for key in (k for k in models if k.startswith("curve")):
        text = verdict.value(key)
        if text is not None:
            rows = _csv_rows(text)
            _expect_rows(verdict, key, rows, inputs["survival_grid"])
            refs = oracles.catastrophic_survival(models[key], [row["t"] for row in rows])
            for row, ref in zip(rows, refs):
                verdict.close(key, row["value"], float(ref), atol=oracles.CURVE_ATOL)
    text = verdict.value("fptf")
    if text is not None:
        rows = _csv_rows(text)
        _expect_rows(verdict, "fptf", rows, inputs["fptf_grid"])
        for row in rows:
            ref = 1.0 - oracles.damage_cdf(cum, row["t"], [cum["threshold"]])[0]
            verdict.close("fptf", row["value"], ref, atol=oracles.DAMAGE_ATOL)
    for key in (k for k in models if k.startswith("mean")):
        text = verdict.value(key)
        if text is not None:
            verdict.close(key, float(text), oracles.catastrophic_mean(models[key]),
                          rtol=oracles.MEAN_RTOL)
    references = {
        "crossing": lambda t: 1.0 - oracles.damage_cdf(cum, t, [cum["threshold"]])[0],
        "damage": lambda t: oracles.damage_cdf(cum, t, [inputs["damage_x"]])[0],
        "catastrophic": lambda t: float(oracles.catastrophic_survival(models["curve0"], t)),
    }
    atols = {"crossing": oracles.DAMAGE_ATOL, "damage": oracles.DAMAGE_ATOL,
             "catastrophic": oracles.CURVE_ATOL}
    for key, reference in references.items():
        text = verdict.value(key)
        if text is None:
            continue
        rows = _csv_rows(text)
        if len(rows) != len(inputs[f"{key}_points"]):
            verdict.fail(key, f"{len(rows)} rows")
        for row in rows:
            ref = reference(row["t"])
            verdict.close(key, row["analytic"], ref, atol=atols[key])
            verdict.z(key, row["estimate"], row["std_error"], ref)
            if not abs(row["z"]) <= oracles.Z_LIMIT:
                verdict.fail(key, f"reported z = {row['z']}")


_CHECKS = {"catastrophic": _catastrophic_check, "damage_curves": _damage_curves_check,
           "damage_levels": _damage_levels_check, "mc_oracle": _mc_oracle_check}


def check(workload: str, data: dict, ledger: Ledger) -> Verdict:
    verdict = Verdict(ledger)
    _CHECKS[workload](data, verdict)
    return verdict
