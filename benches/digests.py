"""sha256 digests of every Monte Carlo draw and report and every direct fit.

For the hyperfit tree on PYTHONPATH this prints five digests:

- ``draws``: every ``montecarlo._draw_generations`` sample array and
  truncation count on the mc-resample cases and seeds below, printed first,
  within seconds, so that a sampling change can be checked alone;
- ``fit``: ``fit_linear``, ``fit_double_exp`` and ``fit_singularity`` on
  the five bundled episodes, noiseless and with the seven perturbations at
  di = 0.1 that ``fit_layers.py`` draws from seed 1, p0 free and pinned;
- ``mc``: ``run_mc`` on the mc-resample cases (Peru and Yugoslavia at
  di = 0.25, Germany at di = 0.5), m = 4000, master seeds
  1000000-1000044 and 20080605, p0 free and pinned;
- ``counts``: the same runs, hashing only each report's ``COUNT_FIELDS``:
  the outcome counts and the flags;
- ``wide``: ``run_mc`` on every bundled episode at di = 0.25 and 0.5,
  m = 4000, master seeds 1000000-1000011, p0 free and pinned (240 runs),
  the drift budget of an engine change: it reaches the Greece and Zimbabwe
  refits and the di = 0.5 tails that the ``mc`` cases do not.

Every input starts from the bundled CSVs (``mc_layers.fixture_rates``), not
from the tree's own fixture generator, so two trees are compared on the
same inputs.  ``fit`` and ``mc`` take named values, stored or derived
(``FIT_VALUES``, ``MC_VALUES``): floats at full precision, arrays as bytes
(residuals included), each fit's ``iterations``, ``converged``, model and
free-parameter count, and each report's moments, outcome counts and flags.
Equal digests on two trees mean the same results, bit for bit, however each
tree splits them between fields and properties.  A change that moves values
only at optimizer tolerance changes those two, and an equal ``counts``
digest then shows that every run still puts as many generations in each
class:

    PYTHONPATH=src python benches/digests.py
    PYTHONPATH=/path/to/parent/src python benches/digests.py

``--save PATH`` also writes the values behind the digests as JSON: each
run's moments (``mean.tc``, ``std.tc``, ..., ``skew.tc``, ``kurt.tc``) and
``COUNT_FIELDS`` (the outcome counts as ``outcome.stalled`` and so on), for
the ``mc`` and the ``wide`` runs, and each fit's parameters, objective and
LM rounds.  ``--against PATH`` reads such a file from another tree and
prints, per field (for the fits, per field of each model: linear,
doubleexp, singularity), the largest relative drift of this tree's values
from it, with the absolute drift and the run or fit where the largest one
occurs (a reference of exactly 0 that moves reads as an infinite relative
drift); then, for the ``mc`` and then the ``wide`` runs, every run whose
counts moved, with each moved field's reference and new value, and per
moved field its total over all runs:

    PYTHONPATH=/path/to/parent/src python benches/digests.py --save parent.json
    PYTHONPATH=src python benches/digests.py --against parent.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np

from fit_layers import case_indexes
from hyperfit import montecarlo
from hyperfit.fitting import (FitConfig, FitError, FitResult, fit_double_exp, fit_linear,
                              fit_singularity)
from hyperfit.fixtures import PRESETS
from hyperfit.montecarlo import MCConfig, MCReport, run_mc
from mc_layers import fixture_rates

MC_CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5))
MC_SEEDS = (*range(1_000_000, 1_000_045), 20080605)
WIDE_CASES = tuple((name, di) for name in PRESETS for di in (0.25, 0.5))
WIDE_SEEDS = tuple(range(1_000_000, 1_000_012))
M = 4000
FIT_SEED = 1
CONFIGS = (FitConfig(), FitConfig(pin_p0=True))
COUNT_FIELDS = ("outcome", "n_nonconverged", "accepted", "gaussian_ok", "unreliable")
#: What a ``FitResult`` and an ``MCReport`` digest hash, stored or derived: a
#: value that moves between a field and a property moves no digest.
FIT_VALUES = ("model", "params", "residuals", "converged", "iterations", "n_free_params",
              "p0_pinned")
MC_VALUES = ("config", "direct", "params", "outcome", "truncated_draws", "tc_skewness",
             "tc_excess_kurtosis", "n_nonconverged", "accepted", "gaussian_ok", "unreliable")


def feed(h, value) -> None:
    """Hash value's type and content, recursing into dataclasses and dicts.

    A ``FitResult`` is hashed as the dict of its ``FIT_VALUES``, an
    ``MCReport`` as that of its ``MC_VALUES``, any other dataclass as the
    dict of its fields.
    """
    h.update(type(value).__name__.encode())
    named = {FitResult: FIT_VALUES, MCReport: MC_VALUES}.get(type(value))
    if named:
        value = {name: getattr(value, name) for name in named}
    elif dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            feed(h, value[key])
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def pinning(config: FitConfig) -> str:
    return "pinned" if config.pin_p0 else "free"


def draws_digest() -> str:
    """The ``draws`` digest: each case and seed's samples and truncation count."""
    h = hashlib.sha256()
    for name, di in MC_CASES:
        rates = fixture_rates(name).rates
        out = np.empty((M, len(rates)))
        for seed in MC_SEEDS:
            feed(h, montecarlo._draw_generations(rates, di, seed, out))
            feed(h, out)
    return h.hexdigest()


def run_counts(report) -> dict:
    """A report's ``COUNT_FIELDS`` as JSON values, each outcome count as its own field."""
    counts = {f"outcome.{kind}": n for kind, n in report.outcome.items()}
    for field in COUNT_FIELDS:
        if field != "outcome":
            counts[field] = getattr(report, field)
    return counts


def mc_digests(cases, seeds, moments: dict, counts: dict) -> tuple[str, str]:
    """The digests of every report and of its ``COUNT_FIELDS`` over the runs.

    The runs are every (episode, di) of cases under each of ``CONFIGS`` and
    seeds.  Fills moments[run] with the run's moments and counts[run] with
    its ``run_counts``; run is "episode pinning seed", with di after the
    episode when cases hold an episode twice.
    """
    whole, counted = hashlib.sha256(), hashlib.sha256()
    tag_di = len({name for name, _ in cases}) < len(cases)
    for name, di in cases:
        rates = fixture_rates(name)
        for config in CONFIGS:
            for seed in seeds:
                report = run_mc(rates, config, MCConfig(di=di, m=M, seed=seed))
                feed(whole, report)
                feed(counted, {field: getattr(report, field) for field in COUNT_FIELDS})
                run = f"{name} {di} " if tag_di else f"{name} "
                run += f"{pinning(config)} {seed}"
                moments[run] = {
                    **{f"{moment}.{param}": getattr(stats, moment)
                       for param, stats in report.params.items() for moment in ("mean", "std")},
                    "skew.tc": report.tc_skewness, "kurt.tc": report.tc_excess_kurtosis}
                counts[run] = run_counts(report)
    return whole.hexdigest(), counted.hexdigest()


def fit_digest(values: dict) -> str:
    """The ``fit`` digest; fills values[fit] with each fit's parameters, objective and rounds."""
    h = hashlib.sha256()
    for name in PRESETS:
        for k, index in enumerate(case_indexes(name, FIT_SEED)):
            for config in CONFIGS:
                for fit in (fit_linear, fit_double_exp, fit_singularity):
                    try:
                        result = fit(index, config=config)
                    except FitError as exc:
                        feed(h, str(exc))
                        continue
                    feed(h, result)
                    values[f"{result.model} {name} {k} {pinning(config)}"] = {
                        **vars(result.params), "objective": result.objective,
                        "iterations": result.iterations}
    return h.hexdigest()


def drift(values: dict, reference: dict) -> dict[str, tuple[float, float, str]]:
    """Per field: the largest |value - reference| / |reference|, its absolute drift and where.

    Only runs or fits, and fields, present in both are compared.
    """
    worst: dict[str, tuple[float, float, str]] = {}
    for key, fields in values.items():
        for field, value in fields.items():
            ref = reference.get(key, {}).get(field)
            if ref is None:
                continue
            diff = abs(value - ref)
            rel = diff / abs(ref) if ref else (0.0 if diff == 0.0 else math.inf)
            if field not in worst or rel > worst[field][0]:
                worst[field] = (rel, diff, key)
    return worst


def by_model(fits: dict) -> dict[str, dict]:
    """Fit values split by model (linear, doubleexp, singularity): each key's first word."""
    groups: dict[str, dict] = {}
    for key, fields in fits.items():
        groups.setdefault(key.split()[0], {})[key] = fields
    return groups


def moved_counts(values: dict, reference: dict) -> dict[str, dict[str, tuple]]:
    """Per run in both: each count field whose value moved, as (reference, value)."""
    moved = {}
    for run, fields in values.items():
        ref = reference.get(run, {})
        changes = {field: (ref[field], value) for field, value in fields.items()
                   if field in ref and ref[field] != value}
        if changes:
            moved[run] = changes
    return moved


def print_moved_counts(kind: str, values: dict, reference: dict) -> None:
    """Every run of kind whose counts moved, then each moved outcome's total over all runs."""
    moved = moved_counts(values, reference)
    print(f"{kind}: {len(moved)} of {len(values)} runs moved")
    for run, changes in moved.items():
        print(f"{kind} {run}: " + ", ".join(f"{field} {ref} -> {value}"
                                            for field, (ref, value) in changes.items()))
    for field in sorted({field for changes in moved.values() for field in changes}):
        if field.startswith("outcome."):
            total = sum(fields[field] for fields in values.values())
            ref_total = sum(fields[field] for fields in reference.values())
            print(f"{kind} total {field}: {ref_total} -> {total}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", type=Path, help="write the values behind the digests here")
    parser.add_argument("--against", type=Path, help="print the drift from this saved file")
    args = parser.parse_args()
    values: dict[str, dict] = {"fit": {}, "mc": {}, "counts": {}, "wide": {}, "wide_counts": {}}
    with warnings.catch_warnings():         # perturbed ends may not be strictly rising
        warnings.simplefilter("ignore")
        print("draws ", draws_digest(), flush=True)
        print("fit   ", fit_digest(values["fit"]), flush=True)
        mc, counts = mc_digests(MC_CASES, MC_SEEDS, values["mc"], values["counts"])
        print("mc    ", mc)
        print("counts", counts, flush=True)
        wide, _ = mc_digests(WIDE_CASES, WIDE_SEEDS, values["wide"], values["wide_counts"])
        print("wide  ", wide)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    if args.against:
        reference = json.loads(args.against.read_text())
        for kind in ("mc", "wide", "fit"):
            unmatched = values[kind].keys() ^ reference.get(kind, {}).keys()
            if unmatched:
                print(f"{kind}: {len(unmatched)} in one file only, e.g. {min(unmatched)}")
        fits, ref_fits = by_model(values["fit"]), by_model(reference["fit"])
        for kind, current, ref in [(kind, values[kind], reference.get(kind, {}))
                                   for kind in ("mc", "wide")] + [
                (f"fit {model}", fits[model], ref_fits.get(model, {})) for model in fits]:
            for field, (rel, diff, key) in sorted(drift(current, ref).items()):
                print(f"{kind} {field:12s} rel {rel:.2e}  abs {diff:.2e}  at {key}")
        for kind in ("counts", "wide_counts"):
            if kind in reference:
                print_moved_counts(kind, values[kind], reference[kind])
            else:
                print(f"{kind}: the reference file holds none")


if __name__ == "__main__":
    main()
