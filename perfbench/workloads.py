"""Inputs, operations and output checks of the three benchmark workloads.

Every input is generated from the benchmark seed; the program receives only
the generated inputs.  Each workload is a closed loop with one operation in
flight: ``run`` is the timed call and ``account`` checks its output outside
the timed region.  ``account`` returns (work attempted, work failed, reason):
the unit of work is a command, a fit or a Monte Carlo generation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import interpreter_start, python_loop
from hyperfit.fitting import FitConfig, fit_double_exp, fit_linear, fit_singularity
from hyperfit.fixtures import PRESETS, episode, fixture_path
from hyperfit.montecarlo import MCConfig, run_mc, sample_generation
from hyperfit.report import build_report
from hyperfit.series import build_price_index, load_series

FITTERS = {"linear": fit_linear, "doubleexp": fit_double_exp, "singularity": fit_singularity}
MODELS = tuple(FITTERS)

#: Perturbed copies of each fixture in fit-direct, drawn at this relative error.
FIT_PERTURBATIONS = 7
FIT_DI = 0.1

#: The mc-resample cases: the paper's headline case (Peru, many stalled
#: refits), a monthly n = 38 case with no drops (Yugoslavia) and a case
#: with many truncation redraws (Germany at 50 percent).
MC_CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5))
MC_M = 4000


def load_fixture(name: str):
    """Bundled synthetic rate CSV, read with its episode's day convention."""
    return load_series(fixture_path(name), day_convention=episode(name).day_convention)


def fit_fields(report_data: dict) -> dict:
    return {k: v for k, v in report_data.items() if k.startswith("fit.")}


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class CliFit:
    """Fresh ``python -m hyperfit.cli fit`` processes over fixtures x models."""

    name = "cli-fit"
    window = 3
    work_per_op = 1
    kernel = staticmethod(interpreter_start)

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.out = root / ".perfbench_out" / "cli-fit.json"
        self.out.parent.mkdir(exist_ok=True)
        self.out.unlink(missing_ok=True)
        pairs = [(f, m) for f in PRESETS for m in MODELS]
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.reference = {}
        for fixture, model in pairs:
            index = build_price_index(load_fixture(fixture))
            fit = FITTERS[model](index, config=FitConfig())
            self.reference[fixture, model] = fit_fields(build_report(fit, index).data)

    def argv(self, op) -> list[str]:
        fixture, model = op
        return ["fit", str(fixture_path(fixture)), "--model", model,
                "--day-convention", episode(fixture).day_convention, "--out", str(self.out)]

    def ops(self):
        return itertools.cycle(self.pairs)

    def warm_up(self) -> None:
        op = self.pairs[0]
        self.account(op, self.run(op))

    def run(self, op):
        return subprocess.run([sys.executable, "-m", "hyperfit.cli", *self.argv(op)],
                              cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)

    def account(self, op, proc):
        if proc.returncode != 0:
            return 1, 1, f"{op}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            text = self.out.read_text(encoding="utf-8")
        except FileNotFoundError:
            return 1, 1, f"{op}: no report written"
        self.out.unlink()   # a later op that writes nothing must not pass on this file
        return (1, *self.check_report(op, text))

    def check_report(self, op, text: str):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return 1, f"{op}: report is not JSON: {exc}"
        if data.get("fit.converged") is not True:
            return 1, f"{op}: fit did not converge"
        if fit_fields(data) != self.reference[op]:
            return 1, f"{op}: fit.* differ from the in-process fit"
        return 0, None

    def finish(self):
        self.out.unlink(missing_ok=True)
        return []


class FitDirect:
    """Warm in-process fit_* calls on noiseless and perturbed fixtures."""

    name = "fit-direct"
    work_per_op = 1
    kernel = staticmethod(python_loop)

    def __init__(self, seed: int) -> None:
        children = np.random.SeedSequence(seed).spawn(len(PRESETS))
        self.inputs = []      # (label, price index, expected singular params or None)
        for (name, preset), child in zip(PRESETS.items(), children):
            rates = load_fixture(name)
            # Cumulated rates start at ln P(t0) = 0, so the preset's p0 reads 0.
            expected = dataclasses.replace(preset.params, p0=0.0)
            self.inputs.append((name, build_price_index(rates), expected))
            for k, grand in enumerate(child.spawn(FIT_PERTURBATIONS)):
                sample = sample_generation(rates, FIT_DI, np.random.default_rng(grand))
                self.inputs.append((f"{name}~{k}", build_price_index(sample), None))
        order = list(range(len(self.inputs)))
        random.Random(seed).shuffle(order)
        # Input-major so each input's linear SSR is known before its double-exp fit.
        self.cycle = [(i, model) for i in order for model in MODELS]
        self.window = len(self.cycle)
        self._linear_ssr: dict[int, float] = {}

    def ops(self):
        return itertools.cycle(self.cycle)

    def warm_up(self) -> None:
        for op in self.cycle:
            self.account(op, self.run(op))

    def run(self, op):
        i, model = op
        return FITTERS[model](self.inputs[i][1])

    def account(self, op, fit):
        i, model = op
        label, _, expected = self.inputs[i]
        params = [float(v) for v in vars(fit.params).values()]
        if not (fit.converged and _finite(fit.objective, *params)):
            return 1, 1, f"{label}/{model}: not converged or not finite"
        if model == "linear":
            self._linear_ssr[i] = fit.objective
        linear_ssr = self._linear_ssr.get(i, math.inf)
        if model == "doubleexp" and not fit.objective <= linear_ssr:
            return 1, 1, f"{label}: double-exp SSR {fit.objective} > linear {linear_ssr}"
        if model == "singularity" and expected is not None:
            reason = criterion_1(fit, expected)
            if reason:
                return 1, 1, f"{label}: {reason}"
        return 1, 0, None

    def finish(self):
        return []


def criterion_1(fit, true) -> str | None:
    """Round-trip tolerances of acceptance criterion 1 on a noiseless input."""
    got = fit.params
    span = true.tc - true.t0
    checks = (
        ("chi", fit.chi < 1e-6),
        ("tc", abs((got.tc - got.t0) - span) <= 1e-3 * span),
        ("alpha", abs(got.alpha - true.alpha) <= 1e-3 * true.alpha),
        ("c0", abs(got.c0 - true.c0) <= 1e-3 * true.c0),
        ("p0", abs(got.p0 - true.p0) <= 1e-3 * max(abs(true.p0), 1e-3)),
    )
    bad = [name for name, ok in checks if not ok]
    return f"preset not recovered: {bad}" if bad else None


def mc_digest(report) -> str:
    """Hash of every field of an MCReport, floats at full precision."""
    h = hashlib.sha256()
    for key, value in sorted(vars(report).items()):
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class McResample:
    """Warm run_mc calls at m = 4000, cycling through MC_CASES."""

    name = "mc-resample"
    window = len(MC_CASES)
    work_per_op = MC_M
    kernel = staticmethod(python_loop)

    def __init__(self, seed: int) -> None:
        self.base = seed * 1_000_000
        self.cases = [(name, load_fixture(name), di) for name, di in MC_CASES]
        self.first_run: dict[int, tuple[int, str, int]] = {}   # case -> (op, digest, dropped)

    def ops(self):
        return itertools.count()

    def config(self, op: int, m: int = MC_M) -> tuple[str, object, MCConfig]:
        name, rates, di = self.cases[op % len(self.cases)]
        return name, rates, MCConfig(di=di, m=m, seed=self.base + op)

    def run(self, op: int):
        _, rates, mc = self.config(op)
        return run_mc(rates, FitConfig(), mc)

    def warm_up(self) -> None:
        for op in range(len(self.cases)):
            _, rates, mc = self.config(op, m=MC_M // 20)
            run_mc(rates, FitConfig(), mc)

    def time_sampling(self, op: int) -> float:
        """Side measurement: draw op's generations the way run_mc seeds them."""
        _, rates, mc = self.config(op)
        started = time.perf_counter()
        for child in np.random.SeedSequence(mc.seed).spawn(mc.m):
            sample_generation(rates, mc.di, np.random.default_rng(child))
        return time.perf_counter() - started

    def account(self, op, report):
        name = self.config(op)[0]
        reason = moments_problem(report)
        if reason:
            return MC_M, MC_M, f"{name} seed {self.base + op}: {reason}"
        self.first_run.setdefault(op % len(self.cases),
                                  (op, mc_digest(report), report.n_nonconverged))
        return MC_M, report.n_nonconverged, None

    def finish(self):
        """Re-run the first op of each case with its seed; digests must match.

        Returns (further failed work, reason) for each mismatch: the run's
        generations that were not already counted as dropped.
        """
        bad = []
        for op, digest, dropped in self.first_run.values():
            if mc_digest(self.run(op)) != digest:
                bad.append((MC_M - dropped, f"{self.config(op)[0]} seed {self.base + op}: "
                                            "same-seed re-run gave a different report"))
        return bad


def moments_problem(report) -> str | None:
    values = [report.tc_skewness, report.tc_excess_kurtosis]
    for st in report.params.values():
        values += [st.mean, st.std]
    return None if _finite(*values) else "non-finite moments"
