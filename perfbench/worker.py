"""One benchmark process: set up a workload, then run it timed or traced.

Started by ``run.py`` with hyperfit's source tree on PYTHONPATH.  It prints
``ready`` once set-up is done (imports, input generation, warm-up), then, as
its last line, one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path
from statistics import median

from tracing import Tracer, parse_importtime, tail

ROOT = Path(__file__).resolve().parent.parent

#: Full passes over the fit-direct inputs in each traced layer pass.
TRACE_FIT_CYCLES = 2
#: CLI commands timed per traced layer pass, for cli.startup_s.
TRACE_CLI_COMMANDS = 3


def _check_source() -> None:
    import hyperfit

    src = ROOT / "src" / "hyperfit"
    if Path(hyperfit.__file__).resolve().parent != src.resolve():
        raise SystemExit(f"hyperfit imported from {hyperfit.__file__}, not from {src}")


def build(name: str, seed: int):
    from workloads import CliFit, FitDirect, McResample

    if name == "cli-fit":
        return CliFit(ROOT, seed)
    if name == "fit-direct":
        return FitDirect(seed)
    return McResample(seed)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def timed_run(wl, seconds: float) -> dict:
    """Closed loop, one op in flight, until ``seconds`` have passed.

    Op times are scaled to the reference speed (see calibrate.py); the raw
    median is kept for the printout.
    """
    from calibrate import Calibrator

    cal = Calibrator(wl.kernel)
    raw: list[float] = []
    slices: list[int] = []
    works: list[int] = []
    failed = failed_ops = 0
    reasons: list[str] = []
    ops = wl.ops()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        slices.append(cal.tick())
        op = next(ops)
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            elapsed = time.perf_counter() - t0
            work, bad, reason = wl.work_per_op, wl.work_per_op, f"{op}: raised {exc!r}"
        else:
            elapsed = time.perf_counter() - t0
            work, bad, reason = wl.account(op, out)
        raw.append(elapsed)
        works.append(work)
        failed += bad
        if reason:
            failed_ops += 1
            reasons.append(reason)
    times = [t * f for t, f in zip(raw, cal.scales(slices))]
    for bad, reason in wl.finish():
        failed += bad
        failed_ops += 1
        reasons.append(reason)
    w = wl.window
    window_rates = [sum(works[i:i + w]) / sum(times[i:i + w])
                    for i in range(0, len(times) - w + 1, w)]
    op_tail, tail_pct = tail(times)
    return {
        "ops": len(times),
        "failed_ops": failed_ops,
        "work_attempted": sum(works),
        "work_failed": failed,
        "reasons": reasons[:10],
        "op_p50_s": median(times),
        "op_tail_s": op_tail,
        "tail_pct": tail_pct,
        "work_per_s": median(window_rates) if window_rates else sum(works) / sum(times),
        "windows": len(window_rates),
        "peak_rss_mb": peak_rss_mb(children=wl.name == "cli-fit"),
        "raw_op_p50_s": median(raw),
        "speed": cal.speed(),
        "calibrations": len(cal.samples),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def profile_imports() -> dict:
    """``import hyperfit.cli`` under ``-X importtime`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hyperfit.cli"],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    return parse_importtime(proc.stderr)


class LayerPass:
    """Every layer once per pass, each in-process op traced and untraced.

    Spans come from wrappers around the functions one hyperfit module calls
    from another, named after the attribute they replace, plus one root
    span per op from this file.  Each traced op is paired with an untraced
    run of the same op; the paired difference is the tracing overhead, and
    equal outputs show that tracing changed nothing.
    """

    def __init__(self, seed: int) -> None:
        import hyperfit.cli
        import hyperfit.montecarlo
        import hyperfit.report
        from workloads import MODELS, CliFit, FitDirect, McResample

        self.cli_main = hyperfit.cli.main
        self.cli = CliFit(ROOT, seed)
        self.fit = FitDirect(seed)
        self.mc = McResample(seed)
        for wl in (self.cli, self.fit, self.mc):
            wl.warm_up()
        t = self.tracer = Tracer()
        for module, attr in ((hyperfit.cli, "load_series"), (hyperfit.cli, "build_price_index"),
                             (hyperfit.cli, "build_report"),
                             (hyperfit.montecarlo, "fit_singularity"),
                             (hyperfit.montecarlo, "build_price_index")):
            t.target(module, attr, f"{module.__name__.split('.')[1]}.{attr}")
        t.target(hyperfit.report.AnalysisReport, "to_json", "report.AnalysisReport.to_json")
        self.passes = 0
        self.ops = 0
        self.failed_ops = 0
        self.reasons: list[str] = []
        self.imports: list[dict] = []
        self.overhead = {"cli": [], "fit": [], "mc": []}
        self.cli_commands: list[float] = []
        self.cycle_counts = {"series.points": 0, "report.bytes": 0}
        self.nfev = {m: 0 for m in MODELS}
        self.converged = []
        self.mc_cases: dict[str, dict[str, list]] = {}

    def _fail(self, reason: str | None) -> None:
        self.ops += 1
        if reason:
            self.failed_ops += 1
            self.reasons.append(reason)

    def _pair(self, kind: str, k: int, call, root: str):
        """Run ``call`` traced and untraced, alternating which goes first.

        Wrappers are installed and removed outside the timed region.
        Returns (traced result, its root span index, untraced result).
        """
        self.tracer.op += 1
        out, took = {}, {}
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            with self.tracer.patched() if traced else contextlib.nullcontext():
                started = time.perf_counter()
                if traced:
                    with self.tracer.span(root) as idx:
                        out[traced] = call()
                else:
                    out[traced] = call()
                took[traced] = time.perf_counter() - started
        self.overhead[kind].append(took[True] - took[False])
        return out[True], idx, out[False]

    def run_pass(self) -> None:
        self.imports.append(profile_imports())
        self._cli_pass()
        self._fit_pass()
        self._mc_pass()
        self.passes += 1

    def _main(self, argv: list[str]):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli_main(argv)
        return rc, self.cli.out.read_text(encoding="utf-8")

    def _cli_pass(self) -> None:
        cli = self.cli
        for k, op in enumerate(cli.pairs):
            argv = cli.argv(op)
            traced, _, plain = self._pair("cli", k, lambda: self._main(argv), "cli.main")
            for rc, text in (traced, plain):
                bad = 1 if rc != 0 else cli.check_report(op, text)[0]
                self._fail(f"{op}: in-process main failed its check" if bad else None)
            if self.passes == 0:
                self.cycle_counts["series.points"] += json.loads(traced[1])["series.n_points"]
                self.cycle_counts["report.bytes"] += len(traced[1].encode("utf-8"))
        start = self.passes * TRACE_CLI_COMMANDS
        for i in range(start, start + TRACE_CLI_COMMANDS):
            op = cli.pairs[i % len(cli.pairs)]
            started = time.perf_counter()
            proc = cli.run(op)
            self.cli_commands.append(time.perf_counter() - started)
            self._fail(cli.account(op, proc)[2])
        cli.finish()

    def _fit_pass(self) -> None:
        fit = self.fit
        for cycle in range(TRACE_FIT_CYCLES):
            for k, op in enumerate(fit.cycle):
                model = op[1]
                res, _, plain = self._pair("fit", k, lambda: fit.run(op), f"fitting.{model}")
                reason = fit.account(op, res)[2]
                if reason is None and vars(res.params) != vars(plain.params):
                    reason = f"{op}: traced and untraced fits differ"
                self._fail(reason)
                self.converged.append(res.converged)
                if self.passes == 0 and cycle == 0:
                    self.nfev[model] += res.iterations

    def _mc_pass(self) -> None:
        from workloads import mc_digest

        mc, tracer = self.mc, self.tracer
        for c in range(len(mc.cases)):
            op = self.passes * len(mc.cases) + c
            name, _, config = mc.config(op)
            report, idx, plain = self._pair("mc", c, lambda: mc.run(op), "montecarlo.run_mc")
            reason = mc.account(op, report)[2]
            if reason is None and mc_digest(report) != mc_digest(plain):
                reason = f"{name} seed {config.seed}: traced and untraced reports differ"
            self._fail(reason)
            case = self.mc_cases.setdefault(name, {k: [] for k in (
                "run_mc", "self", "sample", "dropped", "truncated", "accepted", "gaussian")})
            case["run_mc"].append(tracer.duration(idx))
            case["self"].append(tracer.self_times()[idx])
            case["sample"].append(mc.time_sampling(op))
            case["dropped"].append(report.n_nonconverged)
            case["truncated"].append(report.truncated_draws)
            case["accepted"].append(report.accepted)
            case["gaussian"].append(report.gaussian_ok)

    def metrics(self) -> dict[str, float]:
        from workloads import MC_M

        t = self.tracer
        out = {k: median([p[k] for p in self.imports]) for k in self.imports[0]}
        main_s = median(t.durations("cli.main"))
        out["cli.main_s"] = main_s
        out["cli.startup_s"] = median(self.cli_commands) - main_s
        out["series.load_series_ms"] = 1e3 * median(t.durations("cli.load_series"))
        out["series.build_price_index_ms"] = 1e3 * median(t.durations("cli.build_price_index"))
        out["series.points"] = self.cycle_counts["series.points"]
        for model, nfev in self.nfev.items():
            times = t.durations(f"fitting.{model}")
            out[f"fitting.{model}_p50_ms"] = 1e3 * median(times)
            out[f"fitting.{model}_tail_ms"] = 1e3 * tail(times)[0]
            out[f"fitting.{model}_nfev"] = nfev
        out["fitting.converged_frac"] = sum(self.converged) / len(self.converged)
        for name, case in self.mc_cases.items():
            pre = f"montecarlo.{name}."
            out[pre + "run_mc_s"] = median(case["run_mc"])
            out[pre + "run_mc_self_s"] = median(case["self"])
            out[pre + "sample_s"] = median(case["sample"])
            out[pre + "refit_s"] = out[pre + "run_mc_self_s"] - out[pre + "sample_s"]
            out[pre + "dropped"] = median(case["dropped"])
            out[pre + "kept_frac"] = 1.0 - sum(case["dropped"]) / (MC_M * len(case["dropped"]))
            out[pre + "truncated_draws"] = median(case["truncated"])
            out[pre + "accepted_frac"] = sum(case["accepted"]) / len(case["accepted"])
            out[pre + "gaussian_ok_frac"] = sum(case["gaussian"]) / len(case["gaussian"])
        out["report.build_report_ms"] = 1e3 * median(t.durations("cli.build_report"))
        out["report.to_json_ms"] = 1e3 * median(t.durations("report.AnalysisReport.to_json"))
        out["report.bytes"] = self.cycle_counts["report.bytes"]
        for kind, diffs in self.overhead.items():
            out[f"trace.{kind}_overhead_us"] = 1e6 * median(diffs)
        return out


def traced_run(lp: LayerPass, seconds: float, spans_path: Path) -> dict:
    """Layer passes while another pass as long as the last one still fits."""
    deadline = time.perf_counter() + seconds
    last = 0.0
    while lp.passes == 0 or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        lp.run_pass()
        last = time.perf_counter() - started
    spans_path.write_text("".join(json.dumps(r) + "\n" for r in lp.tracer.records()),
                          encoding="utf-8")
    return {
        "ops": lp.ops,
        "failed_ops": lp.failed_ops,
        "reasons": lp.reasons[:10],
        "passes": lp.passes,
        "spans": len(lp.tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "cli_commands": len(lp.cli_commands),
        "layers": lp.metrics(),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    warnings.simplefilter("ignore")   # fit warnings on perturbed inputs are expected
    _check_source()
    if args.trace:
        subject = LayerPass(args.seed)
    else:
        subject = build(args.workload, args.seed)
        subject.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        result = traced_run(subject, args.seconds, spans)
    else:
        result = timed_run(subject, args.seconds)
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
