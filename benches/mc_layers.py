"""Layer timings of the Monte Carlo loop: rate sampling and batched refit.

On the three mc-resample cases (Peru and Yugoslavia at di = 0.25, Germany
at di = 0.5, m = 4000 generations) this times the two layers of ``run_mc``
that scale with m, plus ``run_mc`` whole for context:

- ``draw_s``: ``montecarlo._draw_generations`` (all m resamples);
- ``refit_s``: ``montecarlo._refit_generations`` (all m refits);
- ``run_mc_s``: the whole call, direct fit and aggregation included.

The package is imported from wherever PYTHONPATH points, so the same script
measures two source trees.  Each call appends its samples under ``--label``
in the output file and recomputes every label's median and quartiles; run
the two trees in alternation to spread machine drift over both:

    PYTHONPATH=src python benches/mc_layers.py --label NAME-change
    PYTHONPATH=/path/to/parent/src python benches/mc_layers.py --label NAME-parent

Every label ending in ``change`` that has a matching ``parent`` label gets
its ratios of medians, change over parent, under ``change_over_parent``.

A tree without ``_draw_generations`` is timed on its per-generation
``_sample_rates`` loop, which is how ``run_mc`` drew before that helper.
Times are raw wall seconds (``time.perf_counter``) after one warm-up pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from hyperfit import montecarlo
from hyperfit.fitting import FitConfig
from hyperfit.fixtures import episode, synthetic_rates
from hyperfit.montecarlo import MCConfig, run_mc
from hyperfit.series import build_price_index

CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5))
M = 4000
LAYERS = ("draw_s", "refit_s", "run_mc_s")


def draw(rates: np.ndarray, di: float, children) -> np.ndarray:
    out = np.empty((len(children), len(rates)))
    if hasattr(montecarlo, "_draw_generations"):
        montecarlo._draw_generations(rates, di, children, out)
    else:
        for j, child in enumerate(children):
            out[j], _ = montecarlo._sample_rates(rates, di, np.random.default_rng(child))
    return out


def time_case(name: str, di: float, seed: int) -> dict[str, float]:
    rates = synthetic_rates(episode(name))
    config = FitConfig()
    direct, t = montecarlo._direct_fit(rates, config)
    children = np.random.SeedSequence(seed).spawn(M)

    started = time.perf_counter()
    samples = draw(rates.rates, di, children)
    draw_s = time.perf_counter() - started

    p_data = np.cumsum(np.log1p(samples), axis=1)
    started = time.perf_counter()
    montecarlo._refit_generations(p_data, t, direct.params, config, 1024)
    refit_s = time.perf_counter() - started

    started = time.perf_counter()
    run_mc(rates, config, MCConfig(di=di, m=M, seed=seed))
    run_mc_s = time.perf_counter() - started
    return {"draw_s": draw_s, "refit_s": refit_s, "run_mc_s": run_mc_s}


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of the measured tree")
    parser.add_argument("--repeats", type=int, default=5, help="seeds per case")
    parser.add_argument("--seed", type=int, default=7, help="first master seed")
    parser.add_argument("--out", type=Path, default=Path("BENCH_mc.json"))
    args = parser.parse_args()

    for name, di in CASES:                  # warm-up: imports, caches, allocator
        time_case(name, di, args.seed - 1)

    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["environment"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "m": M,
        "cases": [f"{name} di={di}" for name, di in CASES],
    }
    runs = data.setdefault("samples", {}).setdefault(args.label, {})
    for k in range(args.repeats):
        for name, di in CASES:
            for layer, value in time_case(name, di, args.seed + k).items():
                runs.setdefault(name, {}).setdefault(layer, []).append(value)

    data["summary"] = {
        label: {name: {layer: summary(case[layer]) for layer in LAYERS}
                for name, case in cases.items()}
        for label, cases in data["samples"].items()
    }
    data["change_over_parent"] = {
        label: {name: {layer: change[name][layer]["median"] / parent[name][layer]["median"]
                       for layer in LAYERS}
                for name in parent}
        for label, change in data["summary"].items()
        if label.endswith("change")
        and (parent := data["summary"].get(label.removesuffix("change") + "parent"))
    }
    args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    for name, case in data["summary"][args.label].items():
        print(args.label, name, {layer: round(s["median"], 4) for layer, s in case.items()})


if __name__ == "__main__":
    main()
