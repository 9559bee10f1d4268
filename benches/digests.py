"""sha256 digests of every Monte Carlo report and every direct fit.

For the hyperfit tree on PYTHONPATH this prints two digests:

- ``mc``: ``run_mc`` on the mc-resample cases (Peru and Yugoslavia at
  di = 0.25, Germany at di = 0.5), m = 4000, master seeds
  1000000-1000044 and 20080605, p0 free and pinned;
- ``fit``: ``fit_linear``, ``fit_double_exp`` and ``fit_singularity`` on
  the five bundled episodes, noiseless and with the seven perturbations at
  di = 0.1 that ``fit_layers.py`` draws from seed 1, p0 free and pinned.

Every field goes into the hash: floats at full precision, arrays as bytes
(residuals included), and each fit's ``iterations`` and ``converged``.  Equal
digests on two trees mean the same results, bit for bit:

    PYTHONPATH=src python benches/digests.py
    PYTHONPATH=/path/to/parent/src python benches/digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np

from fit_layers import case_indexes
from hyperfit.fitting import FitConfig, FitError, fit_double_exp, fit_linear, fit_singularity
from hyperfit.fixtures import PRESETS, episode, synthetic_rates
from hyperfit.montecarlo import MCConfig, run_mc

MC_CASES = (("peru", 0.25), ("yugoslavia", 0.25), ("germany", 0.5))
MC_SEEDS = (*range(1_000_000, 1_000_045), 20080605)
M = 4000
FIT_SEED = 1
CONFIGS = (FitConfig(), FitConfig(pin_p0=True))


def feed(h, value) -> None:
    """Hash value's type and content, recursing into dataclasses and dicts."""
    h.update(type(value).__name__.encode())
    if dataclasses.is_dataclass(value):
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


def mc_digest() -> str:
    h = hashlib.sha256()
    for name, di in MC_CASES:
        rates = synthetic_rates(episode(name))
        for config in CONFIGS:
            for seed in MC_SEEDS:
                feed(h, run_mc(rates, config, MCConfig(di=di, m=M, seed=seed)))
    return h.hexdigest()


def fit_digest() -> str:
    h = hashlib.sha256()
    for name in PRESETS:
        for index in case_indexes(name, FIT_SEED):
            for config in CONFIGS:
                feed(h, fit_linear(index, config=config))
                for fit in (fit_double_exp, fit_singularity):
                    try:
                        feed(h, fit(index, config))
                    except FitError as exc:
                        feed(h, str(exc))
    return h.hexdigest()


def main() -> None:
    with warnings.catch_warnings():         # perturbed ends may not be strictly rising
        warnings.simplefilter("ignore")
        print("fit", fit_digest())
        print("mc ", mc_digest())


if __name__ == "__main__":
    main()
