import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperfit
from hyperfit.fixtures import fixture_path
from hyperfit.models import SingularityParams, eval_singularity
from hyperfit.series import Epoch, PriceIndexSeries


def yearly_epochs(year0: int, year1: int) -> tuple[Epoch, ...]:
    return tuple(Epoch(year=y) for y in range(year0, year1 + 1))


def synthetic_yearly_index(params: SingularityParams, year0: int, year1: int) -> PriceIndexSeries:
    """Noiseless yearly index generated from singular-model parameters."""
    epochs = yearly_epochs(year0, year1)
    t = np.array([float(e.year) for e in epochs])
    return PriceIndexSeries.from_log_index(epochs, eval_singularity(params, t))


@pytest.fixture
def peru_params() -> SingularityParams:
    return SingularityParams(tc=1991.29, alpha=0.29, c0=0.18, p0=-0.38, t0=1969.0)


@pytest.fixture
def peru_index(peru_params) -> PriceIndexSeries:
    return synthetic_yearly_index(peru_params, 1969, 1990)


def src_env() -> dict:
    """The environment with this checkout's hyperfit first on PYTHONPATH."""
    src = str(Path(hyperfit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


#: Steps of one new interpreter, ``python -c FRESH_PROCESS PERU_CSV OUT``:
#: import the CLI, run ``hyperfit fit``, then a direct fit and a ``run_mc``
#: whose Germany draws reach the redraw path.  Each step's modules are read
#: before the next step loads more; the last line printed is what was seen.
FRESH_PROCESS = """\
import json, sys
seen = {}
import hyperfit.cli
seen["scipy after import"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
seen["fit exit code"] = hyperfit.cli.main(["fit", sys.argv[1], "--out", sys.argv[2]])
seen["montecarlo after fit"] = sorted(
    m for m in sys.modules if m.startswith("hyperfit.montecarlo"))
from hyperfit.fitting import FitConfig, fit_singularity
from hyperfit.fixtures import episode, synthetic_rates
from hyperfit.montecarlo import MCConfig, run_mc
from hyperfit.series import build_price_index
rates = synthetic_rates(episode("germany"))
fit_singularity(build_price_index(rates))
rep = run_mc(rates, FitConfig(), MCConfig(di=0.5, m=200, seed=3))
seen["truncated draws"] = rep.truncated_draws > 0
seen["numpy.ma after run_mc"] = "numpy.ma" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="session")
def fresh_process(tmp_path_factory) -> dict:
    """What one run of ``FRESH_PROCESS`` saw.

    The import checks need an interpreter that has loaded nothing of its
    own yet; one process serves them all, started once per test session.
    """
    out = tmp_path_factory.mktemp("fresh") / "r.json"
    proc = subprocess.run([sys.executable, "-c", FRESH_PROCESS, str(fixture_path("peru")),
                           str(out)], env=src_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])
