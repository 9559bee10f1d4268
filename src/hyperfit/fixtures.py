"""Synthetic example datasets.

Each preset reproduces the window and published fit parameters of one
historical hyperinflation episode; the bundled CSVs are noiseless series
generated from those parameters and are clearly synthetic, not measured
data (real series must be user-supplied).  Monthly presets use
days-from-first-epoch coordinates, so their C0 is per day and their tc is
a day offset derived from the episode's critical calendar date.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .models import SingularityParams, eval_singularity
from .series import (
    DAYS_PER_MONTH,
    END_MONTH,
    MID_MONTH,
    YEARLY,
    Epoch,
    InflationSeries,
    PriceIndexSeries,
    epoch_times,
    rates_from_index,
)


@dataclass(frozen=True)
class EpisodePreset:
    """Window plus fitted singular-model parameters of one episode.

    The first epoch, ``start``, gives the episode's resolution and day
    convention.
    """

    name: str
    start: Epoch
    end: Epoch
    params: SingularityParams   # native time coordinates

    @property
    def resolution(self) -> str:
        return self.start.resolution

    @property
    def day_convention(self) -> str:
        return self.start.day_convention

    def epochs(self) -> tuple[Epoch, ...]:
        if self.resolution == YEARLY:
            return tuple(Epoch(year=y) for y in range(self.start.year, self.end.year + 1))
        out = []
        y, m = self.start.year, self.start.month
        while (y, m) <= (self.end.year, self.end.month):
            out.append(Epoch(year=y, month=m, day_convention=self.day_convention))
            y, m = (y + 1, 1) if m == 12 else (y, m + 1)
        return tuple(out)


def _yearly(name, year0, year1, tc, alpha, c0, p0) -> EpisodePreset:
    return EpisodePreset(
        name=name,
        start=Epoch(year=year0),
        end=Epoch(year=year1),
        params=SingularityParams(tc=tc, alpha=alpha, c0=c0, p0=p0, t0=float(year0)),
    )


def _monthly(name, start, end, tc_date, alpha, c0_per_month, p0, convention) -> EpisodePreset:
    t0 = Epoch(year=start[0], month=start[1], day_convention=convention)
    tc_days = float(
        Epoch(year=tc_date[0], month=tc_date[1], day=tc_date[2]).ordinal() - t0.ordinal()
    )
    return EpisodePreset(
        name=name,
        start=t0,
        end=Epoch(year=end[0], month=end[1], day_convention=convention),
        params=SingularityParams(
            tc=tc_days, alpha=alpha, c0=c0_per_month / DAYS_PER_MONTH, p0=p0, t0=0.0
        ),
    )


#: Published singular-model fits of five hyperinflation episodes.  Yearly
#: C0 is per year; monthly presets convert the published per-month C0 to
#: per-day and the critical date to a day offset.
PRESETS: dict[str, EpisodePreset] = {
    p.name: p
    for p in (
        _yearly("peru", 1969, 1990, tc=1991.29, alpha=0.29, c0=0.18, p0=-0.38),
        _yearly("zimbabwe", 1979, 2007, tc=2009.50, alpha=0.79, c0=0.08, p0=0.10),
        _monthly("germany", (1921, 5), (1923, 11), (1924, 1, 5),
                 alpha=0.56, c0_per_month=0.103, p0=0.57, convention=MID_MONTH),
        _monthly("greece", (1943, 2), (1944, 10), (1944, 12, 2),
                 alpha=0.17, c0_per_month=0.210, p0=3.91, convention=END_MONTH),
        _monthly("yugoslavia", (1990, 12), (1994, 1), (1994, 3, 10),
                 alpha=0.53, c0_per_month=0.335, p0=-1.52, convention=MID_MONTH),
    )
}


def episode(name: str) -> EpisodePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown episode {name!r}; have {sorted(PRESETS)}") from None


def synthetic_index(preset: EpisodePreset) -> PriceIndexSeries:
    """Noiseless price index generated from the preset's parameters."""
    epochs = preset.epochs()
    t = epoch_times(epochs)
    return PriceIndexSeries.from_log_index(epochs, eval_singularity(preset.params, t))


def synthetic_rates(preset: EpisodePreset) -> InflationSeries:
    """Noiseless inflation rates; cumulating them gives the index with P(t0) = 1."""
    return rates_from_index(synthetic_index(preset))


def fixture_path(name: str) -> Path:
    """Path of a bundled synthetic CSV (rates, fraction units)."""
    ref = resources.files("hyperfit").joinpath(f"data/{name}_synthetic.csv")
    return Path(str(ref))


def write_fixture_csvs(directory: str | Path) -> list[Path]:
    """Regenerate the bundled synthetic rate CSVs into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for preset in PRESETS.values():
        rates = synthetic_rates(preset)
        lines = [
            f"# synthetic {preset.name} hyperinflation rates, generated from a",
            "# published finite-time-singularity fit; not measured data",
            "date,value",
        ]
        lines += [f"{e.label()},{float(r)!r}" for e, r in zip(rates.epochs, rates.rates)]
        path = directory / f"{preset.name}_synthetic.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
