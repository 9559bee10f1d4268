"""Time representation and ingestion of inflation / price-index series.

A series is either yearly or monthly.  Continuous time coordinates are

* yearly data:  the calendar year as a real number (1969.0, 1970.0, ...),
* monthly data: days elapsed since the first epoch (0.0, 31.0, ...),

so that fitted critical dates carry day precision for monthly series and
fractional-year precision for yearly ones.  Monthly epochs are pinned to a
day of month by convention: mid-month (day 15) or end-of-month (last
calendar day), the two conventions price statistics are commonly reported
under; the choice shifts all coordinates coherently and is recorded so a
fitted date can be mapped back to the calendar.
"""

from __future__ import annotations

import calendar
import csv
import math
import warnings
from dataclasses import dataclass
from datetime import date as _date
from functools import cached_property
from pathlib import Path

import numpy as np

YEARLY = "yearly"
MONTHLY = "monthly"

MID_MONTH = "mid"
END_MONTH = "end"

#: Mean Gregorian month length, used when converting per-month quantities
#: (for example an initial growth rate fitted on monthly data) to per-day.
DAYS_PER_MONTH = 365.25 / 12.0

#: Mean year length in days, used for year-over-year comparisons on
#: day-based coordinates.
DAYS_PER_YEAR = 365.25


class SeriesError(ValueError):
    """A series violates one of its structural invariants."""


class LoadError(SeriesError):
    """An input file cannot be parsed into a valid series."""


@dataclass(frozen=True)
class Epoch:
    """A calendar timestamp at yearly or monthly resolution.

    ``month is None`` marks a yearly epoch.  For monthly epochs the day of
    month is either given explicitly or resolved from ``day_convention``.
    """

    year: int
    month: int | None = None
    day: int | None = None
    day_convention: str = MID_MONTH

    def __post_init__(self) -> None:
        if self.month is not None and not 1 <= self.month <= 12:
            raise SeriesError(f"month out of range: {self.month}")
        if self.day is not None:
            if self.month is None:
                raise SeriesError("a day of month requires a month")
            last = calendar.monthrange(self.year, self.month)[1]
            if not 1 <= self.day <= last:
                raise SeriesError(f"day out of range for {self.year}-{self.month:02d}: {self.day}")
        if self.day_convention not in (MID_MONTH, END_MONTH):
            raise SeriesError(f"unknown day convention: {self.day_convention!r}")

    @property
    def resolution(self) -> str:
        return YEARLY if self.month is None else MONTHLY

    def resolved_day(self) -> int:
        """Day of month, applying the convention when no explicit day is set."""
        if self.month is None:
            raise SeriesError("yearly epoch has no day of month")
        if self.day is not None:
            return self.day
        if self.day_convention == MID_MONTH:
            return 15
        return calendar.monthrange(self.year, self.month)[1]

    def date(self) -> _date:
        """Calendar date of a monthly epoch."""
        return _date(self.year, self.month, self.resolved_day())

    def ordinal(self) -> int:
        """Proleptic-Gregorian ordinal of a monthly epoch (strictly monotone)."""
        return self.date().toordinal()

    def sort_key(self) -> tuple[int, int]:
        return (self.year, self.month or 0)

    def month_number(self) -> int:
        """Months since year 0, for uniform-spacing checks."""
        if self.month is None:
            raise SeriesError("yearly epoch has no month number")
        return self.year * 12 + (self.month - 1)

    def label(self) -> str:
        if self.month is None:
            return f"{self.year:04d}"
        if self.day is not None:
            return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        return f"{self.year:04d}-{self.month:02d}"

    @classmethod
    def parse(cls, text: str, day_convention: str = MID_MONTH) -> "Epoch":
        """Parse ``YYYY``, ``YYYY-MM`` or ``YYYY-MM-DD`` (``:`` also accepted)."""
        parts = text.strip().replace(":", "-").split("-")
        try:
            if len(parts) == 1:
                return cls(year=int(parts[0]))
            if len(parts) == 2:
                return cls(year=int(parts[0]), month=int(parts[1]), day_convention=day_convention)
            if len(parts) == 3:
                return cls(
                    year=int(parts[0]),
                    month=int(parts[1]),
                    day=int(parts[2]),
                    day_convention=day_convention,
                )
        except ValueError as exc:
            raise LoadError(f"bad date {text!r}: {exc}") from exc
        raise LoadError(f"bad date {text!r}: expected YYYY, YYYY-MM or YYYY-MM-DD")


def epoch_times(epochs: tuple[Epoch, ...]) -> np.ndarray:
    """Continuous time coordinates for a sequence of epochs.

    Yearly epochs map to the calendar year as a float; monthly epochs map to
    days elapsed since the first epoch.  The map is strictly increasing in
    calendar order.
    """
    if not epochs:
        return np.empty(0)
    if epochs[0].resolution == YEARLY:
        return np.array([float(e.year) for e in epochs])
    base = epochs[0].ordinal()
    return np.array([float(e.ordinal() - base) for e in epochs])


def epoch_from_time(t: float, t0: Epoch) -> Epoch:
    """Map a monthly series' coordinate, days since its first epoch ``t0``, to a calendar day.

    Inverse of :func:`epoch_times` on monthly epochs: exact for the on-grid
    coordinates of data epochs, the nearest calendar day otherwise.
    """
    d = _date.fromordinal(t0.ordinal() + int(round(t)))
    return Epoch(year=d.year, month=d.month, day=d.day, day_convention=t0.day_convention)


def _validate_epochs(epochs: tuple[Epoch, ...]) -> str:
    """Check ordering, single resolution and uniform spacing; return resolution."""
    if not epochs:
        raise SeriesError("series is empty")
    resolutions = {e.resolution for e in epochs}
    if len(resolutions) > 1:
        raise SeriesError("mixed yearly/monthly epochs in one series")
    resolution = epochs[0].resolution
    if resolution == YEARLY:
        steps = [b.year - a.year for a, b in zip(epochs, epochs[1:])]
    else:
        steps = [b.month_number() - a.month_number() for a, b in zip(epochs, epochs[1:])]
    for k, step in enumerate(steps):
        if step <= 0:
            raise SeriesError(
                f"epochs not strictly increasing at {epochs[k + 1].label()}"
            )
        if step != 1:
            raise SeriesError(
                f"non-uniform spacing between {epochs[k].label()} and {epochs[k + 1].label()}"
            )
    return resolution


class _Epochs:
    """What a series derives from its validated epochs alone."""

    epochs: tuple[Epoch, ...]

    @property
    def resolution(self) -> str:
        return self.epochs[0].resolution

    def __len__(self) -> int:
        return len(self.epochs)

    def times(self) -> np.ndarray:
        """``epoch_times(epochs)``: built on the first call, then the same read-only array.

        Every fit reads the time axis, and rebuilding it from calendar dates
        costs more than a linear fit's arithmetic on a monthly series.
        """
        return self._times

    @cached_property
    def _times(self) -> np.ndarray:
        t = epoch_times(self.epochs)
        t.flags.writeable = False
        return t


def _frozen(values) -> np.ndarray:
    """A read-only float copy: a series' values cannot change after its checks ran."""
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class InflationSeries(_Epochs):
    """Per-period inflation rates i(t_k) at equally spaced epochs.

    Rates are dimensionless fractions (0.062 means 6.2 percent over one
    period).  Every rate must exceed -1, otherwise the cumulated price index
    would hit zero or go negative.  ``rates`` is a read-only copy.
    """

    epochs: tuple[Epoch, ...]
    rates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", _frozen(self.rates))
        object.__setattr__(self, "epochs", tuple(self.epochs))
        _validate_epochs(self.epochs)
        if len(self.epochs) != len(self.rates):
            raise SeriesError("epochs and rates differ in length")
        ok = self.rates > -1.0
        if not ok.all():
            k = int(ok.argmin())
            raise SeriesError(
                f"inflation rate at {self.epochs[k].label()} is {self.rates[k]}, must be > -1"
            )


@dataclass(frozen=True)
class PriceIndexSeries(_Epochs):
    """Log price index p(t_k) = ln P(t_k), as a read-only copy; ``index`` is P = exp(p).

    Every p must be finite.  ``from_index`` builds the series of a price
    index P and rejects a P that is not positive, naming its epoch.
    """

    epochs: tuple[Epoch, ...]
    log_index: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "log_index", _frozen(self.log_index))
        object.__setattr__(self, "epochs", tuple(self.epochs))
        _validate_epochs(self.epochs)
        if len(self.epochs) != len(self.log_index):
            raise SeriesError("epochs and log_index differ in length")
        finite = np.isfinite(self.log_index)
        if not finite.all():
            k = int(finite.argmin())
            raise SeriesError(f"log price index at {self.epochs[k].label()} is "
                              f"{self.log_index[k]}, must be finite")

    @property
    def index(self) -> np.ndarray:
        """The price index P = exp(p), read-only."""
        return _frozen(np.exp(self.log_index))

    @classmethod
    def from_index(cls, epochs, index) -> "PriceIndexSeries":
        epochs, index = tuple(epochs), np.asarray(index, dtype=float)
        bad = np.flatnonzero(~(index[:len(epochs)] > 0.0))
        if bad.size:
            raise SeriesError(f"price index at {epochs[bad[0]].label()} is not positive")
        return cls(epochs, np.log(index))

    @classmethod
    def from_log_index(cls, epochs, log_index) -> "PriceIndexSeries":
        """``from_index(exp(p))``: the series stores ln of a float P, as ``cumulate`` gives it."""
        return cls.from_index(epochs, np.exp(np.asarray(log_index, dtype=float)))

    @property
    def t0(self) -> Epoch:
        return self.epochs[0]


def cumulate(rates: np.ndarray) -> np.ndarray:
    """p = ln P, P(t_n) = prod(1 + i(t_k)), along the last axis of rates.

    The product runs in log space (a cumulative sum of ln(1 + i)) so long
    series with huge cumulated factors keep full relative precision.  The
    sum is exponentiated and its log taken, so p is the log of a float P,
    which exp then log nearly always returns unchanged: the index P =
    exp(p) of every bundled episode, written out at full precision and
    loaded with ``kind="index"``, gives p bit for bit, where 1-4 values of
    each plain sum would move.  Direct fits and Monte Carlo generations both
    cumulate here, to the same bits.
    """
    return np.log(np.exp(np.cumsum(np.log1p(rates), axis=-1)))


def build_price_index(rates: InflationSeries) -> PriceIndexSeries:
    """Cumulate inflation rates into a price index; P(t_0) = 1 when i(t_0) = 0."""
    return PriceIndexSeries(rates.epochs, cumulate(rates.rates))


def rates_from_index(index: PriceIndexSeries) -> InflationSeries:
    """Extract per-period inflation rates, i(t_k) = P(t_k)/P(t_{k-1}) - 1.

    The first rate is set to zero, mirroring the loader convention, so
    ``build_price_index`` on the result reproduces the index normalized to
    P(t_0) = 1.
    """
    i = np.empty(len(index))
    i[0] = 0.0
    i[1:] = np.expm1(np.diff(index.log_index))
    return InflationSeries(epochs=index.epochs, rates=i)


def slice_window(
    series: InflationSeries | PriceIndexSeries,
    start: Epoch | None = None,
    end: Epoch | None = None,
):
    """Restrict a series to epochs within [start, end] (inclusive)."""
    keep = [
        k
        for k, e in enumerate(series.epochs)
        if (start is None or e.sort_key() >= start.sort_key())
        and (end is None or e.sort_key() <= end.sort_key())
    ]
    if not keep:
        raise SeriesError("window selects no epochs")
    epochs = tuple(series.epochs[k] for k in keep)
    if isinstance(series, InflationSeries):
        return InflationSeries(epochs=epochs, rates=series.rates[keep])
    return PriceIndexSeries(epochs, series.log_index[keep])


# Year label conventions: what instant of the calendar year a yearly value
# refers to.  Epoch coordinates are always the year number itself; the
# convention only matters when an arbitrary calendar date must be mapped
# onto the yearly axis (prediction targets, window edges given as dates).
YEAR_START = "start"
YEAR_MID = "mid"
YEAR_END = "end"
_YEAR_OFFSETS = {YEAR_START: 0.0, YEAR_MID: 0.5, YEAR_END: 1.0}


def date_to_time(d: _date, year_convention: str) -> float:
    """Map a calendar date to the continuous coordinate of a yearly series.

    The fractional year, shifted so that the conventional instant of year Y
    maps to Y exactly (start: Jan 1, end: Dec 31, mid: halfway).
    """
    if year_convention not in _YEAR_OFFSETS:
        raise SeriesError(f"unknown year convention: {year_convention!r}")
    if year_convention == YEAR_END:
        # Dec 31 of year Y maps to Y exactly: count from the following day.
        d = _date.fromordinal(d.toordinal() + 1)
        offset = 1.0
    else:
        offset = _YEAR_OFFSETS[year_convention]
    year_len = 366.0 if calendar.isleap(d.year) else 365.0
    return d.year + (d.timetuple().tm_yday - 1) / year_len - offset


def _parse_value(text: str, line_no: int) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise LoadError(f"line {line_no}: bad numeric value {text!r}") from exc
    if not math.isfinite(v):
        raise LoadError(f"line {line_no}: non-finite value {text!r}")
    return v


def load_series(
    path: str | Path,
    kind: str = "rate",
    units: str = "fraction",
    day_convention: str = MID_MONTH,
) -> InflationSeries | PriceIndexSeries:
    """Load a two-column CSV (``date,value``) as rates or a price index.

    Dates are ``YYYY`` (yearly) or ``YYYY-MM`` / ``YYYY-MM-DD`` (monthly).
    A header row, blank lines and ``#`` comment lines are tolerated.  With
    ``units="percent"`` values are divided by 100 on load.  Rate files have
    their first rate forced to zero (with a warning if the file disagrees),
    which normalizes the cumulated index to P(t_0) = 1.

    Raises :class:`LoadError` naming the offending line for malformed rows,
    duplicate or unordered epochs, and mixed resolutions.
    """
    if kind not in ("rate", "index"):
        raise LoadError(f"unknown kind {kind!r}, expected 'rate' or 'index'")
    if units not in ("fraction", "percent"):
        raise LoadError(f"unknown units {units!r}, expected 'fraction' or 'percent'")

    path = Path(path)
    epochs: list[Epoch] = []
    values: list[float] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc

    for line_no, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or not "".join(row).strip():
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if len(row) != 2:
            raise LoadError(f"line {line_no}: expected 'date,value', got {row!r}")
        date_text, value_text = row[0].strip(), row[1].strip()
        if not epochs and not values:
            # A non-numeric value field on the first data row is a header.
            try:
                float(value_text)
            except ValueError:
                continue
        try:
            epoch = Epoch.parse(date_text, day_convention=day_convention)
        except LoadError as exc:
            raise LoadError(f"line {line_no}: {exc}") from exc
        if epochs and epoch.sort_key() == epochs[-1].sort_key():
            raise LoadError(f"line {line_no}: duplicate epoch {epoch.label()}")
        if epochs and epoch.sort_key() < epochs[-1].sort_key():
            raise LoadError(f"line {line_no}: epoch {epoch.label()} out of order")
        if epochs and epoch.resolution != epochs[0].resolution:
            raise LoadError(f"line {line_no}: mixed yearly and monthly dates")
        epochs.append(epoch)
        values.append(_parse_value(value_text, line_no))

    if not epochs:
        raise LoadError(f"{path}: no data rows")

    data = np.asarray(values, dtype=float)
    if units == "percent":
        data = data / 100.0

    try:
        if kind == "index":
            return PriceIndexSeries.from_index(tuple(epochs), data)
        if data[0] != 0.0:
            warnings.warn(
                f"{path}: first inflation rate {data[0]} at {epochs[0].label()} "
                "forced to 0 so the cumulated index starts at 1",
                stacklevel=2,
            )
            data = data.copy()
            data[0] = 0.0
        return InflationSeries(epochs=tuple(epochs), rates=data)
    except SeriesError as exc:
        raise LoadError(f"{path}: {exc}") from exc
