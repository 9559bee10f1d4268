import dataclasses
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperfit.fixtures import PRESETS, EpisodePreset, fixture_path, write_fixture_csvs
from hyperfit.series import (
    DAYS_PER_MONTH,
    Epoch,
    InflationSeries,
    LoadError,
    PriceIndexSeries,
    SeriesError,
    build_price_index,
    date_to_time,
    epoch_from_time,
    epoch_times,
    load_series,
    rates_from_index,
    slice_window,
)


def yearly(year0, rates):
    epochs = tuple(Epoch(year=year0 + k) for k in range(len(rates)))
    return InflationSeries(epochs=epochs, rates=np.asarray(rates, dtype=float))


# ---------------------------------------------------------------------------
# Epoch
# ---------------------------------------------------------------------------

class TestEpoch:
    def test_parse_forms(self):
        assert Epoch.parse("1969") == Epoch(year=1969)
        assert Epoch.parse("1921-05") == Epoch(year=1921, month=5)
        assert Epoch.parse("1994:03:10") == Epoch(year=1994, month=3, day=10)

    def test_mid_month_is_day_15(self):
        assert Epoch(year=1921, month=5, day_convention="mid").ordinal() == \
            date(1921, 5, 15).toordinal()

    def test_end_month_is_last_calendar_day(self):
        for y, m, last in ((1943, 2, 28), (1944, 2, 29), (1944, 10, 31)):
            assert Epoch(year=y, month=m, day_convention="end").ordinal() == \
                date(y, m, last).toordinal()

    @pytest.mark.parametrize("convention", ["mid", "end"])
    def test_an_explicit_day_overrides_the_convention(self, convention):
        assert Epoch(year=1944, month=2, day=3, day_convention=convention).ordinal() == \
            date(1944, 2, 3).toordinal()

    @given(
        y1=st.integers(1800, 2200), m1=st.integers(1, 12),
        y2=st.integers(1800, 2200), m2=st.integers(1, 12),
        convention=st.sampled_from(["mid", "end"]),
    )
    def test_monthly_coordinate_monotone_in_calendar_order(self, y1, m1, y2, m2, convention):
        a = Epoch(year=y1, month=m1, day_convention=convention)
        b = Epoch(year=y2, month=m2, day_convention=convention)
        if a.order_key() < b.order_key():
            assert a.ordinal() < b.ordinal()
        elif a.order_key() > b.order_key():
            assert a.ordinal() > b.ordinal()

    @given(y=st.integers(1800, 2200), m=st.integers(1, 12),
           convention=st.sampled_from(["mid", "end"]))
    def test_monthly_round_trip(self, y, m, convention):
        t0 = Epoch(year=1800, month=1, day_convention=convention)
        e = Epoch(year=y, month=m, day_convention=convention)
        t = float(e.ordinal() - t0.ordinal())
        back = epoch_from_time(t, t0)
        assert (back.year, back.month) == (y, m)

    def test_bad_dates_rejected(self):
        with pytest.raises(LoadError):
            Epoch.parse("1969-13")
        with pytest.raises(SeriesError):
            Epoch(year=1943, month=2, day=30)


def test_year_end_convention_maps_dec31_to_the_year():
    t = date_to_time(date(2008, 12, 31), "end")
    assert t == 2008.0


def test_year_start_convention_maps_jan1_to_the_year():
    t = date_to_time(date(2009, 1, 1), "start")
    assert t == 2009.0


# ---------------------------------------------------------------------------
# build_price_index
# ---------------------------------------------------------------------------

class TestBuildPriceIndex:
    def test_all_zero_rates_give_unit_index(self):
        index = build_price_index(yearly(1970, [0.0] * 10))
        assert np.array_equal(index.index, np.ones(10))

    def test_single_doubling(self):
        index = build_price_index(yearly(1970, [0.0, 1.0]))
        assert index.index == pytest.approx([1.0, 2.0], abs=0.0)

    def test_log_sum_oracle_on_random_rates(self):
        rng = np.random.default_rng(1234)
        rates = rng.uniform(-0.5, 3.0, 50)
        rates[0] = 0.0
        index = build_price_index(yearly(1900, rates))
        # Independent oracle: exactly-summed logs of the factors.
        expected = math.fsum(math.log1p(r) for r in rates)
        assert index.log_index[-1] == pytest.approx(expected, rel=1e-12)

    def test_rate_at_or_below_minus_one_names_epoch(self):
        with pytest.raises(SeriesError, match="1972"):
            yearly(1970, [0.0, 0.5, -1.0])

    def test_series_values_are_read_only_copies(self):
        # A value changed after the checks ran would reach the fits unchecked.
        raw = np.array([0.0, 0.5, 0.2, 0.1])
        series = yearly(1970, raw)
        index = build_price_index(series)
        for values in (series.rates, index.index, index.log_index):
            with pytest.raises(ValueError, match="read-only"):
                values[2] = -1.5
        # The caller's own arrays stay writable and no longer reach the series.
        p, log_p = np.array(index.index), np.array(index.log_index)
        own = PriceIndexSeries(epochs=series.epochs, log_index=log_p)
        from_p = PriceIndexSeries.from_index(series.epochs, p)
        for caller in (raw, p, log_p):
            caller[2] = -1.5
            assert caller.flags.writeable
        assert series.rates[2] == 0.2
        for built in (own, from_p):
            assert built.index.tobytes() == index.index.tobytes()
            assert built.log_index.tobytes() == index.log_index.tobytes()

    def test_non_uniform_spacing_rejected(self):
        epochs = (Epoch(year=1970), Epoch(year=1971), Epoch(year=1973))
        with pytest.raises(SeriesError, match="spacing"):
            InflationSeries(epochs=epochs, rates=np.zeros(3))

    def test_mixed_day_conventions_rejected(self):
        # Mid and end months alternating put the points 0, 44, 59, 105 days apart.
        epochs = tuple(Epoch(year=1985, month=m, day_convention=("mid", "end")[m % 2 == 0])
                       for m in (1, 2, 3, 4))
        assert [e.ordinal() - epochs[0].ordinal() for e in epochs] == [0, 44, 59, 105]
        with pytest.raises(SeriesError, match="mixed day conventions: 1985-01 is 'mid', "
                                              "1985-02 is 'end'"):
            InflationSeries(epochs=epochs, rates=np.zeros(4))
        with pytest.raises(SeriesError, match="mixed day conventions"):
            PriceIndexSeries(epochs, np.zeros(4))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rate_names_epoch(self, value):
        with pytest.raises(SeriesError, match=r"inflation rate at 1972 is .*, must be finite"):
            yearly(1970, [0.0, 0.1, value, 0.2])

    def test_first_entry_is_exactly_one(self):
        index = build_price_index(yearly(1970, [0.0, 0.3, 0.7]))
        assert index.index[0] == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_non_positive_index_raises_without_a_warning(self, value):
        epochs = tuple(Epoch(year=1970 + k) for k in range(3))
        with pytest.raises(SeriesError, match="1971 is not positive"):
            PriceIndexSeries.from_index(epochs, np.array([1.0, value, 3.0]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_log_index_names_epoch(self, value):
        epochs = tuple(Epoch(year=1970 + k) for k in range(3))
        with pytest.raises(SeriesError, match="1972 is .*, must be finite"):
            PriceIndexSeries(epochs, np.array([0.0, 1.0, value]))

    def test_stores_the_log_index_only(self):
        # P is exp(p), derived on each read, so the two cannot disagree.
        index = build_price_index(yearly(1970, [0.0, 0.5, 0.2]))
        assert [f.name for f in dataclasses.fields(PriceIndexSeries)] == ["epochs", "log_index"]
        assert index.index.tobytes() == np.exp(index.log_index).tobytes()
        with pytest.raises(AttributeError):
            index.index = np.ones(3)


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def test_rates_index_round_trip_identity():
    rng = np.random.default_rng(77)
    rates = rng.uniform(-0.3, 2.0, 30)
    rates[0] = 0.0
    index = build_price_index(yearly(1960, rates))
    rebuilt = build_price_index(rates_from_index(index))
    assert rebuilt.index == pytest.approx(index.index, rel=1e-10)


@given(st.lists(st.floats(-0.9, 9.0), min_size=2, max_size=40))
def test_growth_of_built_index_equals_log1p_of_rates(raw):
    rates = np.array([0.0] + raw)
    growth = np.diff(build_price_index(yearly(1900, rates)).log_index)
    for g, rate in zip(growth, rates[1:]):
        assert g == pytest.approx(math.log1p(rate), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------

class TestLoadSeries:
    def test_minimal_yearly_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,0.0\n1970,0.062\n")
        series = load_series(f, kind="rate")
        assert isinstance(series, InflationSeries)
        assert series.rates == pytest.approx([0.0, 0.062])

    def test_percent_units(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,0.0\n1970,0.062\n")
        series = load_series(f, kind="rate", units="percent")
        assert series.rates == pytest.approx([0.0, 0.00062])

    def test_yearly_epoch_map(self, tmp_path):
        f = tmp_path / "a.csv"
        rows = [f"{1969 + k},0.1" for k in range(22)]
        rows[0] = "1969,0.0"
        f.write_text("\n".join(rows) + "\n")
        series = load_series(f, kind="rate")
        assert len(series) == 22
        # Hand-computed epoch map: consecutive calendar years as floats.
        assert series.times() == pytest.approx([1969.0 + k for k in range(22)], abs=0.0)

    def test_header_and_comments_tolerated(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("# synthetic\ndate,value\n1969,0.0\n1970,0.5\n")
        assert len(load_series(f, kind="rate")) == 2

    def test_first_rate_forced_to_zero_with_warning(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,0.3\n1970,0.5\n")
        with pytest.warns(UserWarning, match="forced to 0"):
            series = load_series(f, kind="rate")
        assert series.rates[0] == 0.0

    def test_malformed_row_names_line(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,0.0\n1970,zesty\n")
        with pytest.raises(LoadError, match="line 2"):
            load_series(f, kind="rate")

    def test_duplicate_epoch_names_line(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,0.0\n1969,0.1\n")
        with pytest.raises(LoadError, match="line 2"):
            load_series(f, kind="rate")

    def test_a_gap_names_its_line(self, tmp_path):
        f = tmp_path / "gap.csv"
        f.write_text("1969,0.0\n1970,0.1\n1972,0.2\n")
        with pytest.raises(LoadError, match="^line 3: non-uniform spacing between 1970 and 1972$"):
            load_series(f, kind="rate")

    def test_unordered_epochs_rejected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1970,0.0\n1969,0.1\n")
        with pytest.raises(LoadError, match="out of order"):
            load_series(f, kind="rate")

    def test_mixed_resolution_rejected(self, tmp_path):
        f = tmp_path / "a.csv"
        for text in ("1969,0.0\n1970-05,0.1\n", "1970,0.0\n1970-01,0.1\n"):
            f.write_text(text)
            with pytest.raises(LoadError, match="mixed"):
                load_series(f, kind="rate")

    def test_monthly_day_conventions(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1943-02,0.0\n1943-03,0.1\n")
        mid = load_series(f, kind="rate", day_convention="mid")
        end = load_series(f, kind="rate", day_convention="end")
        assert mid.epochs[0].ordinal() == date(1943, 2, 15).toordinal()
        assert end.epochs[0].ordinal() == date(1943, 2, 28).toordinal()
        # 1943-02-28 -> 1943-03-31 is 31 days.
        assert end.times()[1] == 31.0

    def test_a_day_of_month_that_moves_names_its_line(self, tmp_path):
        # These epochs used to load with times 0, 58, 59, 119, 134 and 165
        # days: each rate is one period's inflation, so a month's growth sat
        # on a 1-day step.
        f = tmp_path / "a.csv"
        f.write_text("date,rate\n1985-01-01,0.0\n1985-02-28,0.1\n1985-03-01,0.1\n"
                     "1985-04-30,0.1\n1985-05-15,0.1\n1985-06-15,0.1\n")
        with pytest.raises(LoadError, match="^line 3: day of month changes between "
                                            "1985-01-01 and 1985-02-28$"):
            load_series(f, kind="rate")
        epochs = (Epoch(year=1985, month=4, day=30), Epoch(year=1985, month=5, day=15))
        with pytest.raises(SeriesError, match="day of month changes"):
            InflationSeries(epochs=epochs, rates=[0.0, 0.1])

    @pytest.mark.parametrize("days", [(31, 28, 31, 30, 31, 30), (30, 28, 30, 30, 30, 30),
                                      (29, 28, 29, 29, 29, 29), (10, 10, 10, 10, 10, 10)])
    def test_one_day_of_month_clipped_to_each_month_loads(self, tmp_path, days):
        f = tmp_path / "a.csv"
        f.write_text("".join(f"1943-{m:02d}-{d:02d},0.0\n" for m, d in enumerate(days, 1)))
        steps = np.diff(load_series(f, kind="rate").times())
        assert ((28.0 <= steps) & (steps <= 31.0)).all()

    def test_index_kind_loads_price_series(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,1.0\n1970,2.5\n")
        series = load_series(f, kind="index")
        assert isinstance(series, PriceIndexSeries)
        assert series.index == pytest.approx([1.0, 2.5])

    def test_nonpositive_index_rejected(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("1969,1.0\n1970,-2.5\n")
        with pytest.raises(SeriesError):
            load_series(f, kind="index")


def test_slice_window_inclusive():
    series = yearly(1970, [0.0, 0.1, 0.2, 0.3, 0.4])
    sub = slice_window(series, Epoch(year=1971), Epoch(year=1973))
    assert [e.year for e in sub.epochs] == [1971, 1972, 1973]
    with pytest.raises(SeriesError):
        slice_window(series, Epoch(year=1990), None)


def test_a_yearly_bound_keeps_its_whole_year_of_a_monthly_series():
    germany = load_series(fixture_path("germany"))          # 1921-05 to 1923-11
    sub = slice_window(germany, None, Epoch.parse("1922"))
    assert len(sub) == 20 and sub.epochs[-1].label() == "1922-12"
    sub = slice_window(germany, Epoch.parse("1922"), Epoch.parse("1922"))
    assert [e.label() for e in (sub.epochs[0], sub.epochs[-1])] == ["1922-01", "1922-12"]


def test_a_monthly_bound_keeps_its_year_of_a_yearly_series():
    peru = load_series(fixture_path("peru"))                # 1969 to 1990
    sub = slice_window(peru, Epoch.parse("1972-06"), Epoch.parse("1975-03"))
    assert [e.year for e in sub.epochs] == [1972, 1973, 1974, 1975]


def test_monthly_times_are_days_from_first_epoch():
    epochs = tuple(Epoch(year=1921, month=m, day_convention="mid") for m in (5, 6, 7))
    assert epoch_times(epochs) == pytest.approx([0.0, 31.0, 61.0], abs=0.0)


@pytest.mark.parametrize("name", ["peru", "yugoslavia"])  # yearly, monthly
def test_times_is_built_once_and_read_only(name):
    rates = load_series(fixture_path(name), day_convention=PRESETS[name].day_convention)
    index = build_price_index(rates)
    for series in (rates, index):
        t = series.times()
        assert t.tobytes() == epoch_times(series.epochs).tobytes()
        assert series.times() is t
        with pytest.raises(ValueError):
            t[0] = 1.0
        with pytest.raises(ValueError):
            t += 1.0
    # Series built from another carry their own axis, not the source's.
    assert index.times() is not rates.times()
    cut = slice_window(index, index.epochs[2], index.epochs[-3])
    for sub in (cut, slice_window(rates, index.epochs[2], None)):
        assert sub.times().tobytes() == epoch_times(sub.epochs).tobytes()
    assert len(cut.times()) == len(index) - 4
    if name == "yugoslavia":                 # days from the window's own first epoch
        assert cut.times()[0] == 0.0 != index.times()[2]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_an_index_written_out_loads_to_the_same_log_index(name, tmp_path):
    # cumulate takes the log of exp of the summed logs, so p is ln of a float
    # P: the index written at repr precision and read back as kind="index"
    # gives p bit for bit.
    convention = PRESETS[name].day_convention
    index = build_price_index(load_series(fixture_path(name), day_convention=convention))
    path = tmp_path / f"{name}_index.csv"
    path.write_text("date,value\n" + "".join(
        f"{e.label()},{float(v)!r}\n" for e, v in zip(index.epochs, index.index)))
    loaded = load_series(path, kind="index", day_convention=convention)
    assert loaded.epochs == index.epochs
    assert loaded.log_index.tobytes() == index.log_index.tobytes()


def test_a_preset_reads_its_resolution_and_convention_from_its_first_epoch():
    assert [f.name for f in dataclasses.fields(EpisodePreset)] == [
        "name", "start", "end", "params"]
    expected = {"peru": ("yearly", "mid"), "zimbabwe": ("yearly", "mid"),
                "germany": ("monthly", "mid"), "greece": ("monthly", "end"),
                "yugoslavia": ("monthly", "mid")}
    for name, preset in PRESETS.items():
        assert (preset.resolution, preset.day_convention) == expected[name]
        assert {e.resolution for e in preset.epochs()} == {preset.resolution}
        assert {e.day_convention for e in preset.epochs()} == {preset.day_convention}


def test_days_per_month_constant():
    assert DAYS_PER_MONTH == pytest.approx(30.4375, abs=0.0)


def test_write_fixture_csvs_regenerates_the_bundled_files(tmp_path):
    # The benchmark reads the bundled CSVs while most tests build the same
    # series with synthetic_rates; regenerating the files gives their bytes.
    written = write_fixture_csvs(tmp_path)
    assert [path.name for path in written] == [f"{name}_synthetic.csv" for name in PRESETS]
    for name, path in zip(PRESETS, written):
        assert path.read_bytes() == fixture_path(name).read_bytes()
