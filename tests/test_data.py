"""Dataset construction against hand-built tables and known statistics.

Preprocessing and windowing are pinned with tiny tables whose repaired,
normalized and lagged values can be written out by hand.  The sine benchmark
is checked against its closed-form conditional moments through residuals
standardised by the conditional standard deviation.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from winduq.data import (
    ColumnStats,
    PowerCurveSpec,
    RegressionDataset,
    ScadaTable,
    current_speed_column,
    load_scada_csv,
    make_hourly_power_series,
    make_power_curve_table,
    make_sine_dataset,
    power_curve,
    preprocess_power_table,
    sine_conditional_variance,
    sine_mean,
    subsample_dataset,
    window_power_table,
    window_univariate_series,
)


class TestSineBenchmark:
    def test_shapes_ranges_and_determinism(self):
        train, test = make_sine_dataset(seed=12)
        assert train.inputs.shape == (1000, 1) and train.targets.shape == (1000,)
        assert test.inputs.shape == (200, 1)
        assert train.inputs.min() >= 0.0 and train.inputs.max() <= 10.0
        assert test.inputs.min() >= 10.0 and test.inputs.max() <= 15.0
        assert train.scaling is None and train.tag == "train" and test.tag == "test"
        again, _ = make_sine_dataset(seed=12)
        assert np.array_equal(train.inputs, again.inputs)
        assert np.array_equal(train.targets, again.targets)
        other, _ = make_sine_dataset(seed=13)
        assert not np.array_equal(train.targets, other.targets)

    def test_standardised_residuals_have_the_conditional_moments(self):
        # y = x sin x + e1 x + e2 has Var[y|x] = 0.09 (x^2 + 1), so the residuals
        # standardised by sqrt(x^2 + 1) have mean 0 and variance 0.09 at every x
        train, _ = make_sine_dataset(seed=3, n_train=200_000, n_test=0)
        x = train.inputs[:, 0]
        z = (train.targets - x * np.sin(x)) / np.sqrt(x**2 + 1.0)
        assert float(z.mean()) == pytest.approx(0.0, abs=0.003)
        assert float(z.var()) == pytest.approx(0.09, rel=0.03)
        assert sine_conditional_variance(np.array([5.0]))[0] == pytest.approx(2.34, rel=1e-12)

    def test_mean_and_variance_functions(self):
        x = np.array([0.0, 2.0])
        assert_allclose(sine_mean(x), [0.0, 2.0 * math.sin(2.0)])
        assert sine_conditional_variance(np.array([0.0]))[0] == pytest.approx(0.09, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_sine_dataset(seed=0, n_train=0)
        with pytest.raises(ValueError):
            make_sine_dataset(seed=0, noise_scale=-0.1)


class TestPreprocessing:
    def _table(self, power, speeds=None, dirs=None):
        n = len(power)
        return ScadaTable(
            timestamp=np.array([f"t{i}" for i in range(n)], dtype=object),
            wind_speed=np.array(speeds if speeds is not None else np.arange(1.0, n + 1)),
            wind_direction=np.array(dirs if dirs is not None else np.arange(0.0, 90.0 * n, 90.0)),
            active_power=np.array(power, dtype=np.float64),
        )

    def test_negative_power_repaired_with_nonnegative_mean(self):
        clean, stats = preprocess_power_table(self._table([-5.0, 10.0, 20.0]))
        # -5 becomes mean(10, 20) = 15; power column spans [10, 20]
        assert stats.minima["active_power"] == 10.0
        assert stats.maxima["active_power"] == 20.0
        assert_allclose(clean.active_power, [0.5, 0.0, 1.0])

    def test_nan_rows_dropped_after_repair(self):
        table = self._table([-5.0, 10.0, float("nan"), 20.0])
        clean, stats = preprocess_power_table(table)
        assert len(clean) == 3
        assert list(clean.timestamp) == ["t0", "t1", "t3"]
        # repair mean uses the finite nonnegative entries (10 and 20)
        assert_allclose(clean.active_power, [0.5, 0.0, 1.0])
        assert_allclose(clean.wind_speed, [0.0, 1.0 / 3.0, 1.0])

    def test_all_columns_normalized_to_unit_interval(self):
        rng = np.random.default_rng(5)
        table = self._table(
            rng.uniform(0, 3000, size=50),
            speeds=rng.uniform(0, 25, size=50),
            dirs=rng.uniform(0, 360, size=50),
        )
        clean, stats = preprocess_power_table(table)
        for name in ("wind_speed", "wind_direction", "active_power"):
            col = getattr(clean, name)
            assert col.min() == 0.0 and col.max() == 1.0
            assert stats.minima[name] < stats.maxima[name]

    def test_constant_column_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            preprocess_power_table(self._table([5.0, 5.0, 5.0]))

    def test_unrepairable_negatives_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            preprocess_power_table(self._table([-5.0, -1.0, -2.0]))


class TestWindowing:
    def _normalized_table(self, n=12):
        speed = np.arange(n) / (n - 1)
        direction = np.arange(n)[::-1] / (n - 1)
        power = np.arange(n) ** 2 / (n - 1) ** 2
        stats = ColumnStats(
            minima={"wind_speed": 0.0, "wind_direction": 0.0, "active_power": 0.0},
            maxima={"wind_speed": 11.0, "wind_direction": 22.0, "active_power": 121.0},
        )
        table = ScadaTable(
            timestamp=np.array([f"t{i}" for i in range(n)], dtype=object),
            wind_speed=speed,
            wind_direction=direction,
            active_power=power,
        )
        return table, stats

    def test_twelve_rows_make_two_windows(self):
        table, stats = self._normalized_table(12)
        train, val, test = window_power_table(table, stats, lags=10)
        assert len(train) == 1 and len(val) == 0 and len(test) == 1
        assert train.inputs.shape[1] == 3 * 10 + 2

    def test_window_contents_and_feature_order(self):
        table, stats = self._normalized_table(12)
        train, _, test = window_power_table(table, stats, lags=10)
        row = train.inputs[0]
        assert_allclose(row[0:10], table.wind_speed[0:10])  # speed lags, oldest first
        assert_allclose(row[10:20], table.wind_direction[0:10])
        assert_allclose(row[20:30], table.active_power[0:10])
        assert row[30] == table.wind_speed[10] and row[31] == table.wind_direction[10]
        assert train.targets[0] == table.active_power[10]
        assert test.targets[0] == table.active_power[11]
        assert train.feature_names[0] == "speed_lag10"
        assert train.feature_names[9] == "speed_lag1"
        assert train.feature_names[30:] == ("speed_now", "direction_now")

    def test_chronological_split_sizes(self):
        rng = np.random.default_rng(0)
        n = 1010
        table = ScadaTable(
            timestamp=np.array([f"t{i}" for i in range(n)], dtype=object),
            wind_speed=rng.random(n),
            wind_direction=rng.random(n),
            active_power=rng.random(n),
        )
        stats = ColumnStats(
            minima={k: 0.0 for k in ("wind_speed", "wind_direction", "active_power")},
            maxima={k: 1.0 for k in ("wind_speed", "wind_direction", "active_power")},
        )
        train, val, test = window_power_table(table, stats, lags=10)
        # 1000 windows at fractions 9/11, 1/11 floored; remainder is test
        assert len(train) == 818 and len(val) == 90 and len(test) == 92
        assert len(train) + len(val) + len(test) == 1000
        assert train.scaling is stats and val.scaling is stats and test.scaling is stats
        assert train.targets[0] == table.active_power[10]
        assert test.targets[-1] == table.active_power[-1]

    def test_current_speed_denormalizes(self):
        table, stats = self._normalized_table(12)
        train, _, _ = window_power_table(table, stats, lags=10)
        speeds = current_speed_column(train)
        assert speeds[0] == pytest.approx(10.0, rel=1e-12)  # 10/11 of span 11

    def test_validation(self):
        table, stats = self._normalized_table(12)
        with pytest.raises(ValueError):
            window_power_table(table, stats, lags=0)
        with pytest.raises(ValueError):
            window_power_table(table, stats, lags=12)


class TestUnivariateWindows:
    def test_counts_and_contents(self):
        series = np.arange(100.0)
        train, test = window_univariate_series(series, lags=24, test_fraction=0.1)
        # 76 windows; the most recent ceil(7.6) = 8 are test
        assert len(train) == 68 and len(test) == 8
        assert train.inputs.shape[1] == 24
        norm = series / 99.0
        assert_allclose(train.inputs[0], norm[:24])
        assert train.targets[0] == pytest.approx(norm[24])
        assert_allclose(test.targets, norm[-8:])
        assert train.feature_names[0] == "lag24" and train.feature_names[-1] == "lag1"
        assert train.scaling is None and test.scaling is None

    def test_nan_dropped_before_windowing(self):
        series = np.arange(40.0)
        series[7] = np.nan
        train, test = window_univariate_series(series, lags=4, test_fraction=0.25)
        assert len(train) + len(test) == 39 - 4

    def test_validation(self):
        with pytest.raises(ValueError):
            window_univariate_series(np.arange(10.0), lags=10)
        with pytest.raises(ValueError):
            window_univariate_series(np.ones(50), lags=5)
        with pytest.raises(ValueError):
            window_univariate_series(np.arange(50.0), lags=5, test_fraction=1.5)


class TestSubsampling:
    def _dataset(self, n=100):
        rng = np.random.default_rng(9)
        return RegressionDataset(
            inputs=rng.random((n, 3)),
            targets=np.arange(float(n)),
            feature_names=("a", "b", "c"),
        )

    def test_size_is_rounded_half_up(self):
        ds = self._dataset(100)
        assert len(subsample_dataset(ds, 0.3, seed=1)) == 30
        assert len(subsample_dataset(ds, 0.345, seed=1)) == 35
        assert len(subsample_dataset(subsample_dataset(ds, 0.5, seed=1), 0.5, seed=1)) == 25

    def test_deterministic_and_order_preserving(self):
        ds = self._dataset(100)
        a = subsample_dataset(ds, 0.4, seed=7)
        b = subsample_dataset(ds, 0.4, seed=7)
        c = subsample_dataset(ds, 0.4, seed=8)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.targets, c.targets)
        assert np.all(np.diff(a.targets) > 0)  # original order kept
        assert len(set(a.targets)) == len(a)  # without replacement

    def test_full_ratio_returns_everything(self):
        ds = self._dataset(50)
        full = subsample_dataset(ds, 1.0, seed=3)
        assert np.array_equal(full.inputs, ds.inputs)
        assert np.array_equal(full.targets, ds.targets)

    def test_validation(self):
        ds = self._dataset(100)
        with pytest.raises(ValueError):
            subsample_dataset(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample_dataset(ds, 1.5, seed=0)
        with pytest.raises(ValueError):
            subsample_dataset(ds, 0.001, seed=0)


class TestCsvLoading:
    HEADER = "timestamp,wind_speed,wind_direction,active_power\n"

    def test_good_file_with_gaps_and_bad_rows(self, tmp_path):
        path = tmp_path / "scada.csv"
        path.write_text(
            self.HEADER
            + "2020-01-01 00:00,5.1,180.0,350.5\n"
            + "2020-01-01 00:10,5.3,,360.0\n"  # empty field becomes NaN
            + "2020-01-01 00:20,bad,181.0,340.0\n"  # unparseable, dropped
            + "2020-01-01 00:30,5.0,179.0,330.0\n"
        )
        table, diagnostics = load_scada_csv(path)
        assert len(table) == 3
        assert diagnostics == ["line 4: unparseable numeric field"]
        assert np.isnan(table.wind_direction[1])
        assert table.active_power[2] == 330.0
        assert table.timestamp[0] == "2020-01-01 00:00"

    def test_column_map_renames_headers(self, tmp_path):
        path = tmp_path / "renamed.csv"
        path.write_text(
            "Date/Time,WS (m/s),Dir,LV ActivePower (kW)\n"
            + "x,4.0,10.0,100.0\n"
            + "y,5.0,20.0,200.0\n"
        )
        table, diagnostics = load_scada_csv(
            path,
            column_map={
                "timestamp": "Date/Time",
                "wind_speed": "WS (m/s)",
                "wind_direction": "Dir",
                "active_power": "LV ActivePower (kW)",
            },
        )
        # "x" and "y" are no ISO 8601 times, so their order is not checked
        assert diagnostics == ["timestamps are not all ISO 8601; their order was not checked"]
        assert_allclose(table.wind_speed, [4.0, 5.0])

    def test_majority_bad_rows_abort(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            self.HEADER + "a,oops,1,1\n" + "b,oops,1,1\n" + "c,3.0,1.0,1.0\n"
        )
        with pytest.raises(ValueError, match="invalid"):
            load_scada_csv(path)

    def test_order_note_is_no_bad_row(self, tmp_path):
        # one bad row of two is no majority, and the note on unchecked order
        # ("a", "b" are no ISO 8601 times) must not make it one
        path = tmp_path / "half.csv"
        path.write_text(self.HEADER + "a,oops,1,1\n" + "b,3.0,1.0,1.0\n")
        table, diagnostics = load_scada_csv(path)
        assert list(table.timestamp) == ["b"]
        assert diagnostics == [
            "line 2: unparseable numeric field",
            "timestamps are not all ISO 8601; their order was not checked",
        ]

    def test_missing_column_and_empty_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("timestamp,wind_speed\n" + "a,1.0\n")
        with pytest.raises(ValueError, match="missing required columns"):
            load_scada_csv(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty first line, expected a header row") as exc:
            load_scada_csv(empty)
        assert str(exc.value).startswith(f"{empty}: ")
        headless = tmp_path / "no_rows.csv"
        headless.write_text(self.HEADER)
        with pytest.raises(ValueError, match="no data rows"):
            load_scada_csv(headless)

    def test_unknown_column_map_key(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(self.HEADER + "a,1,2,3\n")
        with pytest.raises(ValueError, match="unknown canonical names"):
            load_scada_csv(path, column_map={"speed": "WS"})

    @pytest.mark.parametrize("column_map, first, second, column", [
        ({"wind_speed": "ws", "wind_direction": "ws"}, "wind_speed", "wind_direction", "ws"),
        ({"wind_speed": "active_power"}, "wind_speed", "active_power", "active_power"),
        ({"timestamp": "t", "active_power": "t"}, "timestamp", "active_power", "t"),
    ])
    def test_two_names_from_one_column_rejected(self, tmp_path, column_map, first, second,
                                                column):
        # the file has every column either map needs, so only the clash can fail it
        path = tmp_path / "x.csv"
        path.write_text("t,ws," + self.HEADER + "a,1,2,3,4,5\n")
        with pytest.raises(ValueError) as exc:
            load_scada_csv(path, column_map=column_map)
        assert str(exc.value) == (
            f"column_map reads {first!r} and {second!r} from one column {column!r}")


class TestPowerCurve:
    def test_anchor_points(self):
        spec = PowerCurveSpec()
        v = np.array([0.0, 3.0, 7.5, 12.0, 20.0])
        p = power_curve(v, spec)
        assert p[0] == 0.0 and p[1] == 0.0
        assert p[2] == pytest.approx(1000.0, rel=1e-12)  # midpoint of the ramp
        assert p[3] == 2000.0 and p[4] == 2000.0

    def test_monotone(self):
        v = np.linspace(0, 25, 500)
        p = power_curve(v)
        assert np.all(np.diff(p) >= 0.0)


class TestSurrogateTable:
    def test_deterministic(self):
        a = make_power_curve_table(seed=7, n=500)
        b = make_power_curve_table(seed=7, n=500)
        assert np.array_equal(a.wind_speed, b.wind_speed)
        assert np.array_equal(a.active_power, b.active_power)

    def test_speed_density_peaks_inside_band(self):
        table = make_power_curve_table(seed=7, n=8000)
        counts, edges = np.histogram(table.wind_speed, bins=np.arange(0.0, 21.0))
        mode_center = edges[np.argmax(counts)] + 0.5
        assert 2.0 <= mode_center <= 11.0

    def test_contains_negative_power_readings(self):
        table = make_power_curve_table(seed=7, n=8000)
        assert int((table.active_power < 0).sum()) > 50

    def test_off_curve_outliers_present(self):
        spec = PowerCurveSpec()
        table = make_power_curve_table(seed=7, n=8000, spec=spec)
        clean = power_curve(table.wind_speed, spec)
        noise_std = spec.rated_power * (spec.noise_base + spec.noise_peak * clean / spec.rated_power)
        far_below = (clean - table.active_power) > 4.0 * noise_std
        assert int(far_below.sum()) > 20
        none = make_power_curve_table(
            seed=7, n=8000, spec=PowerCurveSpec(outlier_fraction=0.0)
        )
        clean0 = power_curve(none.wind_speed, spec)
        assert int(((clean0 - none.active_power) > 5.0 * noise_std).sum()) == 0

    def test_scatter_grows_along_ramp(self):
        spec = PowerCurveSpec()
        table = make_power_curve_table(seed=11, n=8000, spec=spec)
        resid = table.active_power - power_curve(table.wind_speed, spec)
        low = resid[table.wind_speed < 2.0]
        high = resid[(table.wind_speed > 10.5) & (table.wind_speed < 12.0)]
        assert low.size > 100 and high.size > 100
        iqr = lambda a: float(np.subtract(*np.percentile(a, [75, 25])))
        assert iqr(high) > 3.0 * iqr(low)


class TestHourlySeries:
    def test_shape_bounds_and_determinism(self):
        s = make_hourly_power_series(seed=4)
        assert s.shape == (4344,)
        assert s.min() > -200.0 and s.max() < 2300.0
        assert np.array_equal(s, make_hourly_power_series(seed=4))

    def test_autocorrelated_and_saturating(self):
        s = make_hourly_power_series(seed=4)
        lag1 = float(np.corrcoef(s[:-1], s[1:])[0, 1])
        assert lag1 > 0.5
        near_rated = float(np.mean(np.abs(s - 2000.0) < 100.0))
        assert near_rated > 0.05


class TestScalingRecords:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            RegressionDataset(np.zeros(3), np.zeros(3), ("a",))
        with pytest.raises(ValueError):
            RegressionDataset(np.zeros((3, 1)), np.zeros(2), ("a",))
        with pytest.raises(ValueError):
            RegressionDataset(np.zeros((3, 2)), np.zeros(3), ("a",))
        scaling = ColumnStats(minima={"a": 0.0}, maxima={"a": 1.0})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RegressionDataset(np.full((2, 1), 1.5), np.zeros(2), ("a",), scaling=scaling)
