"""Datasets: the synthetic sine benchmark, SCADA-style wind tables, windowing.

The SCADA path mirrors a fixed pipeline: load a raw table, repair negative
power readings, drop rows with missing values, min-max normalize every
variable to [0, 1], then slice lagged windows and split chronologically.
The hourly series of ``scaling`` shares the last three steps, and both paths
share one min-max rule (``_min_max``) and one window builder (``_lag_windows``).
The table's per-column min/max (``ColumnStats``) is recorded once and travels
with every windowed split.
A bundled power-curve surrogate generator produces tables with the same
qualitative shape (long-tailed speeds, saturating curve, heteroscedastic
scatter, off-curve outliers) for self-contained runs.
Both CSV readers, ``load_scada_csv`` and ``_read_numeric_csv`` (the inputs
of ``scaling`` and ``decompose``), share one header check, one scan that
names file lines and one number grammar, ``np.loadtxt``'s.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from .seeding import spawn_rng

SCADA_COLUMNS = ("timestamp", "wind_speed", "wind_direction", "active_power")


@dataclass(frozen=True)
class ColumnStats:
    """Per-column min/max recorded by preprocessing, in physical units."""

    minima: dict[str, float]
    maxima: dict[str, float]


@dataclass
class RegressionDataset:
    """Inputs, targets, split tag, provenance note, and the ``ColumnStats`` the
    inputs were min-max normalized with (None for raw units); inputs that
    carry such a record must lie in [0, 1]."""

    inputs: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    tag: str = ""
    provenance: str = ""
    scaling: ColumnStats | None = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.targets.shape != (self.inputs.shape[0],):
            raise ValueError(
                f"targets shape {self.targets.shape} does not match {self.inputs.shape[0]} rows"
            )
        if len(self.feature_names) != self.inputs.shape[1]:
            raise ValueError("feature_names must match the input width")
        if self.scaling is not None and self.inputs.size:
            lo, hi = self.inputs.min(), self.inputs.max()
            if lo < -1e-9 or hi > 1.0 + 1e-9:
                raise ValueError(
                    f"scaled inputs must lie in [0, 1], found range [{lo}, {hi}]"
                )

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ScadaTable:
    """Columnar wind turbine table in physical units."""

    timestamp: np.ndarray  # strings, kept only for chronology/provenance
    wind_speed: np.ndarray
    wind_direction: np.ndarray
    active_power: np.ndarray

    def __post_init__(self) -> None:
        self.timestamp = np.asarray(self.timestamp)
        self.wind_speed = np.asarray(self.wind_speed, dtype=np.float64)
        self.wind_direction = np.asarray(self.wind_direction, dtype=np.float64)
        self.active_power = np.asarray(self.active_power, dtype=np.float64)
        n = len(self.timestamp)
        for name in ("wind_speed", "wind_direction", "active_power"):
            if len(getattr(self, name)) != n:
                raise ValueError("all columns must have equal length")

    def __len__(self) -> int:
        return len(self.timestamp)


# ---------------------------------------------------------------------------
# synthetic sine benchmark


SINE_TRAIN_RANGE, SINE_TEST_RANGE = (0.0, 10.0), (10.0, 15.0)  # the test set extrapolates


def sine_mean(x: np.ndarray) -> np.ndarray:
    return x * np.sin(x)


def sine_conditional_variance(x: np.ndarray, noise_scale: float = 0.3) -> np.ndarray:
    """Ground-truth Var[y | x] for the sine benchmark: scale^2 * (x^2 + 1)."""
    return noise_scale**2 * (np.asarray(x, dtype=np.float64) ** 2 + 1.0)


def make_sine_dataset(
    seed: int,
    n_train: int = 1000,
    n_test: int = 200,
    noise_scale: float = 0.3,
) -> tuple[RegressionDataset, RegressionDataset]:
    """y = x sin x + e1 x + e2 with e1, e2 ~ N(0, noise_scale^2).

    Training inputs are uniform on ``SINE_TRAIN_RANGE``; the test inputs live
    on the disjoint ``SINE_TEST_RANGE`` so the test split probes
    extrapolation.  Inputs and targets are left in raw units.
    """
    if n_train < 1 or n_test < 0:
        raise ValueError("need n_train >= 1 and n_test >= 0")
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    rng = spawn_rng(seed)

    def draw(n: int, lo: float, hi: float, tag: str) -> RegressionDataset:
        x = rng.uniform(lo, hi, size=n)
        e1 = rng.normal(0.0, noise_scale, size=n)
        e2 = rng.normal(0.0, noise_scale, size=n)
        y = sine_mean(x) + e1 * x + e2
        return RegressionDataset(
            inputs=x[:, None],
            targets=y,
            feature_names=("x",),
            tag=tag,
            provenance=f"synthetic sine benchmark, noise_scale={noise_scale}, seed={seed}",
        )

    train = draw(n_train, *SINE_TRAIN_RANGE, "train")
    test = draw(n_test, *SINE_TEST_RANGE, "test")
    return train, test


# ---------------------------------------------------------------------------
# SCADA ingestion and preprocessing


# np.loadtxt's float grammar, after it strips padding whitespace
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                    re.ASCII | re.IGNORECASE)


def _read_float(text: str) -> float | None:
    """One CSV field as ``np.loadtxt`` reads a float (ASCII digits, no ``_``, padding
    whitespace ignored), or None where it reads none; a blank field reads as NaN."""
    text = text.strip()
    if not text:
        return math.nan
    return float(text) if _FLOAT.fullmatch(text) else None


def _csv_rows(path: Path, quoting: int) -> Iterator[tuple[int, list[str]]]:
    """(file line, fields) of a CSV file's header, which may quote its names and is
    checked to be there with distinct ones, then of every non-blank line below it,
    read with ``quoting`` (blank lines still count)."""
    with open(path, newline="", encoding="utf-8") as fh:
        head, body = csv.reader(fh), csv.reader(fh, quoting=quoting)
        try:
            header = next(head, [])
            if not header:
                raise ValueError("empty first line, expected a header row naming the columns")
            twice = [name for i, name in enumerate(header) if name in header[:i]]
            if twice:
                raise ValueError(f"duplicate column name {twice[0]!r}")
            yield head.line_num, header
            yield from ((head.line_num + body.line_num, row) for row in body if row)
        except csv.Error as exc:
            raise ValueError(f"line {head.line_num + body.line_num}: {exc}") from None


def load_scada_csv(
    path: str | Path, column_map: dict[str, str] | None = None
) -> tuple[ScadaTable, list[str]]:
    """Read a raw SCADA CSV into a table, collecting per-row diagnostics.

    ``column_map`` maps the canonical names (timestamp, wind_speed,
    wind_direction, active_power) to distinct file header names.  Rows whose
    field count differs from the header's, or whose numeric fields do not
    parse, are dropped and reported by file line; more than 50% bad rows
    aborts.  Empty numeric fields become NaN, for preprocessing to drop.
    The splits follow row order, so where every kept timestamp parses with
    ``datetime.fromisoformat``, one running backwards is an error; otherwise
    one more diagnostic says that their order was not checked.
    """
    column_map = column_map or {}
    unknown = set(column_map) - set(SCADA_COLUMNS)
    if unknown:
        raise ValueError(f"column_map refers to unknown canonical names: {sorted(unknown)}")
    names = [column_map.get(c, c) for c in SCADA_COLUMNS]  # the file's, in canonical order
    for i, name in enumerate(names):
        if name in names[:i]:  # one file column would be read as two quantities
            raise ValueError(f"column_map reads {SCADA_COLUMNS[names.index(name)]!r} and "
                             f"{SCADA_COLUMNS[i]!r} from one column {name!r}")
    try:
        rows = _csv_rows(path, csv.QUOTE_MINIMAL)
        _, header = next(rows)
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"missing required columns {missing}")
        stamp_at, *value_at = map(header.index, names)
        kept, diagnostics = [], []  # kept: (file line, timestamp, values) of each good row
        for line, row in rows:
            if len(row) != len(header):
                diagnostics.append(f"line {line}: expected {len(header)} fields, got {len(row)}")
            elif None in (numbers := [_read_float(row[i]) for i in value_at]):
                diagnostics.append(f"line {line}: unparseable numeric field")
            else:
                kept.append((line, row[stamp_at], numbers))

        total = len(kept) + len(diagnostics)
        if total == 0:
            raise ValueError("no data rows")
        if len(diagnostics) * 2 > total:
            raise ValueError(f"{len(diagnostics)} of {total} rows invalid; first: {diagnostics[0]}")
        lines, stamps, values = zip(*kept)
        try:  # times, not strings, which a "T" or " " separator or an offset reorders
            times = [datetime.fromisoformat(s) for s in stamps]
            back = next((i for i in range(1, len(times)) if times[i] < times[i - 1]), 0)
        except (ValueError, TypeError):  # TypeError: naive and aware times mixed
            diagnostics.append("timestamps are not all ISO 8601; their order was not checked")
            back = 0
        if back:
            raise ValueError(f"line {lines[back]}: timestamp {stamps[back]!r} is earlier than "
                             f"{stamps[back - 1]!r} on line {lines[back - 1]}")
    except ValueError as exc:  # also undecodable bytes
        raise ValueError(f"{path}: {exc}") from None
    speeds, directions, powers = np.array(values, dtype=np.float64).T
    return ScadaTable(np.array(stamps, dtype=object), speeds, directions, powers), diagnostics


def _read_numeric_csv(path: Path) -> tuple[np.ndarray, list[str]]:
    """The (n, d) float64 rows and the d column names of a CSV input.

    The first line names the columns: distinct, non-empty, non-numeric, not
    starting with a double quote once unquoted, and kept verbatim.  Every
    later non-blank line is a row of d finite numbers, and there is at least
    one; its fields are read as ``np.loadtxt`` reads them, quotes included.
    Any other file raises a one-line ValueError naming it, and the line and
    column of a malformed row.
    """
    try:
        rows = _csv_rows(path, csv.QUOTE_NONE)  # np.loadtxt keeps a row's quotes too
        _, header = next(rows)
        width = len(header)
        for i, name in enumerate(header):
            if not name.strip() or "," in name:  # a quoted comma would split the output
                raise ValueError(f"column {i + 1} has an empty or comma-holding name")
            if name.startswith('"'):  # written back unquoted, it would lose its quotes
                raise ValueError(f"column {i + 1} name {name!r} starts with a double quote")
            if _read_float(name) is not None:
                raise ValueError(f"column name {name!r} is a number, expected a header row")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty body is reported below
                X = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                               encoding="utf-8")
        except ValueError:
            X = None
        if X is not None and X.shape[0] == 0:
            raise ValueError("no data rows below the header")
        if X is None or X.shape[1] != width or not np.isfinite(X).all():
            # numpy counts rows from other bases; the same grammar names the file line
            for line, row in rows:
                if len(row) != width:
                    raise ValueError(
                        f"line {line}: the number of columns changed from {width} to {len(row)}"
                    )
                for name, raw in zip(header, row):
                    value = _read_float(raw)
                    if value is None or not math.isfinite(value):
                        raise ValueError(
                            f"line {line}, column {name!r}: expected a finite number, got {raw!r}"
                        )
            raise ValueError("malformed data row")
    except ValueError as exc:  # also undecodable bytes
        raise ValueError(f"{path}: {exc}") from None
    return X, header


def _min_max(name: str, col: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``col`` min-max normalized to [0, 1], and the min and max it was scaled by; an
    empty column gets through, for ``_lag_windows`` to report as too short."""
    lo, hi = float(col.min(initial=np.inf)), float(col.max(initial=-np.inf))
    if hi == lo:
        raise ValueError(f"column {name} is constant; min-max normalization undefined")
    return (col - lo) / (hi - lo), lo, hi


def preprocess_power_table(table: ScadaTable) -> tuple[ScadaTable, ColumnStats]:
    """Repair, filter and normalize a raw table.

    In order: negative power readings are replaced by the sample mean of the
    nonnegative power entries; rows with NaN in any numeric column are
    dropped; every numeric column is min-max normalized to [0, 1].  The
    min/max used are recorded so downstream consumers can map back to
    physical units.
    """
    power = table.active_power.copy()
    nonneg = power[power >= 0]
    nonneg = nonneg[np.isfinite(nonneg)]
    negative = np.isfinite(power) & (power < 0)
    if negative.any():
        if nonneg.size == 0:
            raise ValueError("cannot repair negative power: no nonnegative entries")
        power[negative] = nonneg.mean()

    keep = np.isfinite(table.wind_speed) & np.isfinite(table.wind_direction) & np.isfinite(power)
    if not keep.any():
        raise ValueError("no rows left after dropping missing values")

    scaled = {name: _min_max(name, col[keep]) for name, col in (
        ("wind_speed", table.wind_speed), ("wind_direction", table.wind_direction),
        ("active_power", power))}
    clean = ScadaTable(table.timestamp[keep], *(col for col, _, _ in scaled.values()))
    return clean, ColumnStats({k: lo for k, (_, lo, _) in scaled.items()},
                              {k: hi for k, (_, _, hi) in scaled.items()})


# ---------------------------------------------------------------------------
# windowing


def _lag_windows(
    lags: int, columns: dict[str, np.ndarray], now: tuple[str, ...] = ()
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The features of rows t = lags .. n-1 of the equal-length ``columns``, and their
    names: each column, keyed by its name prefix p, adds its values at t - lags .. t - 1
    as ``{p}lag{lags}`` .. ``{p}lag1``, then each prefix in ``now`` its value at t as ``{p}now``."""
    n = len(next(iter(columns.values())))
    if lags < 1:
        raise ValueError(f"lags must be >= 1, got {lags}")
    if n <= lags:
        raise ValueError(f"need more than {lags} rows to build windows, got {n}")
    blocks = [np.lib.stride_tricks.sliding_window_view(c, lags)[:-1] for c in columns.values()]
    X = np.hstack([*blocks, *(columns[p][lags:, None] for p in now)])
    names = [f"{p}lag{k}" for p in columns for k in range(lags, 0, -1)]
    return X, (*names, *(f"{p}now" for p in now))


def _chronological_split(
    X: np.ndarray, y: np.ndarray, names: tuple[str, ...], provenance: str,
    cuts: tuple[int, ...], tags: tuple[str, ...], scaling: ColumnStats | None,
) -> tuple[RegressionDataset, ...]:
    """Consecutive windows cut at ``cuts``, one dataset per tag, oldest first."""
    bounds = (0, *cuts, len(y))
    return tuple(
        RegressionDataset(X[lo:hi], y[lo:hi], names, tag, provenance, scaling)
        for tag, lo, hi in zip(tags, bounds[:-1], bounds[1:])
    )


def window_power_table(
    clean: ScadaTable,
    stats: ColumnStats,
    lags: int = 10,
) -> tuple[RegressionDataset, RegressionDataset, RegressionDataset]:
    """Lagged windows over a normalized table, split chronologically.

    Each row t >= lags becomes one sample: the previous ``lags`` values of
    speed, direction and power, plus the current speed and direction
    (3 * lags + 2 features).  The target is the current power.  The split is
    train/validation/test in time order, 9:1:1; train and validation sizes
    are floored, the remainder is the test set.  Every split carries
    ``stats`` unchanged as its ``scaling`` record.
    """
    columns = {"speed_": clean.wind_speed, "direction_": clean.wind_direction,
               "power_": clean.active_power}
    X, names = _lag_windows(lags, columns, now=("speed_", "direction_"))
    y = clean.active_power[lags:]
    n_windows = X.shape[0]
    n_train = int(n_windows * (9 / 11))
    n_val = int(n_windows * (1 / 11))
    return _chronological_split(
        X, y, names, f"windowed power table, lags={lags}", (n_train, n_train + n_val),
        ("train", "validation", "test"), stats,
    )


def current_speed_column(ds: RegressionDataset) -> np.ndarray:
    """Physical-unit current wind speed for each row of a windowed dataset."""
    if ds.scaling is None:
        raise ValueError("dataset carries no scaling record")
    lo, hi = ds.scaling.minima["wind_speed"], ds.scaling.maxima["wind_speed"]
    return lo + ds.inputs[:, ds.feature_names.index("speed_now")] * (hi - lo)


def window_univariate_series(
    series: np.ndarray,
    lags: int = 24,
    test_fraction: float = 0.1,
) -> tuple[RegressionDataset, RegressionDataset]:
    """Autoregressive windows over a single series, most recent part as test.

    The series is min-max normalized (NaN entries dropped first); each row
    t >= lags predicts value t from the previous ``lags`` values.  The test
    set is the most recent ceil(test_fraction * n_windows) rows.  Neither
    split carries a scaling record.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    series = series[np.isfinite(series)]
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    norm, _, _ = _min_max("series", series)
    X, names = _lag_windows(lags, {"": norm})
    y = norm[lags:]
    n_windows = X.shape[0]
    n_test = int(math.ceil(test_fraction * n_windows))
    if n_test >= n_windows:
        raise ValueError("test fraction leaves no training rows")
    return _chronological_split(
        X, y, names, f"univariate windows, lags={lags}", (n_windows - n_test,),
        ("train", "test"), None,
    )


def subsample_dataset(ds: RegressionDataset, ratio: float, seed: int) -> RegressionDataset:
    """Uniform subset without replacement, size floor(ratio * n + 0.5).

    Subsets for different ratios are drawn independently (not nested).  Row
    order is preserved.  ratio = 1.0 returns a copy of every row, whose
    provenance, like any subset's, gains `` | subsampled ratio=1.0``.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    n = len(ds)
    size = int(math.floor(ratio * n + 0.5))
    if size < 1:
        raise ValueError(f"ratio {ratio} selects no rows from {n}")
    idx = np.sort(spawn_rng(seed).choice(n, size=size, replace=False))
    return replace(
        ds, inputs=ds.inputs[idx], targets=ds.targets[idx],
        provenance=f"{ds.provenance} | subsampled ratio={ratio}",
    )


# ---------------------------------------------------------------------------
# bundled surrogate generators


@dataclass(frozen=True)
class PowerCurveSpec:
    """Shape of the synthetic turbine used by the bundled surrogate."""

    cut_in: float = 3.0
    rated_speed: float = 12.0
    rated_power: float = 2000.0
    weibull_shape: float = 2.0
    weibull_scale: float = 8.0
    noise_base: float = 0.01  # noise std as a fraction of rated power, at low speed
    noise_peak: float = 0.06  # added noise fraction approached near rated speed
    outlier_fraction: float = 0.03

    def __post_init__(self) -> None:
        if not 0 < self.cut_in < self.rated_speed:
            raise ValueError("need 0 < cut_in < rated_speed")
        if self.rated_power <= 0 or self.weibull_shape <= 0 or self.weibull_scale <= 0:
            raise ValueError("rated_power and Weibull parameters must be positive")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError(f"outlier_fraction must lie in [0, 1), got {self.outlier_fraction}")


def power_curve(speeds: np.ndarray, spec: PowerCurveSpec = PowerCurveSpec()) -> np.ndarray:
    """Idealized saturating turbine curve: 0 below cut-in, rated above rated."""
    v = np.asarray(speeds, dtype=np.float64)
    u = np.clip((v - spec.cut_in) / (spec.rated_speed - spec.cut_in), 0.0, 1.0)
    ramp = u * u * (3.0 - 2.0 * u)  # smooth monotone ramp
    return spec.rated_power * ramp


def make_power_curve_table(
    seed: int, n: int = 8000, spec: PowerCurveSpec = PowerCurveSpec()
) -> ScadaTable:
    """Surrogate SCADA table: long-tailed speeds, heteroscedastic scatter.

    Speeds follow a Weibull distribution whose density mode sits inside the
    2-11 m/s band; measurement noise grows along the ramp toward rated speed,
    so scatter is widest where the curve saturates.  A configurable fraction
    of rows is pushed below the curve (curtailment-style outliers), and the
    additive noise produces occasional small negative power readings near
    cut-in, exercising the repair rule.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = spawn_rng(seed)
    speeds = spec.weibull_scale * rng.weibull(spec.weibull_shape, size=n)
    speeds = np.clip(speeds, 0.0, 2.5 * spec.rated_speed)
    clean_power = power_curve(speeds, spec)
    ramp = clean_power / spec.rated_power
    noise_std = spec.rated_power * (spec.noise_base + spec.noise_peak * ramp)
    power = clean_power + rng.normal(0.0, 1.0, size=n) * noise_std
    outliers = rng.random(n) < spec.outlier_fraction
    power[outliers] = rng.uniform(0.0, np.maximum(clean_power[outliers], 1e-9))
    directions = rng.uniform(0.0, 360.0, size=n)
    stamps = np.array([f"t{i:07d}" for i in range(n)], dtype=object)
    return ScadaTable(stamps, speeds, directions, power)


def make_hourly_power_series(seed: int, n: int = 4344) -> np.ndarray:
    """Synthetic hourly wind power series for the data-volume experiment.

    A smooth pseudo-wind-speed signal (diurnal + weekly cycles plus AR(1)
    gusts) is pushed through the idealized power curve with mild additive
    noise, giving an autocorrelated, bounded series in physical units.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    rng = spawn_rng(seed)
    t = np.arange(n)
    base = 8.0 + 2.5 * np.sin(2 * np.pi * t / 24.0) + 1.5 * np.sin(2 * np.pi * t / (24.0 * 7))
    gusts = np.empty(n)
    gusts[0] = 0.0
    shocks = rng.normal(0.0, 1.2, size=n)
    for i in range(1, n):
        gusts[i] = 0.85 * gusts[i - 1] + shocks[i]
    speeds = np.maximum(base + gusts, 0.0)
    spec = PowerCurveSpec()
    power = power_curve(speeds, spec) + rng.normal(0.0, 0.015 * spec.rated_power, size=n)
    return power
