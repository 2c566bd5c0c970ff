"""Property tests of the run-input readers.

``_read_numeric_csv`` must give back the column names verbatim and every
value bit for bit from a file written the way ``write_csv`` writes one
(floats via repr), for any shape down to one row or one column.
``read_config_file`` must give back every ``key = value`` entry, stripped,
whatever comments and blank lines surround them.  ``load_scada_csv`` must
give back every parseable row bit for bit, whatever the column order, extra
columns, renamed headers and blank lines, and name each unparseable or
ragged row by its file line; it must reject a repeated header name and ISO
8601 timestamps that run backwards, and note when it cannot check their
order.  The number parser both readers share must read every field text as
``np.loadtxt`` does.
"""

import math
import re
from datetime import datetime, timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from winduq.data import (  # noqa: E402
    SCADA_COLUMNS,
    _read_float,
    _read_numeric_csv,
    load_scada_csv,
)
from winduq.experiments import read_config_file  # noqa: E402

# examples come from a fixed seed and no example database, so every run
# checks the same draws and writes nothing
_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# names with inner and outer spaces and dashes, never blank or numeric
_NAMES = st.text(alphabet="abcefinxyz019 -_", min_size=1, max_size=10).filter(
    lambda n: n.strip() and not _is_number(n)
)

_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1.0 / 3.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1]),
)


@st.composite
def _tables(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(1, 6))
    values = draw(st.lists(_VALUES, min_size=rows * len(names), max_size=rows * len(names)))
    return names, np.array(values, dtype=np.float64).reshape(rows, len(names))


@_SETTINGS
@given(_tables())
@example((["wind speed"], np.array([[0.1]])))
@example((["a-b", " c "], np.array([[-0.0, 5e-324]])))
@example((["p"], np.array([[1.0], [2.5], [-3.0]])))
def test_numeric_csv_round_trips_bit_for_bit(tmp_path_factory, table):
    names, X = table
    path = tmp_path_factory.mktemp("csv") / "inputs.csv"
    lines = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in X]
    path.write_text("\n".join(lines) + "\n")
    got, got_names = _read_numeric_csv(path)
    assert got_names == names
    assert got.dtype == np.float64 and got.shape == X.shape
    assert got.tobytes() == X.tobytes()


_KEYS = st.from_regex(r"[a-z_][a-z0-9_.]{0,12}", fullmatch=True)
_VALUES_TEXT = st.text(alphabet="abc019.,-/ =", max_size=15).map(str.strip)


@_SETTINGS
@given(st.dictionaries(_KEYS, _VALUES_TEXT, max_size=6), st.data())
def test_config_file_round_trips(tmp_path_factory, entries, data):
    lines = []
    for key, value in entries.items():
        lines += data.draw(st.lists(st.sampled_from(["", "# note", "  #x = 1"]), max_size=2))
        pad = data.draw(st.sampled_from(["", " ", "  "]))
        lines.append(f"{pad}{key}{pad}={pad}{value}{pad}")
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert read_config_file(path) == entries


# field texts built from the pieces np.loadtxt's float grammar is made of, and
# from near misses: digit separators, non-ASCII digits, doubled signs and dots
_FIELD_PIECES = st.sampled_from([
    "0", "1", "7", "42", "+", "-", ".", "e", "E", "e-", "e+3", "_", "\u0661", "\uff11",
    "inf", "INF", "Infinity", "iNfInItY", "nan", "NaN", "-nan", "x", "0x1p3", "1e999", "5e-324",
])
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u2003", "\x0b", "\x1c"])
_FIELD_TEXTS = st.one_of(
    st.lists(_FIELD_PIECES, max_size=5).map("".join),
    st.tuples(_PADDING, st.lists(_FIELD_PIECES, min_size=1, max_size=4).map("".join), _PADDING)
    .map("".join),
    st.floats().map(repr),
)


@_SETTINGS
@given(_FIELD_TEXTS)
@example("1_0")
@example("\u0661")
@example(" -1.5e-3\t")
@example("\u00a0")
def test_number_parser_follows_loadtxt(text):
    try:  # a second column keeps even a blank text one field of one row
        expected = np.loadtxt([f"{text},0"], delimiter=",", ndmin=2, comments=None)[0, 0]
    except ValueError:
        expected = None
    got = _read_float(text)
    if not text.strip():  # blank: numpy rejects it, the parser reads it as missing
        assert expected is None and math.isnan(got)
    elif expected is None:
        assert got is None
    else:
        assert np.float64(got).tobytes() == expected.tobytes()


# (text in the file, value it reads as); None marks an unparseable field.
# Numbers come thrice, so that most files keep enough rows to check their order.
_SCADA_NUMBERS = _VALUES.map(lambda v: (repr(float(v)), float(v)))
_SCADA_FIELDS = st.one_of(
    _SCADA_NUMBERS, _SCADA_NUMBERS, _SCADA_NUMBERS,
    st.sampled_from(["", " ", "\t"]).map(lambda t: (t, math.nan)),
    st.sampled_from(["bad", "1.2.3", "--1", "5 m/s", "0x1p3", "1_0", "\u0661"]).map(
        lambda t: (t, None)
    ),
)
_SCADA_TEXT = st.text(alphabet="0129-: Tabc", max_size=12)
# upper case, so never one of the canonical names
_SCADA_HEADERS = st.text(alphabet="ABCWSP ()/-", min_size=1, max_size=8)
_UNCHECKED = "timestamps are not all ISO 8601; their order was not checked"


def _iso(minutes: int, sep: str) -> str:
    # "T" sorts after " ", so string order is not time order across separators
    return (datetime(2020, 1, 1) + timedelta(minutes=minutes)).isoformat(sep=sep)


@st.composite
def _scada_files(draw):
    """(file text, column_map, expected rows, expected diagnostics); for a
    rejected file, rows are None and the one diagnostic is the error."""
    n_extra = draw(st.integers(0, 2))
    names = draw(st.lists(_SCADA_HEADERS, min_size=4 + n_extra, max_size=4 + n_extra, unique=True))
    header = {
        c: names[i] if draw(st.booleans()) else c for i, c in enumerate(SCADA_COLUMNS)
    }
    columns = draw(st.permutations(list(header.values()) + names[4:]))
    column_map = {c: h for c, h in header.items() if h != c}
    if draw(st.integers(0, 9)) == 0:  # one name twice
        twice = draw(st.sampled_from(columns))
        columns.insert(draw(st.integers(columns.index(twice) + 1, len(columns))), twice)
        text = ",".join(columns) + "\n" + ",".join("1" * len(columns)) + "\n"
        return text, column_map, None, [f"duplicate column name {twice!r}"]
    stamp_at = columns.index(header["timestamp"])
    rows, kept, diagnostics = [], [], []  # rows: fields of each line, [] when blank
    for _ in range(draw(st.integers(1, 8))):
        rows += [[]] * draw(st.integers(0, 1))  # skipped, but still a file line
        line = 2 + len(rows)
        fields = {header["timestamp"]: (draw(_SCADA_TEXT), None)}
        for c in SCADA_COLUMNS[1:]:
            fields[header[c]] = draw(_SCADA_FIELDS)
        for extra in names[4:]:
            fields[extra] = (draw(_SCADA_TEXT), None)
        texts = [fields[c][0] for c in columns]
        # mostly whole rows; a short row keeps at least one comma, so it is never blank
        surplus = draw(st.sampled_from([0] * 8 + [-2, -1, 1]))
        texts = texts[: len(texts) + surplus] + [draw(_SCADA_TEXT) for _ in range(surplus)]
        rows.append(texts)
        values = [fields[header[c]][1] for c in SCADA_COLUMNS[1:]]
        if surplus:
            diagnostics.append(f"line {line}: expected {len(columns)} fields, got {len(texts)}")
        elif None in values:
            diagnostics.append(f"line {line}: unparseable numeric field")
        else:
            kept.append([line, None, *values])

    # the kept rows' timestamps: ISO 8601 in order, one running backwards, or not all ISO
    order = draw(st.sampled_from(["iso", "backwards", "other"]))
    minutes = sorted(draw(st.lists(st.integers(0, 10**6), min_size=len(kept),
                                   max_size=len(kept), unique=order == "backwards")))
    stamps = [_iso(m, draw(st.sampled_from(" T"))) for m in minutes]
    back = None
    if order == "backwards" and len(kept) > 1:
        back = draw(st.integers(1, len(kept) - 1))
        stamps[back - 1], stamps[back] = stamps[back], stamps[back - 1]
    if order == "other" and kept:
        for i in draw(st.lists(st.integers(0, len(kept) - 1), min_size=1, unique=True)):
            stamps[i] = "t" + draw(_SCADA_TEXT)  # no ISO 8601 time starts with a letter
    for row, stamp in zip(kept, stamps):
        row[1] = stamp
        rows[row[0] - 2][stamp_at] = stamp

    total = len(kept) + len(diagnostics)
    if 2 * len(diagnostics) > total:
        kept = None
        diagnostics = [f"{len(diagnostics)} of {total} rows invalid; first: {diagnostics[0]}"]
    elif back is not None:
        (line, stamp, *_), (earlier_line, earlier, *_) = kept[back], kept[back - 1]
        kept = None
        diagnostics = [f"line {line}: timestamp {stamp!r} is earlier than {earlier!r} on line "
                       f"{earlier_line}"]
    elif order == "other":
        diagnostics.append(_UNCHECKED)
    text = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    return text, column_map, kept, diagnostics


_HEADER = "timestamp,wind_speed,wind_direction,active_power\n"


@_SETTINGS
@given(_scada_files())
@example((_HEADER + "t,5.1,,-0.0\n", {}, [(2, "t", 5.1, math.nan, -0.0)], [_UNCHECKED]))
@example(("WS,timestamp,wind_direction,active_power,X\n1.0,a,2,3,z\nbad,b,2,3,z\n",
          {"wind_speed": "WS"}, [(2, "a", 1.0, 2.0, 3.0)],
          ["line 3: unparseable numeric field", _UNCHECKED]))
@example((_HEADER + "t1,5.1,180,300\n\nt2,bad,181,310\nt3,5.3\nt4,5.4,182,320,999\n", {},
          None, ["3 of 4 rows invalid; first: line 4: unparseable numeric field"]))
@example((_HEADER + "2018-01-01 00:10,1_0,2,3\n2018-01-01 00:20,\u0661,2,3\n"
          "2018-01-01 00:20,1,2,3\n2018-01-01 00:30,1,2,3\n2018-01-01 00:40,1,2,3\n", {},
          [(4, "2018-01-01 00:20", 1.0, 2.0, 3.0), (5, "2018-01-01 00:30", 1.0, 2.0, 3.0),
           (6, "2018-01-01 00:40", 1.0, 2.0, 3.0)],
          ["line 2: unparseable numeric field", "line 3: unparseable numeric field"]))
@example((_HEADER + "2018-01-01 00:10,1,2,3\n\n2018-01-01 00:00,1,2,3\n", {}, None,
          ["line 4: timestamp '2018-01-01 00:00' is earlier than '2018-01-01 00:10' on line 2"]))
@example(("timestamp,wind_speed,wind_speed,wind_direction,active_power\n"
          "t1,1,9,3,4\nt2,2,8,3,4\n", {}, None, ["duplicate column name 'wind_speed'"]))
def test_scada_csv_round_trips_and_names_bad_lines(tmp_path_factory, case):
    text, column_map, kept, diagnostics = case
    path = tmp_path_factory.mktemp("scada") / "scada.csv"
    path.write_text(text)
    if kept is None:  # the file is rejected, with the one diagnostic
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {diagnostics[0]}')}$"):
            load_scada_csv(path, column_map)
        return
    table, got = load_scada_csv(path, column_map)
    assert got == diagnostics
    assert list(table.timestamp) == [row[1] for row in kept]
    for i, name in enumerate(SCADA_COLUMNS[1:], start=2):
        expected = np.array([row[i] for row in kept], dtype=np.float64)
        assert getattr(table, name).tobytes() == expected.tobytes(), name
