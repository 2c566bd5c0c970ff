"""Property tests of the run-input readers.

``_read_numeric_csv`` must give back the column names verbatim and every
value bit for bit from a file written the way ``write_csv`` writes one
(floats via repr), for any shape down to one row or one column.
``read_config_file`` must give back every ``key = value`` entry, stripped,
whatever comments and blank lines surround them.  ``load_scada_csv`` must
give back every parseable row bit for bit, whatever the column order, extra
columns, renamed headers and blank lines, and name each unparseable or
ragged row by its file line.
"""

import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from winduq.data import SCADA_COLUMNS, load_scada_csv  # noqa: E402
from winduq.experiments import _read_numeric_csv, read_config_file  # noqa: E402

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


# (text in the file, value it reads as); None marks an unparseable field
_SCADA_FIELDS = st.one_of(
    _VALUES.map(lambda v: (repr(float(v)), float(v))),
    st.sampled_from(["", " ", "\t"]).map(lambda t: (t, math.nan)),
    st.sampled_from(["bad", "1.2.3", "--1", "5 m/s", "0x1p3"]).map(lambda t: (t, None)),
)
_SCADA_TEXT = st.text(alphabet="0129-: Tabc", max_size=12)
# upper case, so never one of the canonical names
_SCADA_HEADERS = st.text(alphabet="ABCWSP ()/-", min_size=1, max_size=8)


@st.composite
def _scada_files(draw):
    """(file text, column_map, expected rows, expected diagnostics)."""
    n_extra = draw(st.integers(0, 2))
    names = draw(st.lists(_SCADA_HEADERS, min_size=4 + n_extra, max_size=4 + n_extra, unique=True))
    header = {
        c: names[i] if draw(st.booleans()) else c for i, c in enumerate(SCADA_COLUMNS)
    }
    columns = draw(st.permutations(list(header.values()) + names[4:]))
    lines, kept, diagnostics = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        lines += [""] * draw(st.integers(0, 1))  # skipped, but still a file line
        line = 2 + len(lines)
        fields = {header["timestamp"]: (draw(_SCADA_TEXT), None)}
        for c in SCADA_COLUMNS[1:]:
            fields[header[c]] = draw(_SCADA_FIELDS)
        for extra in names[4:]:
            fields[extra] = (draw(_SCADA_TEXT), None)
        texts = [fields[c][0] for c in columns]
        # mostly whole rows; a short row keeps at least one comma, so it is never blank
        surplus = draw(st.sampled_from([0, 0, 0, 0, -2, -1, 1]))
        texts = texts[: len(texts) + surplus] + [draw(_SCADA_TEXT) for _ in range(surplus)]
        lines.append(",".join(texts))
        values = [fields[header[c]][1] for c in SCADA_COLUMNS[1:]]
        if surplus:
            diagnostics.append(f"line {line}: expected {len(columns)} fields, got {len(texts)}")
        elif None in values:
            diagnostics.append(f"line {line}: unparseable numeric field")
        else:
            kept.append((fields[header["timestamp"]][0], *values))
    text = "\n".join([",".join(columns), *lines]) + "\n"
    column_map = {c: h for c, h in header.items() if h != c}
    return text, column_map, kept, diagnostics


@_SETTINGS
@given(_scada_files())
@example(("timestamp,wind_speed,wind_direction,active_power\nt,5.1,,-0.0\n", {},
          [("t", 5.1, math.nan, -0.0)], []))
@example(("WS,timestamp,wind_direction,active_power,X\n1.0,a,2,3,z\nbad,b,2,3,z\n",
          {"wind_speed": "WS"}, [("a", 1.0, 2.0, 3.0)], ["line 3: unparseable numeric field"]))
@example(("timestamp,wind_speed,wind_direction,active_power\nt1,5.1,180,300\n\n"
          "t2,bad,181,310\nt3,5.3\nt4,5.4,182,320,999\n", {},
          [("t1", 5.1, 180.0, 300.0)],
          ["line 4: unparseable numeric field", "line 5: expected 4 fields, got 2",
           "line 6: expected 4 fields, got 5"]))
@example(("timestamp,wind_speed,wind_speed,wind_direction,active_power\n"
          "t1,1,9,3,4\nt2,2,8,3,4\n", {}, None, ["header names column 'wind_speed' twice"]))
def test_scada_csv_round_trips_and_names_bad_lines(tmp_path_factory, case):
    text, column_map, kept, diagnostics = case
    path = tmp_path_factory.mktemp("scada") / "scada.csv"
    path.write_text(text)
    if kept is None:  # the header is rejected, with the one diagnostic
        with pytest.raises(ValueError, match=re.escape(f"{path}: {diagnostics[0]}")):
            load_scada_csv(path, column_map)
        return
    total = sum(1 for line in text.splitlines()[1:] if line)  # blank lines skipped
    if 2 * len(diagnostics) > total:
        message = f"{len(diagnostics)} of {total} rows invalid; first: {diagnostics[0]}"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_scada_csv(path, column_map)
        return
    table, got = load_scada_csv(path, column_map)
    assert got == diagnostics
    assert list(table.timestamp) == [row[0] for row in kept]
    for i, name in enumerate(SCADA_COLUMNS[1:], start=1):
        expected = np.array([row[i] for row in kept], dtype=np.float64)
        assert getattr(table, name).tobytes() == expected.tobytes(), name
