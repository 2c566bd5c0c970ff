"""Property tests of the two run-input readers.

``_read_numeric_csv`` must give back the column names verbatim and every
value bit for bit from a file written the way ``write_csv`` writes one
(floats via repr), for any shape down to one row or one column.
``read_config_file`` must give back every ``key = value`` entry, stripped,
whatever comments and blank lines surround them.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
