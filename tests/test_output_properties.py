"""Property tests of the result-table writer.

``write_csv`` formats each distinct 64-bit pattern of a float matrix once.
Its bytes must equal those of formatting every cell with ``format_cell``,
also where values repeat and differ only in bits that compare equal:
``0.0`` next to ``-0.0``, and NaNs of either sign or with a payload.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from winduq.experiments import format_cell, write_csv  # noqa: E402

# examples come from a fixed seed and no example database, so every run
# checks the same draws and writes nothing
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]

# a small pool, so that cells repeat within a matrix
_POOL = [0.0, -0.0, np.nan, -np.nan, _NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -5e-324,
         2.0**53, np.nextafter(1.0, 2.0), 1.0, 0.1, -123.0, 1e16]


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from(_POOL), st.floats())
    values = draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def _assert_writes_the_bytes_of_format_cell(path, matrix: np.ndarray) -> None:
    header = [f"c{j}" for j in range(matrix.shape[1])]
    reference = [",".join(header)] + [",".join(format_cell(v) for v in row) for row in matrix]
    write_csv(path, header, matrix)
    assert path.read_text() == "\n".join(reference) + "\n"


@_SETTINGS
@given(_matrices())
def test_float_matrix_writes_the_bytes_of_format_cell(tmp_path_factory, matrix):
    _assert_writes_the_bytes_of_format_cell(tmp_path_factory.mktemp("csv") / "m.csv", matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.0, -0.0, np.nan], [-0.0, 0.0, -np.nan]]),
        np.empty((0, 3)),
        np.array([[3, -1, 0], [7, 3, 3]]),
        np.array([[1, 0], [0, 1]], dtype=bool),
        np.array([[0.1, 0.5, -0.0]], dtype=np.float32),
        (np.arange(24.0).reshape(4, 6) / 7.0)[::2, ::2],  # a non-contiguous view
        np.array([[-0.0, 1.0, 2.5], [1.0, 0.0, 2.5]]).T.copy().T,  # Fortran order
    ],
    ids=["signed-zeros-and-nans", "zero-rows", "int", "bool", "float32", "strided-view", "fortran"],
)
def test_any_matrix_writes_the_bytes_of_format_cell(tmp_path, matrix):
    _assert_writes_the_bytes_of_format_cell(tmp_path / "m.csv", matrix)
