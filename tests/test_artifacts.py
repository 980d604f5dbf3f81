import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frostdem.artifacts import write_table

EDGE_VALUES = [
    0.0, -0.0, 1.0, -3.0, 1e15, 2.0 ** 53,           # integral floats
    5e-324, -2.5e-320, sys.float_info.min,           # subnormals, least normal
    1e300, -1.7976931348623157e308, 1e-300,
    0.1, 1 / 3, 123456789012.5, 999999999999.5,      # 12-digit rounding
    9.999999999995e-5, 0.12345678901249999, 1.00000000000049999,
]


def table_bytes(path, rows):
    return write_table(path, ("a", "b", "c"), rows).read_bytes()


def test_float_array_and_tuples_give_identical_bytes(tmp_path):
    rows = np.array(EDGE_VALUES + [7.0, 8.0], dtype=np.float64).reshape(-1, 3)
    as_array = table_bytes(tmp_path / "array.tsv", rows)
    as_tuples = table_bytes(tmp_path / "tuples.tsv",
                            [tuple(row) for row in rows.tolist()])
    assert as_array == as_tuples
    assert as_array.splitlines()[1] == b"0\t-0\t1"


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                       min_size=3, max_size=30))
def test_float_array_matches_tuples_on_any_double(tmp_path_factory, values):
    rows = np.array(values[:len(values) // 3 * 3]).reshape(-1, 3)
    out = tmp_path_factory.mktemp("table")
    assert table_bytes(out / "array.tsv", rows) == \
        table_bytes(out / "tuples.tsv", [tuple(r) for r in rows.tolist()])


def test_empty_float_array_writes_the_header_alone(tmp_path):
    rows = np.zeros((0, 3), dtype=np.float64)
    as_array = table_bytes(tmp_path / "array.tsv", rows)
    assert as_array == b"a\tb\tc\n"
    assert as_array == table_bytes(tmp_path / "tuples.tsv", [])
