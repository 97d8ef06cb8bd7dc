"""CSV ingestion/emission and dataset validation."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbank import tabular
from synthbank.binning import (
    BinningError,
    Codebook,
    ColumnCodec,
    EncodedDataset,
    read_encoded_csv,
    write_encoded_csv,
)
from synthbank.tabular import (
    CATEGORICAL,
    FLOAT_FORMAT,
    NUMERIC,
    ColumnSpec,
    Dataset,
    TabularError,
    load_schema,
    read_csv,
    save_schema,
    write_csv,
)

SCHEMA = (
    ColumnSpec("age", NUMERIC),
    ColumnSpec("gender", CATEGORICAL, levels=("M", "F")),
)


def make_fixture(tmp_path, body):
    path = tmp_path / "data.csv"
    path.write_text("age,gender\n" + body, encoding="utf-8")
    return path


def cells_match(a: Dataset, b: Dataset) -> bool:
    """Cell-for-cell equality, numeric cells at 12 significant digits."""
    if a.column_names != b.column_names or a.n_records != b.n_records:
        return False
    for spec in a.schema:
        ca, cb = a.column(spec.name), b.column(spec.name)
        if spec.is_categorical:
            if not np.array_equal(ca, cb):
                return False
        else:
            fa = ["{:.12g}".format(v) for v in ca]
            fb = ["{:.12g}".format(v) for v in cb]
            if fa != fb:
                return False
    return True


def test_read_three_rows(tmp_path):
    path = make_fixture(tmp_path, "30,M\n41,F\n55,M\n")
    ds = read_csv(path, SCHEMA)
    assert ds.n_records == 3
    assert np.array_equal(ds.column("age"), [30.0, 41.0, 55.0])
    assert np.array_equal(ds.column("gender"), [0, 1, 0])


def test_read_empty_body(tmp_path):
    path = make_fixture(tmp_path, "")
    ds = read_csv(path, SCHEMA)
    assert ds.n_records == 0


def test_unknown_level_names_row_and_column(tmp_path):
    path = make_fixture(tmp_path, "30,M\n41,X\n55,M\n")
    with pytest.raises(TabularError, match=r"row 2, column 'gender'"):
        read_csv(path, SCHEMA)


def test_unparseable_numeric_names_location(tmp_path):
    path = make_fixture(tmp_path, "30,M\nold,F\n")
    with pytest.raises(TabularError, match=r"row 2, column 'age'"):
        read_csv(path, SCHEMA)


def test_missing_value_rejected(tmp_path):
    path = make_fixture(tmp_path, "30,M\n,F\n")
    with pytest.raises(TabularError, match="missing value"):
        read_csv(path, SCHEMA)


def test_missing_file():
    with pytest.raises(TabularError, match="no such file"):
        read_csv("/nonexistent/nope.csv", SCHEMA)


def test_missing_encoded_file():
    codebook = Codebook([ColumnCodec(name="a0", kind="categorical", labels=("0", "1"))])
    with pytest.raises(TabularError) as info:
        read_encoded_csv("/nonexistent/nope.csv", codebook)
    assert str(info.value) == "no such file: /nonexistent/nope.csv"


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("age,sex\n30,M\n", encoding="utf-8")
    with pytest.raises(TabularError, match="header mismatch"):
        read_csv(path, SCHEMA)


def test_round_trip_three_rows(tmp_path):
    ds = Dataset(SCHEMA, [np.array([30.0, 41.5, 55.25]), np.array([0, 1, 0])])
    out = tmp_path / "rt.csv"
    write_csv(ds, out)
    again = read_csv(out, SCHEMA)
    assert cells_match(ds, again)


def test_zero_row_dataset_writes_header_only(tmp_path):
    ds = Dataset(SCHEMA, [np.zeros(0), np.zeros(0, dtype=np.int64)])
    out = tmp_path / "empty.csv"
    write_csv(ds, out)
    assert out.read_bytes() == b"age,gender\r\n"
    assert read_csv(out, SCHEMA).n_records == 0


def test_level_label_with_comma_is_quoted(tmp_path):
    schema = (ColumnSpec("segment", CATEGORICAL, levels=("retail, small", "corporate")),)
    ds = Dataset(schema, [np.array([0, 1, 0])])
    out = tmp_path / "quoted.csv"
    write_csv(ds, out)
    raw = out.read_text(encoding="utf-8")
    assert '"retail, small"' in raw
    assert cells_match(ds, read_csv(out, schema))


def test_out_of_range_categorical_rejected():
    with pytest.raises(TabularError, match="out of range"):
        Dataset(SCHEMA, [np.array([30.0]), np.array([2])])


def test_ragged_columns_rejected():
    with pytest.raises(TabularError, match="cells"):
        Dataset(SCHEMA, [np.array([30.0, 40.0]), np.array([0])])


def test_non_finite_rejected():
    with pytest.raises(TabularError, match="non-finite"):
        Dataset(SCHEMA, [np.array([np.nan]), np.array([0])])


def test_schema_json_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    save_schema(SCHEMA, path)
    assert load_schema(path) == SCHEMA


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"name": "g", "kind": "categorical", "levels": "MF"},
            "column 'g': levels must be a list of strings, got 'MF'",
        ),
        (
            {"name": "g", "kind": "categorical", "levels": [1, 2]},
            "column 'g': levels must be a list of strings, got [1, 2]",
        ),
        ({"name": 5, "kind": "numeric"}, "column name must be a non-empty string, got 5"),
        ({"name": "x", "kind": "numeric", "units": 3}, "column 'x': units must be a string, got 3"),
        ({"name": "x\ny", "kind": "numeric"}, "column name must not hold CR or LF, got 'x\\ny'"),
        ({"name": "x\rz", "kind": "numeric"}, "column name must not hold CR or LF, got 'x\\rz'"),
    ],
    ids=["string-levels", "numeric-levels", "numeric-name", "numeric-units", "lf-name", "cr-name"],
)
def test_schema_document_field_types_are_checked(tmp_path, entry, message):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(TabularError) as err:
        load_schema(path)
    assert str(err.value) == message


def test_duplicate_levels_rejected():
    with pytest.raises(TabularError, match="unique"):
        ColumnSpec("g", CATEGORICAL, levels=("M", "M"))


def test_numeric_with_levels_rejected():
    with pytest.raises(TabularError, match="must not declare levels"):
        ColumnSpec("age", NUMERIC, levels=("x",))


_label = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
    min_size=1,
    max_size=8,
)


@st.composite
def dataset_strategy(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 12))
    schema = []
    columns = []
    for j in range(n_cols):
        kind = draw(st.sampled_from([NUMERIC, CATEGORICAL]))
        if kind == CATEGORICAL:
            levels = draw(
                st.lists(_label, min_size=1, max_size=5, unique=True).map(tuple)
            )
            schema.append(ColumnSpec(f"c{j}", CATEGORICAL, levels=levels))
            columns.append(
                np.array(
                    draw(
                        st.lists(
                            st.integers(0, len(levels) - 1),
                            min_size=n_rows,
                            max_size=n_rows,
                        )
                    ),
                    dtype=np.int64,
                )
            )
        else:
            schema.append(ColumnSpec(f"c{j}", NUMERIC))
            columns.append(
                np.array(
                    draw(
                        st.lists(
                            st.floats(
                                allow_nan=False,
                                allow_infinity=False,
                                min_value=-1e12,
                                max_value=1e12,
                            ),
                            min_size=n_rows,
                            max_size=n_rows,
                        )
                    ),
                    dtype=np.float64,
                )
            )
    return Dataset(tuple(schema), columns)


@settings(max_examples=60, deadline=None)
@given(dataset_strategy())
def test_csv_round_trip_property(tmp_path_factory, ds):
    out = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(ds, out)
    assert cells_match(ds, read_csv(out, ds.schema))


def test_write_unwritable_path():
    # both writers give the same error
    path = "/nonexistent-dir/nope.csv"
    ds = Dataset(SCHEMA, [np.array([1.0]), np.array([0])])
    codebook = Codebook([ColumnCodec(name="a0", kind="categorical", labels=("0", "1"))])
    messages = []
    for write, data in ((write_csv, ds), (write_encoded_csv, EncodedDataset([[1]], codebook))):
        with pytest.raises(TabularError) as info:
            write(data, path)
        messages.append(str(info.value))
    assert messages[0].startswith(f"cannot write {path}: ")
    assert messages[1] == messages[0]


# ------------------------------------------------ per-cell byte references
#
# The cell-by-cell writers and reader below are the CSV layer as it was
# before it converted whole columns at once. They pin the bytes that
# write_csv and write_encoded_csv must keep, and the values and error
# messages that read_csv must keep.


def reference_write_csv(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, doublequote=True)
        writer.writerow(dataset.column_names)
        text_columns = []
        for spec in dataset.schema:
            col = dataset.column(spec.name)
            if spec.is_categorical:
                text_columns.append([spec.levels[c] for c in col])
            else:
                text_columns.append([FLOAT_FORMAT.format(v) for v in col])
        writer.writerows(zip(*text_columns) if text_columns else [])


def reference_write_encoded_csv(encoded, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(encoded.codebook.names) + "\n")
        for row in encoded.codes:
            fh.write(",".join(str(int(c)) for c in row) + "\n")


def reference_read_csv(path, schema):
    schema = tuple(schema)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TabularError(f"{path}: empty file, header row is mandatory")
        expected = [spec.name for spec in schema]
        if header != expected:
            raise TabularError(f"{path}: header mismatch: expected {expected}, found {header}")
        level_maps = [
            {label: i for i, label in enumerate(spec.levels)} if spec.is_categorical else None
            for spec in schema
        ]
        cells = [[] for _ in schema]
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(schema):
                raise TabularError(
                    f"row {rownum}: expected {len(schema)} cells, found {len(row)}"
                )
            for j, (spec, cell) in enumerate(zip(schema, row)):
                if level_maps[j] is not None:
                    code = level_maps[j].get(cell)
                    if code is None:
                        raise TabularError(
                            f"row {rownum}, column '{spec.name}': unknown level '{cell}'"
                        )
                    cells[j].append(code)
                else:
                    text = cell.strip()
                    if not text:
                        raise TabularError(
                            f"row {rownum}, column '{spec.name}': missing value"
                        )
                    try:
                        value = float(text)
                    except ValueError:
                        raise TabularError(
                            f"row {rownum}, column '{spec.name}': "
                            f"unparseable numeric cell '{cell}'"
                        ) from None
                    if not np.isfinite(value):
                        raise TabularError(
                            f"row {rownum}, column '{spec.name}': non-finite value '{cell}'"
                        )
                    cells[j].append(value)
    columns = [
        np.asarray(col, dtype=np.int64 if spec.is_categorical else np.float64)
        for spec, col in zip(schema, cells)
    ]
    return Dataset(schema, columns)


EDGE_FLOATS = (
    0.0,
    -0.0,
    1e12 - 1,
    -(1e12 - 1),
    1e12,
    -1e12,
    5e-324,  # smallest subnormal
    -2.5e-320,
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    2.0**53,
    123456789012.5,
    0.1,
)

_any_float = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**13), 10**13).map(float),
    st.integers(-50, 50).map(lambda n: n / 4),
)
_csv_text = st.one_of(
    st.sampled_from(("", ",", '"', "\r", "\n", "\r\n", 'a,"b"', " x ")),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
        max_size=6,
    ),
)


@st.composite
def edge_dataset_strategy(draw):
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 40))
    names = draw(st.lists(_csv_text.filter(lambda name: name and not {"\r", "\n"} & set(name)),
                          min_size=n_cols, max_size=n_cols, unique=True))
    schema, columns = [], []
    for name in names:
        if draw(st.booleans()):
            levels = tuple(draw(st.lists(_csv_text, min_size=1, max_size=5, unique=True)))
            schema.append(ColumnSpec(name, CATEGORICAL, levels=levels))
            codes = draw(
                st.lists(st.integers(0, len(levels) - 1), min_size=n_rows, max_size=n_rows)
            )
            columns.append(np.array(codes, dtype=np.int64))
        else:
            schema.append(ColumnSpec(name, NUMERIC))
            values = draw(st.lists(_any_float, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(values, dtype=np.float64))
    return Dataset(tuple(schema), columns)


EVERY_EDGE = Dataset(
    (
        ColumnSpec("value", NUMERIC),
        ColumnSpec("label", CATEGORICAL, levels=("plain", "a,b", 'say "hi"', "cr\r", "lf\n", "")),
    ),
    [np.array(EDGE_FLOATS, dtype=np.float64), np.arange(len(EDGE_FLOATS)) % 6],
)
EMPTY_LABEL_ONLY = Dataset(
    (ColumnSpec("only", CATEGORICAL, levels=("",)),), [np.zeros(3, dtype=np.int64)]
)


@settings(max_examples=150, deadline=None)
@given(edge_dataset_strategy(), st.sampled_from((1, 3, 1024)))
@example(EVERY_EDGE, 1024)
@example(EMPTY_LABEL_ONLY, 1024)
@example(Dataset(SCHEMA, [np.zeros(0), np.zeros(0, dtype=np.int64)]), 1024)
def test_write_csv_bytes_match_per_cell_reference(tmp_path_factory, ds, chunk_rows):
    out = tmp_path_factory.mktemp("bytes")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        write_csv(ds, out / "columnar.csv")
    reference_write_csv(ds, out / "reference.csv")
    assert (out / "columnar.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_write_csv_keeps_negative_zero_and_exponents(tmp_path):
    ds = Dataset((ColumnSpec("x", NUMERIC),), [np.array([-0.0, 0.0, 1e12 - 1, 1e12, 5e-324])])
    write_csv(ds, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_bytes() == (
        b"x\r\n-0\r\n0\r\n999999999999\r\n1e+12\r\n4.94065645841e-324\r\n"
    )


# The numeric cell text must equal "%.12g" % v on the inputs where a
# formatter built from decimal digits can go wrong: 12-digit ties and the
# values next to them, powers of ten and their neighbours (where log10 may
# misjudge the exponent), the ends of the fixed-notation range, subnormals
# and arbitrary bit patterns, each with either sign.


def _nudge(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, np.inf if ulps > 0 else -np.inf))
    return value


_bit_pattern = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))
    .filter(np.isfinite)
)
# the double nearest (D + 0.5) * 10**(x - 11), a tie at 12 digits, and 1-2 ulps around it
_twelve_digit_tie = st.builds(
    lambda digits, x, ulps: _nudge(float(f"{digits}5e{x - 12}"), ulps),
    st.integers(10**11, 10**12 - 1),
    st.integers(-4, 11),
    st.integers(-2, 2),
)
_power_of_ten = st.builds(
    lambda e, ulps: _nudge(float(f"1e{e}"), ulps), st.integers(-5, 12), st.integers(-4, 4)
)
_subnormal = st.integers(1, 2**52 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.int64).view(np.float64))
)
FORMAT_EDGES = (
    1e-4,
    float(np.nextafter(1e-4, 0)),
    999999999999.4,
    999999999999.5,
    999999999999.6,
    float(np.nextafter(1e12, 0)),
)
_formatter_input = st.one_of(
    _bit_pattern, _twelve_digit_tie, _power_of_ten, st.sampled_from(FORMAT_EDGES), _subnormal
)


def _written_cells(tmp_path, values):
    ds = Dataset((ColumnSpec("x", NUMERIC),), [np.array(values, dtype=np.float64)])
    write_csv(ds, tmp_path / "x.csv")
    lines = (tmp_path / "x.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"x" and lines[-1] == b""
    return [line.decode("ascii") for line in lines[1:-1]]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_formatter_input, st.booleans()), min_size=1, max_size=40))
@example([(value, negative) for value in FORMAT_EDGES for negative in (False, True)])
# the product by 10**k rounds onto a half-integer that the exact product is not
@example([(8245.026313705, False), (0.03572212420795, True), (14.07476745125, False)])
def test_write_csv_numbers_match_percent_format(tmp_path_factory, cells):
    values = [-value if negative else value for value, negative in cells]
    # a table this small is formatted by % alone, unless the limit is lowered
    for limit in (tabular._PERCENT_CELLS, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tabular, "_PERCENT_CELLS", limit)
            got = _written_cells(tmp_path_factory.mktemp("fmt"), values)
        assert got == ["%.12g" % value for value in values]


def test_fast_path_and_fallback_columns(tmp_path):
    # mark the "%" fallback's text, to see which cells took it
    fast = [1e-4, -0.00012345, 0.5, 1.0, -7.0, 10.0, 123.456, -99999999999.5, 999999999999.0]
    fast += [float(np.nextafter(1e12, 0)) - 0.5, 1234567.891234567, 0.1, 2.5e-3]
    fallback = [0.0, -0.0, 1e12, -1e15, 5e-324, -1e-5, float(np.nextafter(1e-4, 0))]
    fallback += [999999999999.5, -999999999999.6, 1.7976931348623157e308, 12345678901.25]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "_FLOAT_PERCENT", "<%.12g>")
        # a table of at most _PERCENT_CELLS values is formatted by % alone
        assert _written_cells(tmp_path, fast) == ["<%.12g>" % value for value in fast]
        patch.setattr(tabular, "_PERCENT_CELLS", 0)
        assert _written_cells(tmp_path, fast) == ["%.12g" % value for value in fast]
        assert _written_cells(tmp_path, fallback) == ["<%.12g>" % value for value in fallback]


def test_small_number_tables_take_percent_alone_in_the_same_bytes(tmp_path, monkeypatch):
    # 1 to 12 distinct values, as in the count columns of a decoded fi or
    # credit file, each written through the distinct and the dedup path
    rng = np.random.default_rng(21)
    pool = [-0.0, 0.0, 2.5, 7.0, 0.1, -3.25, 1e12, 5e-324, 123456.789, 1.7e-5, 999999999999.5, 1.0]
    columns = []
    for n in range(1, 13):
        values = rng.permutation(np.array(pool[:n]))
        columns += [values, rng.choice(values, 500)]
    decimal_text, limit = tabular._decimal_text, tabular._PERCENT_CELLS
    for col in columns:
        assert tabular.number_path(col) == ("distinct" if col.size <= 12 else "dedup")
        ds = Dataset((ColumnSpec("x", NUMERIC), ColumnSpec("y", NUMERIC)), [col, col[::-1]])
        reference_write_csv(ds, tmp_path / "reference.csv")
        # the decimal formatter where it proves the text, then % alone, which
        # never calls it
        for cells, formatter in ((0, decimal_text), (limit, None)):
            monkeypatch.setattr(tabular, "_PERCENT_CELLS", cells)
            monkeypatch.setattr(tabular, "_decimal_text", formatter)
            write_csv(ds, tmp_path / "x.csv")
            assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# write_csv takes one of three paths per numeric column (number_path); the
# columns below are long enough to reach each of them, and their edge cells
# (0, -0, the last integer below 1e12, 1e12, negatives) sit on the borders
# between the paths
_PATH_EDGES = (0.0, -0.0, 999999999999.0, 1e12, -1.0, -7.0)


def _path_column(draw, n_rows):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("integers", "distinct", "repeats")))
    if kind == "integers":
        # a span up to about twice the rows, with gaps, from 0 or up to the top
        span = int(n_rows * draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 2.2)))) + 1
        low = draw(st.sampled_from((0, 1, 18, 10**6 - span, 10**12 - span)))
        col = (low + rng.integers(0, span, n_rows)).astype(np.float64)
    elif kind == "distinct":
        col = rng.standard_normal(n_rows) * 10.0 ** draw(st.integers(-6, 14))
    else:
        pool = draw(st.lists(_any_float, min_size=1, max_size=20))
        col = rng.choice(np.array(pool), n_rows)
    for edge in draw(st.lists(st.sampled_from(_PATH_EDGES), max_size=3)):
        if n_rows:
            col[rng.integers(n_rows)] = edge
    return col


@st.composite
def path_dataset_strategy(draw):
    n_rows = draw(st.integers(0, 3000))
    columns = [_path_column(draw, n_rows) for _ in range(draw(st.integers(1, 3)))]
    return Dataset(tuple(ColumnSpec(f"x{j}", NUMERIC) for j in range(len(columns))), columns)


@settings(max_examples=60, deadline=None)
@given(path_dataset_strategy(), st.sampled_from((1, 1024)))
@example(Dataset((ColumnSpec("x", NUMERIC),), [np.zeros(0)]), 1024)
@example(Dataset((ColumnSpec("x", NUMERIC),), [np.array([-0.0])]), 1)
@example(
    Dataset(
        (ColumnSpec("x", NUMERIC), ColumnSpec("y", NUMERIC), ColumnSpec("z", NUMERIC)),
        [np.array([999999999999.0]), np.array([1e12]), np.array([0.0])],
    ),
    1024,
)
def test_write_csv_paths_match_per_cell_reference(tmp_path_factory, ds, chunk_rows):
    out = tmp_path_factory.mktemp("paths")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        write_csv(ds, out / "columnar.csv")
    reference_write_csv(ds, out / "reference.csv")
    assert (out / "columnar.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_write_csv_takes_each_number_path(tmp_path):
    rng = np.random.default_rng(7)
    ids = rng.permutation(50_000).astype(np.float64)
    columns = {
        "integer": [
            ids,  # card ids: all distinct, no gaps
            rng.integers(18, 96, 5000).astype(np.float64),  # ages
            np.repeat([15.0, 1665.0, 271.0, 15.0], 500),  # days late: 1651 values, 2000 rows
            np.array([0.0]),
            np.array([999999999999.0, 999999999998.0, 999999999999.0]),
        ],
        "distinct": [
            rng.lognormal(13, 1, 5000),  # debts
            np.array([-3.0, 5.0, 0.5]),  # negative integers are not the integer path's
            np.arange(0.0, 3e6, 1000.0),  # integers that span too wide, none repeated
        ],
        "dedup": [
            np.array([0.0, 2e6, 4.5e6, 2e6, 0.0, 6.72e7]),  # left edges, repeated
            np.array([1e12, 1e12]),  # integral, but not below 1e12
            np.array([-0.0, 1.0, 2.0, 1.0]),
            rng.choice([0.1, 0.2, 0.3], 5000),
            np.zeros(0),
        ],
    }
    calls = []
    integer_table, number_table = tabular._integer_table, tabular._number_table

    def record_integer_table(low, span, end):
        calls.append("integer")
        return integer_table(low, span, end)

    def record_number_table(values, end):
        calls.append(values.view(np.int64).tolist())
        return number_table(values, end)

    with pytest.MonkeyPatch.context() as patch:
        # record which table function write_csv calls, and for how many values
        patch.setattr(tabular, "_integer_table", record_integer_table)
        patch.setattr(tabular, "_number_table", record_number_table)
        for way, cols in columns.items():
            for col in cols:
                assert tabular.number_path(col) == way
                ds = Dataset((ColumnSpec("x", NUMERIC),), [col])
                calls.clear()
                write_csv(ds, tmp_path / "x.csv")
                reference_write_csv(ds, tmp_path / "reference.csv")
                written = (tmp_path / "x.csv").read_bytes()
                assert written == (tmp_path / "reference.csv").read_bytes()
                # integer: no value formatted; distinct: every row, in row
                # order; dedup: each bit pattern once, in sorted order
                expected = {
                    "integer": ["integer"],
                    "distinct": [col.view(np.int64).tolist()],
                    "dedup": [np.unique(col.view(np.int64)).tolist()],
                }[way]
                assert calls == expected, (way, col[:5])


@st.composite
def encoded_strategy(draw):
    domains = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 40))
    codecs = [
        ColumnCodec(name=f"a{j}", kind="categorical", labels=tuple(map(str, range(size))))
        for j, size in enumerate(domains)
    ]
    codebook = Codebook(codecs)
    codes = [
        draw(st.lists(st.integers(0, size - 1), min_size=n_rows, max_size=n_rows))
        for size in domains
    ]
    matrix = np.array(codes, dtype=np.int64).T.reshape(n_rows, len(domains))
    return EncodedDataset(matrix, codebook)


@settings(max_examples=100, deadline=None)
@given(encoded_strategy(), st.sampled_from((1, 3, 1024)))
def test_write_encoded_csv_bytes_match_per_cell_reference(tmp_path_factory, encoded, chunk_rows):
    out = tmp_path_factory.mktemp("encoded")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        write_encoded_csv(encoded, out / "columnar.csv")
    reference_write_encoded_csv(encoded, out / "reference.csv")
    assert (out / "columnar.csv").read_bytes() == (out / "reference.csv").read_bytes()


# read_csv must return what the per-cell reader returned, or raise its
# message, on well-formed and malformed files alike, across block and chunk
# borders and whatever the line ends
READ_SCHEMA = (
    ColumnSpec("x", NUMERIC),
    ColumnSpec("seg", CATEGORICAL, levels=("M", "a,b", "")),
    ColumnSpec("y", NUMERIC),
)
_NUM_CELLS = (
    ("1", "-0", "2.5", " 7 ", "1e3", "1_0", "", "  ", "abc", "inf", "-nan", "1e400", "0x1")
    # the edges of the numpy reader's exact path: 15, 16 and 17 significant
    # digits, a mantissa just above 2**53, and forms that float() takes
    + ("123456789012345", "-0.1234567890123456", "1.2345678901234567", "9007199254740993")
    + ("9007199254740992", "0.0001", "-0.0", ".5", "5.", "+2", "1e-05", "1.5e+12", '"2.5"')
)


def _finite_float(text):
    try:
        return bool(np.isfinite(float(text)))
    except ValueError:
        return False


_num_cell = st.sampled_from(_NUM_CELLS)
_seg_cell = st.sampled_from(("M", '"a,b"', '""', "", "X", "m"))
_line_end = st.sampled_from(("\n", "\r\n", "\r"))
# the cells of files whose every cell converts, which the numpy reader reads
# whole: any fault sends a file to the text reader
_good_num_cell = st.sampled_from([cell for cell in _NUM_CELLS if _finite_float(cell)])
_good_seg_cell = st.sampled_from(("M", ""))
# header records as the writer quotes them, and odd ones: records that run
# over two lines or to the end of the file, a quoted comma, a quote inside
# a name
_header = st.sampled_from(("x,seg,y", '"x",seg,y', 'x,"seg","y"'))
_odd_header = st.sampled_from(
    ('"x\ny",seg,y', 'x,"seg\r\n",y', '"x,seg,y', '"x,seg",y', 'x,se"g,y')
)


@st.composite
def csv_body_strategy(draw):
    if draw(st.booleans()):  # a file the numpy reader takes whole
        end = draw(st.sampled_from(("\n", "\r\n")))
        lines = [
            ",".join([draw(_good_num_cell), draw(_good_seg_cell), draw(_good_num_cell)]) + end
            for _ in range(draw(st.integers(0, 20)))
        ]
        body = draw(_header) + end + "".join(lines)
        return body.removesuffix(end) if lines and draw(st.booleans()) else body
    end = draw(_line_end)
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        cells = [draw(_num_cell), draw(_seg_cell), draw(_num_cell)]
        if draw(st.integers(0, 9)) == 0:  # now and then a ragged or blank row
            cells = cells[: draw(st.integers(0, 2))] + draw(st.lists(_num_cell, max_size=1))
        # now and then a line end other than the file's
        lines.append(",".join(cells) + (draw(_line_end) if draw(st.integers(0, 9)) == 0 else end))
    body = draw(st.one_of(_header, _odd_header)) + end + "".join(lines)
    if lines and draw(st.booleans()):
        body = body.removesuffix(end)
    return body


def _read_outcome(reader, path, schema=READ_SCHEMA):
    try:
        ds = reader(path, schema)
    except TabularError as exc:
        return str(exc)
    # floats by their bits, so that -0.0 and 0.0 differ
    return [
        (col.dtype.str, (col.view(np.int64) if col.dtype == np.float64 else col).tolist())
        for col in (ds.column(n) for n in ds.column_names)
    ]


@settings(max_examples=300, deadline=None)
@given(csv_body_strategy(), st.sampled_from((1, 2, 5, 1024)))
# row 2 has faults in 'seg' and 'y' and row 3 is ragged: 'seg' of row 2 is reported
@example("x,seg,y\n1,M,2\n3,Q,oops\n4\n", 1024)
# a bare CR in the second block of a CRLF file adds a row
@example("x,seg,y\r\n" + "1,M,2\r\n" * 9 + "3,,4\r5,M,6\r\n" + "7,M,x\r\n", 1)
# an empty last cell, and no line end after it
@example("x,seg,y\n1,M,", 1)
# quoted headers: one the numpy reader takes, one with a quote in the body,
# one whose record runs over two lines and one whose quote never closes
@example('"x",seg,"y"\n1,M,2\n3,,4\n', 1024)
@example('"x",seg,y\r\n1,"M",2\r\n', 1024)
@example('"x\ny",seg,y\n1,M,2\n', 1024)
@example('"x,seg,y\n1,M,2\n', 1024)
def test_read_csv_matches_per_cell_reference(tmp_path_factory, body, chunk_rows):
    path = tmp_path_factory.mktemp("read") / "d.csv"
    path.write_text(body, encoding="utf-8", newline="")
    expected = _read_outcome(reference_read_csv, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        assert _read_outcome(read_csv, path) == expected


def test_read_csv_blank_line_in_one_column_file_is_a_ragged_row(tmp_path):
    # csv reads a blank line as no cells, not as one empty cell, even where
    # an empty cell would be a level
    schema = (ColumnSpec("only", CATEGORICAL, levels=("", "M")),)
    for end in ("\n", "\r\n"):
        path = tmp_path / "one.csv"
        path.write_bytes(f"only{end}M{end}{end}M{end}".encode("ascii"))
        expected = _read_outcome(reference_read_csv, path, schema)
        assert expected == "row 2: expected 1 cells, found 0"
        assert _read_outcome(read_csv, path, schema) == expected


def test_read_csv_bare_cr_inside_a_line_splits_it(tmp_path):
    # a level holding a CR matches the text of a cell, but csv ends the row there
    schema = (ColumnSpec("x", NUMERIC), ColumnSpec("g", CATEGORICAL, levels=("a\rb", "b", "a")))
    path = tmp_path / "cr.csv"
    path.write_bytes(b"x,g\n1,a\rb\n")
    expected = _read_outcome(reference_read_csv, path, schema)
    assert expected == "row 2: expected 2 cells, found 1"
    assert _read_outcome(read_csv, path, schema) == expected


def test_written_files_are_read_without_the_text_readers(tmp_path, monkeypatch):
    # what write_csv and write_encoded_csv write, the numpy readers take whole
    def no_text_reader(*args):
        raise AssertionError("the text reader ran")

    monkeypatch.setattr(tabular, "_read_text", no_text_reader)
    # read_codes hands the files it does not convert to tabular.read_csv
    monkeypatch.setattr(tabular, "read_csv", no_text_reader)
    monkeypatch.setattr(tabular, "CHUNK_ROWS", 2)
    # a comma in a column name makes the writer quote the header
    for name in ("value", "Branch, city"):
        dataset = Dataset(
            (EVERY_EDGE_UNQUOTED.schema[0], ColumnSpec(name, NUMERIC)),
            [EVERY_EDGE_UNQUOTED.column("label"), EVERY_EDGE_UNQUOTED.column("value")],
        )
        write_csv(dataset, tmp_path / "d.csv")
        again = read_csv(tmp_path / "d.csv", dataset.schema)
        expected = np.array([float("%.12g" % value) for value in EDGE_FLOATS])
        assert again.column(name).view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert again.column("label").tolist() == EVERY_EDGE_UNQUOTED.column("label").tolist()
    # codes on both sides of each power of ten below the domain size, the
    # widest first; 20 rows cross the numpy reader's 16-line block border
    for size in (1, 9, 10, 11, 100, 10**6):
        pool = sorted({0, size - 1} | {p + d for p in (1, 10, 100, 10**5) for d in (-1, 0)}, reverse=True)
        pool = np.array([code for code in pool if code < size])
        codec = ColumnCodec(name="a0", kind="binned", edges=tuple(range(size + 1)))
        for names in (("a0",), ("a0", "Branch, city", "a2")):
            codebook = Codebook(dataclasses.replace(codec, name=name) for name in names)
            for n_rows in (0, 1, 20):
                codes = pool[np.arange(n_rows * len(names)) % pool.size].reshape(n_rows, len(names))
                write_encoded_csv(EncodedDataset(codes, codebook), tmp_path / "e.csv")
                again = read_encoded_csv(tmp_path / "e.csv", codebook)
                assert again.codes.tolist() == codes.tolist(), (size, names, n_rows)


EVERY_EDGE_UNQUOTED = Dataset(
    (
        # a label longer than any number, in the first column
        ColumnSpec("label", CATEGORICAL, levels=("plain", "", " spaced ", "ünï", "x" * 40)),
        ColumnSpec("value", NUMERIC),
    ),
    [np.arange(len(EDGE_FLOATS)) % 5, np.array(EDGE_FLOATS, dtype=np.float64)],
)


# A number the writer prints reads back as float() of the printed text, bit
# for bit, over the whole double range and on either side of the numpy
# reader's block borders.
@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_formatter_input, st.booleans()), min_size=1, max_size=40),
    st.sampled_from((1, 1024)),
)
@example([(value, sign) for value in EDGE_FLOATS + FORMAT_EDGES for sign in (False, True)], 1)
def test_write_read_round_trip_is_float_of_text_bit_for_bit(tmp_path_factory, cells, chunk_rows):
    values = np.array([-value if negative else value for value, negative in cells])
    ds = Dataset(
        (ColumnSpec("x", NUMERIC), ColumnSpec("g", CATEGORICAL, levels=("a", "bb"))),
        [values, np.arange(values.size) % 2],
    )
    out = tmp_path_factory.mktemp("bits") / "x.csv"
    write_csv(ds, out)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        again = read_csv(out, ds.schema)
    expected = np.array([float("%.12g" % value) for value in values.tolist()])
    assert again.column("x").view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert again.column("g").tolist() == ds.column("g").tolist()


# Decimal texts around the limits of the exact path: up to 20 integer digits
# (leading zeros included), up to 23 decimals, mantissas near and above 2**53
# (where rounding the mantissa first and then dividing can round twice), signs.
_decimal_text = st.one_of(
    st.builds(
        lambda sign, whole, point, fraction: sign + whole + (point + fraction if point else ""),
        st.sampled_from(("", "-", "+")),
        st.one_of(
            st.text("0123456789", min_size=1, max_size=20),
            st.integers(2**53 - 3, 2**53 + 3).map(str),
            st.just(""),
        ),
        st.sampled_from(("", ".")),
        st.one_of(st.text("0123456789", max_size=23), st.integers(0, 2**53 + 3).map(str)),
    ),
    st.builds(
        lambda digits, at: digits[:at] + "." + digits[at:],
        st.integers(2**53 - 2**20, 2**54).map(str),
        st.integers(1, 16),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        # files whose every cell converts, which the numpy reader reads whole
        st.lists(_decimal_text.filter(_finite_float), min_size=1, max_size=30),
        st.lists(_decimal_text, min_size=1, max_size=30),
    )
)
@example(["9007199254740993", "900719925474099.3", "-0", "-0.0", "0.0000000000000000000001"])
# 19 bytes after the sign, whose last 18 make a small integer
@example(["1000000000000000005", "1.00000000000000005", "-100000000000000000.5"])
# mantissas in [2**53, 2**54): float(mantissa) / 10**k rounds twice
@example(["9.045139995783513", "946558832521392.3", "12.948410181481021"])
def test_read_csv_decimal_cells_equal_float_of_text(tmp_path_factory, texts):
    path = tmp_path_factory.mktemp("dec") / "d.csv"
    path.write_bytes(("x\n" + "".join(text + "\n" for text in texts)).encode("ascii"))
    schema = (ColumnSpec("x", NUMERIC),)
    assert _read_outcome(read_csv, path, schema) == _read_outcome(reference_read_csv, path, schema)


# All-digit cells of 1 to 20 bytes, leading zeros included, near 2**53 and
# at 18 and 19 digits: a column of 1 to 18 of them, unsigned, is read as
# integers, and any other column as decimals. Beside them sit a decimal
# column and a signed integer one ("-0", "-5"), so that one file mixes all three.
_digit_text = st.one_of(
    st.text("0123456789", min_size=1, max_size=20),
    st.integers(2**53 - 3, 2**53 + 3).map(str),
    st.integers(10**17, 10**19 - 1).map(str),
)
_signed_text = st.one_of(st.sampled_from(("-0", "-5")), st.integers(-(2**60), 2**60).map(str))
DIGITS_SCHEMA = tuple(ColumnSpec(name, NUMERIC) for name in ("count", "rate", "change"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(_digit_text, _decimal_text.filter(_finite_float), _signed_text),
        min_size=1,
        max_size=30,
    ),
    st.sampled_from((1, 1024)),
)
@example([(str(2**53 + d), "2.5", "-0") for d in range(-3, 4)], 1)
@example([("9" * 18, "0.1", "-5"), ("0" * 17 + "5", "-3.25", "-0"), ("007", "1", "12")], 1024)
# 19 and 20 bytes: their column is read as decimals
@example([("9" * 19, "0.1", "-5"), ("1" + "0" * 19, "2", "-0"), ("0" * 19 + "1", "3", "4")], 1)
def test_read_csv_all_digit_columns_equal_float_of_text(tmp_path_factory, rows, chunk_rows):
    path = tmp_path_factory.mktemp("digits") / "d.csv"
    body = "count,rate,change\n" + "".join(",".join(row) + "\n" for row in rows)
    path.write_bytes(body.encode("ascii"))
    expected = _read_outcome(reference_read_csv, path, DIGITS_SCHEMA)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        assert _read_outcome(read_csv, path, DIGITS_SCHEMA) == expected


# ------------------------------------------------ encoded CSV reader
#
# An encoded CSV is a tabular CSV whose columns are categorical with the
# levels "0" to "d-1": read_encoded_csv must return the codes the per-cell
# reader returns on that schema, or raise its exception and message.


_odd_code = st.one_of(
    st.sampled_from(("+1", "-1", " 1", "1 ", "\t1", "1_0", "1x", "", "0x1", "1e1")),
    # leading zeros, of codes that are in every domain and of wider ones
    st.sampled_from(("00", "01", "007", "000000000011", "0" * 17 + "5", "0" * 18 + "1")),
    # 18 digits, then 19 or more: above 2**63 - 1 int64 overflows
    st.sampled_from(("9" * 18, "9" * 19, "9223372036854775808")),
    st.integers(10**18, 10**25).map(str),
    # quoted codes, which csv reads as the code, and quotes left open
    st.sampled_from(('"1"', '"0",', '""', '"1', '1"', '"1""2"')),
)


@st.composite
def encoded_body_strategy(draw):
    sizes = draw(st.lists(st.sampled_from((1, 2, 10, 11, 12)), min_size=1, max_size=3))
    end = draw(st.sampled_from(("\n", "\r\n")))
    # a code of the column, or one at or just above its domain size
    codes = [
        st.one_of(st.integers(0, size - 1), st.integers(size, size + 2)).map(str) for size in sizes
    ]
    lines = []
    # half the files hold digit cells only, nearly all of them codes of their
    # columns: the numpy reader reads such a file whole or hands it on
    clean = draw(st.booleans())
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.integers(0, 19))
        if clean or kind >= 6:
            cells = [draw(st.integers(0, size - 1).map(str)) for size in sizes]
            if clean and kind == 0:  # a leading zero, a code not below d, or 19 digits
                j = draw(st.integers(0, len(sizes) - 1))
                cells[j] = draw(st.sampled_from(("0" + cells[j], str(sizes[j]), "9" * 19)))
        elif kind == 0:
            cells = [draw(st.sampled_from(("", " ", "\t", "  ")))]  # blank or whitespace only
        elif kind == 1:  # a ragged row
            cells = draw(st.lists(st.one_of(*codes, _odd_code), max_size=len(sizes) + 1))
        else:
            cells = [draw(st.one_of(code, _odd_code)) for code in codes]
        # now and then a line end other than the file's
        lines.append(",".join(cells) + (draw(_line_end) if kind == 2 and not clean else end))
    names = [f"a{j}" for j in range(len(sizes))]
    # now and then a quoted header, as the writer writes one, or a wrong one
    header = draw(st.sampled_from([names] * 8 + [[f'"{name}"' for name in names], names + ["b"]]))
    body = ",".join(header) + end + "".join(lines)
    if lines and draw(st.booleans()):
        body = body.removesuffix(end)
    return tuple(sizes), body


def _encoded_outcome(path, sizes):
    codebook = Codebook(
        ColumnCodec(name=f"a{j}", kind="categorical", labels=tuple(map(str, range(size))))
        for j, size in enumerate(sizes)
    )
    try:
        return read_encoded_csv(path, codebook).codes.tolist()
    except (TabularError, BinningError) as exc:
        return type(exc).__name__, str(exc)


def _reference_outcome(path, sizes):
    try:
        dataset = reference_read_csv(
            path,
            [ColumnSpec(f"a{j}", CATEGORICAL, tuple(map(str, range(d)))) for j, d in enumerate(sizes)],
        )
    except (TabularError, BinningError) as exc:
        return type(exc).__name__, str(exc)
    columns = [dataset.column(name).tolist() for name in dataset.column_names]
    return [list(row) for row in zip(*columns)]


@settings(max_examples=250, deadline=None)
@given(encoded_body_strategy(), st.sampled_from((1, 2, 5, 1024)))
# an invalid code before a ragged row in one chunk: the invalid code is reported
@example(((12, 12), "a0,a1\n0,1\n1x,1\n2\n"), 1024)
@example(((12, 12), "a0,a1\r\n" + "0,1\r\n" * 9 + "2,2\r3,3\r\n"), 1)
# a code of 19 digits, which int64 does not hold, in a file of digit codes
@example(((12, 12), "a0,a1\n1,2\n3," + "9" * 19 + "\n"), 1024)
# a leading zero, and a code equal to the domain size, in files of digit codes
@example(((12, 12), "a0,a1\n1,2\n3,01\n"), 1024)
@example(((12, 10), "a0,a1\n1,2\n11,10\n"), 1)
# files read by read_csv alone: a quoted code, and a bare CR line end
@example(((2,), 'a0\n"1"\n0\n'), 1024)
@example(((2, 2), "a0,a1\n0,1\r1,1\n"), 2)
def test_read_encoded_csv_matches_read_csv_reference(tmp_path_factory, drawn, chunk_rows):
    sizes, body = drawn
    path = tmp_path_factory.mktemp("codes") / "c.csv"
    path.write_bytes(body.encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        assert _encoded_outcome(path, sizes) == _reference_outcome(path, sizes)
