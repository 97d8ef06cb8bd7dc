"""CSV ingestion/emission and dataset validation."""

import csv

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthbank import tabular
from synthbank.binning import Codebook, ColumnCodec, EncodedDataset, write_encoded_csv
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
    ds = Dataset(SCHEMA, [np.array([1.0]), np.array([0])])
    with pytest.raises(TabularError, match="cannot write"):
        write_csv(ds, "/nonexistent-dir/nope.csv")


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
    return Dataset(schema, columns, provenance=str(path))


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
    names = draw(st.lists(_csv_text.filter(bool), min_size=n_cols, max_size=n_cols, unique=True))
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
        assert _written_cells(tmp_path, fast) == ["%.12g" % value for value in fast]
        assert _written_cells(tmp_path, fallback) == ["<%.12g>" % value for value in fallback]


@st.composite
def encoded_strategy(draw):
    domains = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 40))
    codecs = [
        ColumnCodec(name=f"a{j}", kind="categorical", labels=tuple(map(str, range(size))))
        for j, size in enumerate(domains)
    ]
    codebook = Codebook(codecs)
    if draw(st.booleans()):
        codebook = codebook.with_suppressed()
        domains = [size + 1 for size in domains]
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
        patch.setattr("synthbank.binning.CHUNK_ROWS", chunk_rows)
        write_encoded_csv(encoded, out / "columnar.csv")
    reference_write_encoded_csv(encoded, out / "reference.csv")
    assert (out / "columnar.csv").read_bytes() == (out / "reference.csv").read_bytes()


# read_csv must return what the per-cell reader returned, or raise its
# message, on well-formed and malformed files alike, across chunk borders
READ_SCHEMA = (
    ColumnSpec("x", NUMERIC),
    ColumnSpec("seg", CATEGORICAL, levels=("M", "a,b", "")),
    ColumnSpec("y", NUMERIC),
)
_num_cell = st.sampled_from(
    ("1", "-0", "2.5", " 7 ", "1e3", "1_0", "", "  ", "abc", "inf", "-nan", "1e400", "0x1")
)
_seg_cell = st.sampled_from(("M", '"a,b"', '""', "", "X", "m"))


@st.composite
def csv_body_strategy(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        cells = [draw(_num_cell), draw(_seg_cell), draw(_num_cell)]
        if draw(st.integers(0, 9)) == 0:  # now and then a ragged or blank row
            cells = cells[: draw(st.integers(0, 2))] + draw(st.lists(_num_cell, max_size=1))
        lines.append(",".join(cells))
    return "x,seg,y\r\n" + "".join(line + "\r\n" for line in lines)


def _read_outcome(reader, path):
    try:
        ds = reader(path, READ_SCHEMA)
    except TabularError as exc:
        return str(exc)
    return [(col.dtype.str, col.tolist()) for col in (ds.column(n) for n in ds.column_names)]


@settings(max_examples=300, deadline=None)
@given(csv_body_strategy(), st.sampled_from((1, 2, 5, 1024)))
# row 2 has faults in 'seg' and 'y' and row 3 is ragged: 'seg' of row 2 is reported
@example("x,seg,y\n1,M,2\n3,Q,oops\n4\n", 1024)
def test_read_csv_matches_per_cell_reference(tmp_path_factory, body, chunk_rows):
    path = tmp_path_factory.mktemp("read") / "d.csv"
    path.write_text(body, encoding="utf-8", newline="")
    expected = _read_outcome(reference_read_csv, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabular, "CHUNK_ROWS", chunk_rows)
        assert _read_outcome(read_csv, path) == expected
