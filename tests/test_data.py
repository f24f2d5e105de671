"""CSV ingestion, dedup, stratified split, and the two-stage scaling."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ganbalance import data
from ganbalance.errors import CapacityError, CsvParseError, PreconditionError, SchemaError
from helpers import raw_table
from oracles import per_cell_load_csv, reference_stratified_split


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _columns(table):
    """(features, int64 labels) of a raw table's rows in play."""
    cells = table.cells[table.rows]
    return (np.delete(cells, table.label_index, axis=1),
            cells[:, table.label_index].astype(np.int64))


def test_load_csv_round_trip(tmp_path):
    path = _write(
        tmp_path,
        "a,b,Class\n1.0,2.0,0\n3.5,-4.0,1\n0.0,0.25,0\n",
    )
    table = data.load_csv(path)
    assert table.feature_names == ["a", "b"]
    assert table.n_rows == 3
    assert table.label_index == 2 and np.array_equal(table.rows, [0, 1, 2])
    assert np.array_equal(table.cells, [[1.0, 2.0, 0.0], [3.5, -4.0, 1.0], [0.0, 0.25, 0.0]])


def test_load_csv_preserves_row_order_and_label_position(tmp_path):
    # label column in the middle must not scramble features
    path = _write(tmp_path, "a,Class,b\n1,0,2\n3,1,4\n")
    table = data.load_csv(path)
    assert table.feature_names == ["a", "b"]
    assert table.label_index == 1
    features, labels = _columns(table)
    assert np.array_equal(features, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(labels, [0, 1])


def test_load_csv_non_numeric_cell_names_position(tmp_path):
    path = _write(tmp_path, "a,b,Class\n1.0,abc,0\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert err.value.row == 2
    assert err.value.column == 2
    assert "row 2" in str(err.value) and "column 2" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b,Class\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert err.value.row == 3


def test_load_csv_missing_label_column(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        data.load_csv(path)
    with pytest.raises(SchemaError, match="file is empty"):
        data.load_csv(_write(tmp_path, ""))


def test_load_csv_refuses_a_label_named_twice(tmp_path):
    # otherwise the second Class column would be a feature: the label itself
    path = _write(tmp_path, "Class,V1,Class\n1,0.5,1\n0,0.2,0\n")
    with pytest.raises(SchemaError, match="'Class' names columns 1, 3"):
        data.load_csv(path)


@pytest.mark.parametrize("text", ["Class\n1\n0\n", "Class\n"])
def test_load_csv_rejects_a_table_without_feature_columns(tmp_path, text):
    with pytest.raises(SchemaError, match="no feature column besides 'Class'"):
        data.load_csv(_write(tmp_path, text))


def test_load_csv_non_binary_label(tmp_path):
    path = _write(tmp_path, "a,Class\n1.0,2\n")
    with pytest.raises(SchemaError):
        data.load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        data.load_csv(tmp_path / "nope.csv")


def test_load_csv_custom_label_column(tmp_path):
    path = _write(tmp_path, "x,fraud\n0.5,1\n")
    table = data.load_csv(path, label_column="fraud")
    assert table.label_index == 1 and np.array_equal(_columns(table)[1], [1])


def test_dedup_collapses_identical_rows():
    table = raw_table(["a"], [[1.0], [2.0], [1.0], [3.0], [2.0]], [0, 1, 0, 0, 1])
    out = data.dedup(table)
    assert np.array_equal(out.rows, [0, 1, 3])
    features, labels = _columns(out)
    assert np.array_equal(features[:, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(labels, [0, 1, 0])


def test_dedup_keeps_rows_differing_only_in_label():
    table = raw_table(["a"], [[1.0], [1.0]], [0, 1])
    out = data.dedup(table)
    assert out.n_rows == 2


def test_dedup_no_duplicates_is_identity():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(20, 3))
    labels = rng.integers(0, 2, size=20).astype(np.int64)
    table = raw_table(["a", "b", "c"], feats, labels)
    out = data.dedup(table)
    assert out.cells is table.cells and np.array_equal(out.rows, table.rows)
    features, out_labels = _columns(out)
    assert np.array_equal(features, feats)
    assert np.array_equal(out_labels, labels)


def _toy_table(n_pos=6, n_neg=14, seed=1):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_pos + n_neg, 2))
    labels = np.array([1] * n_pos + [0] * n_neg, dtype=np.int64)
    return raw_table(["a", "b"], feats, labels)


def test_stratified_split_exact_counts_and_disjoint():
    table = _toy_table()
    spec = data.SplitSpec(train_size=10, test_size=5, train_positives=4, test_positives=2)
    train, test = data.stratified_split(table, spec, np.random.default_rng(7))
    assert len(train.labels) == 10 and train.positive_count == 4
    assert len(test.labels) == 5 and test.positive_count == 2

    train_rows = {tuple(r) for r in train.features}
    test_rows = {tuple(r) for r in test.features}
    assert not train_rows & test_rows


def test_stratified_split_deterministic():
    table = _toy_table()
    spec = data.SplitSpec(10, 5, 4, 2)
    a_train, a_test = data.stratified_split(table, spec, np.random.default_rng(3))
    b_train, b_test = data.stratified_split(table, spec, np.random.default_rng(3))
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)


def test_stratified_split_capacity_errors():
    table = _toy_table(n_pos=3, n_neg=5)
    with pytest.raises(CapacityError):
        data.stratified_split(
            table, data.SplitSpec(4, 4, 3, 1), np.random.default_rng(0)
        )
    with pytest.raises(CapacityError):
        data.stratified_split(
            table, data.SplitSpec(7, 3, 2, 1), np.random.default_rng(0)
        )


def test_split_spec_validation():
    with pytest.raises(ValueError):
        data.SplitSpec(train_size=5, train_positives=6)
    # a count out of range names its flag and the size flag it is bounded by
    for side in ("train", "test"):
        for positives in (-1, 20_000):
            with pytest.raises(ValueError, match=f"--{side}-pos.*--{side}-size"):
                data.SplitSpec(**{f"{side}_size": 100, f"{side}_positives": positives})


def _scale(train_column, test_column):
    """scale_train_test on one feature column; returns the scaled columns."""
    def side(values):
        values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        return data.Dataset(values, np.zeros(len(values), dtype=np.int64))

    train, test = data.scale_train_test(side(train_column), side(test_column), ["x"])
    return train.features[:, 0], test.features[:, 0]


@pytest.mark.parametrize("side", ["train", "test"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scaling_refuses_a_non_finite_cell_by_side_row_and_column(side, bad):
    # unchecked, a NaN test cell reached the scaled set, an inf one became
    # 1.0, and a bad train cell was reported as an overflowing column
    rng = np.random.default_rng(4)
    sets = {name: data.Dataset(rng.normal(size=(n, 3)), np.zeros(n, dtype=np.int64))
            for name, n in (("train", 20), ("test", 10))}
    sets[side].features[7, 2] = bad
    sets[side].features[8, 0] = bad
    with pytest.raises(PreconditionError,
                       match=f"^{side} feature at row 7, column 2 is not finite$"):
        data.scale_train_test(sets["train"], sets["test"], ["a", "b", "c"])


def test_standard_scaler_hand_values():
    # mean 2, population std sqrt(2/3): train standardizes to -a, 0, a
    std = np.sqrt(2.0 / 3.0)
    a = 1.0 / std
    train, test = _scale([1.0, 2.0, 3.0], [2.5, 1.5])
    assert np.array_equal(train, [0.0, 0.5, 1.0])
    assert np.array_equal(test, ((np.array([2.5, 1.5]) - 2.0) / std + a) / (2.0 * a))
    assert np.allclose(test, [0.75, 0.25], atol=1e-15)


def test_standard_scaler_constant_column_maps_to_zero():
    # std 0 is not divided by, so no NaN reaches the min-max stage
    train, test = _scale([5.0, 5.0, 5.0], [7.0, -1.0])
    assert np.array_equal(train, np.zeros(3))
    assert np.array_equal(test, np.zeros(2))


def test_standard_scaler_centers_train():
    rng = np.random.default_rng(8)
    column = rng.normal(3.0, 2.0, size=50)
    train, test = _scale(column, [column.mean()])
    z = (column - column.mean()) / column.std()
    assert np.array_equal(train, (z - z.min()) / (z.max() - z.min()))
    # the train mean lands where the standardized zero does
    assert np.array_equal(test, [(0.0 - z.min()) / (z.max() - z.min())])


def test_minmax_endpoints_and_clamping():
    train, clamped = _scale([-1.0, 0.0, 1.0], [2.0, -5.0])
    assert np.array_equal(train, [0.0, 0.5, 1.0])
    assert np.array_equal(clamped, [1.0, 0.0])


def test_minmax_constant_column_maps_to_zero():
    # a range below DEGENERATE_EPS after standardizing maps to 0, even far outside it
    train, test = _scale([0.0, 1e-13, 0.0, 1e-13], [1.0])
    assert np.array_equal(train, np.zeros(4))
    assert np.array_equal(test, np.zeros(1))


def test_full_pipeline_lands_in_unit_interval():
    rng = np.random.default_rng(12)
    labels = np.array([1] * 100 + [0] * 100, dtype=np.int64)
    table = raw_table(["a", "b", "c"], rng.normal(5.0, 20.0, size=(200, 3)),
                      rng.permutation(labels))
    table = data.dedup(table)
    spec = data.SplitSpec(100, 50, 40, 20)
    train, test = data.stratified_split(table, spec, rng)
    train_s, test_s = data.scale_train_test(train, test, table.feature_names)
    for side in (train_s, test_s):
        assert side.features.min() >= 0.0
        assert side.features.max() <= 1.0
    # labels survive scaling untouched
    assert np.array_equal(train_s.labels, train.labels)
    assert np.array_equal(test_s.labels, test.labels)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_load_csv_non_finite_feature_cell_names_position(tmp_path, cell):
    path = _write(tmp_path, f"a,b,Class\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (3, 2)
    assert "non-finite" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "Infinity"])
def test_load_csv_non_finite_label_cell_names_position(tmp_path, cell):
    path = _write(tmp_path, f"a,Class,b\n1.0,0,2.0\n3.0,{cell},4.0\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (3, 2)


def test_load_csv_blank_line_is_a_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b,Class\n1.0,2.0,0\n\n3.0,4.0,1\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (3, 1)


def test_load_csv_rejects_underscores(tmp_path):
    path = _write(tmp_path, "a,b,Class\n1_000,2.0,0\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (2, 1)


# characters numpy's C reader strips around a number but the cell rule rejects
_STRIPPED_CELLS = ["\x1c1", "\xa01", "\u20031", "1\x85", "0\x1f"]


@pytest.mark.parametrize("cell", _STRIPPED_CELLS)
def test_load_csv_rejects_characters_the_c_reader_strips(tmp_path, cell):
    path = _write_bytes(tmp_path, f"a,b,Class\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (3, 2)


def test_load_csv_invalid_utf8_byte_names_position(tmp_path):
    # an undecodable byte breaks the ASCII rule like any non-ASCII character
    path = tmp_path / "p.csv"
    path.write_bytes(b"a,b,Class\n1.0,2.0,0\n3.0,1\xff,1\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(path)
    assert (err.value.row, err.value.column) == (3, 2)


@pytest.mark.parametrize("body", [b"Class,a\n0,1.5\n1,2.5\n",
                                  b"a,Class,b\n1.0,0,2.0\n3.0,1,4.0\n"])
def test_load_csv_ignores_a_leading_utf8_bom(tmp_path, body):
    # spreadsheet "CSV UTF-8" exports start the file with the bytes EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    want, got = data.load_csv(plain), data.load_csv(marked)
    assert got.feature_names == want.feature_names
    assert got.label_index == want.label_index
    assert np.array_equal(got.cells, want.cells)
    assert np.array_equal(got.rows, want.rows)
    marked.write_bytes(b"\xef\xbb\xbfa,b,Class\n1.0,2.0,0\n3.0,x,1\n")
    with pytest.raises(CsvParseError) as err:
        data.load_csv(marked)
    assert (err.value.row, err.value.column) == (3, 2)


def test_load_csv_header_only_is_an_empty_table(tmp_path):
    path = _write(tmp_path, "a,b,Class\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = data.load_csv(path)
    assert table.cells.shape == (0, 3) and table.cells.dtype == np.float64
    assert table.rows.shape == (0,) and table.n_rows == 0
    features, labels = _columns(table)
    assert features.shape == (0, 2)
    assert labels.shape == (0,) and labels.dtype == np.int64


# ---- property tests against the per-cell reference loader ----------------

def _oracle_table(path, parse_cell=float):
    return raw_table(*per_cell_load_csv(path, parse_cell=parse_cell))


def _strict_float(cell: str) -> float:
    """float() narrowed to the loader's deliberate differences from it:
    underscores, non-ASCII text and non-finite values are rejected."""
    value = float(cell)
    if "_" in cell or not cell.isascii() or not math.isfinite(value):
        raise ValueError(cell)
    return value


def _same_table(got, want) -> bool:
    """Same names, every row in play, and the same feature bytes and labels;
    the label's position is checked where the test knows it."""
    (got_x, got_y), (want_x, want_y) = _columns(got), _columns(want)
    return (
        got.feature_names == want.feature_names
        and got.cells.dtype == np.float64
        and np.array_equal(got.rows, np.arange(len(got.cells)))
        and got_x.shape == want_x.shape
        and got_x.tobytes() == want_x.tobytes()
        and np.array_equal(got_y, want_y)
    )


# bounded so that rounding in the printed form cannot overflow to inf
_finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-300, 123456.0]),
)


@st.composite
def _feature_cell(draw):
    value = draw(_finite)
    text = draw(st.sampled_from(["{!r}", "{:e}", "{:+.4E}", "{:.6f}"])).format(value)
    return draw(st.sampled_from(["{}", '"{}"', " {} "])).format(text)


@st.composite
def _csv_lines(draw, min_rows=0):
    """(lines, label column index) of a valid table: a header, then rows."""
    n_features = draw(st.integers(1, 4))
    n_rows = draw(st.integers(min_rows, 8))
    label_idx = draw(st.integers(0, n_features))
    header = [f"c{j}" for j in range(n_features)]
    header.insert(label_idx, "Class")
    rows = []
    for _ in range(n_rows):
        cells = [draw(_feature_cell()) for _ in range(n_features)]
        cells.insert(label_idx, draw(st.sampled_from(["0", "1", "1.0", "0e0", "-0", '"1"'])))
        rows.append(cells)
    return [",".join(cells) for cells in [header] + rows], label_idx


_newline = st.sampled_from(["\n", "\r\n"])


def _write_bytes(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    return path


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_csv_lines(), newline=_newline, trailing_newline=st.booleans())
def test_load_csv_matches_per_cell_reference(tmp_path, table, newline, trailing_newline):
    lines, label_idx = table
    path = _write_bytes(tmp_path, newline.join(lines) + (newline if trailing_newline else ""))
    got = data.load_csv(path)
    assert got.label_index == label_idx
    assert _same_table(got, _oracle_table(path))


@st.composite
def _corrupted_lines(draw):
    """The lines of a valid table with one or two corruptions."""
    lines, label_idx = draw(_csv_lines(min_rows=1))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(
            ["blank", "ragged", "non_numeric", "non_binary_label", "non_finite",
             "stripped"]))
        r = draw(st.integers(1, len(lines) - 1))
        if kind == "blank":
            lines.insert(r, "")
            continue
        cells = lines[r].split(",")
        if kind == "ragged":
            if draw(st.booleans()) and len(cells) > 1:
                cells.pop(draw(st.integers(0, len(cells) - 1)))
            else:
                cells.append("0")
        else:
            c = draw(st.integers(0, len(cells) - 1))
            if kind == "non_binary_label":
                c = min(label_idx, len(cells) - 1)
            cells[c] = draw(st.sampled_from({
                "non_numeric": ["abc", "", "1_0", "1..2", "0x10", "--1"],
                "non_binary_label": ["2", "0.5", "-1", "1e1"],
                "non_finite": ["nan", "inf", "-Infinity", "1e999", "NaN"],
                "stripped": _STRIPPED_CELLS,
            }[kind]))
        lines[r] = ",".join(cells)
    return lines


def _error_of(load, path):
    try:
        load(path)
    except (CsvParseError, SchemaError) as exc:
        return exc
    return None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_corrupted_lines(), newline=_newline)
def test_load_csv_reports_the_reference_error(tmp_path, lines, newline):
    path = _write_bytes(tmp_path, newline.join(lines) + newline)
    got = _error_of(data.load_csv, path)
    # the reference reads cells with float() narrowed to the loader's three
    # deliberate refusals (underscores, non-ASCII text, non-finite values);
    # both report such a cell as a CsvParseError at its position, under
    # different wording
    want = _error_of(lambda p: _oracle_table(p, parse_cell=_strict_float), path)
    if want is None:
        # the corruptions cancelled out (a ragged row repaired, say)
        assert _same_table(data.load_csv(path), _oracle_table(path))
        return
    assert type(got) is type(want), (got, want)
    if isinstance(want, CsvParseError):
        assert (got.row, got.column) == (want.row, want.column)
    else:
        assert str(got) == str(want)


# ---- dedup against np.unique ---------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, np.nan, -3.0]), min_size=3, max_size=3),
        min_size=1, max_size=6,
    ),
    picks=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.0, -0.0, 1.0])),
                   max_size=40),
    n_features=st.integers(1, 3),
    label_index=st.integers(0, 3),
    dropped=st.sets(st.integers(0, 39)),
)
def test_dedup_matches_np_unique(pool, picks, n_features, label_index, dropped):
    # the label sits first, between features or last; rows may differ only in
    # the label or in a -0.0 against a 0.0, and rows out of play stay out
    assume(label_index <= n_features)
    features = np.array([pool[i % len(pool)][:n_features] for i, _ in picks],
                        dtype=np.float64).reshape(len(picks), n_features)
    labels = np.array([label for _, label in picks], dtype=np.float64)
    in_play = np.array([i for i in range(len(picks)) if i not in dropped], dtype=np.int64)
    table = dataclasses.replace(
        raw_table([f"c{j}" for j in range(n_features)], features, labels, label_index),
        rows=in_play)
    out = data.dedup(table)
    # the reference: features split from int labels, np.unique's first rows
    int_labels = labels.astype(np.int64)
    _, first = np.unique(
        np.column_stack([features[in_play], int_labels[in_play].astype(np.float64)]),
        axis=0, return_index=True)
    keep = in_play[np.sort(first)]
    assert out.cells is table.cells and out.label_index == label_index
    assert np.array_equal(out.rows, keep)
    out_features, out_labels = _columns(out)
    assert out_features.tobytes() == features[keep].tobytes()
    assert np.array_equal(out_labels, int_labels[keep])
    assert np.array_equal(data.dedup(out).rows, out.rows)


# ---- split and scale invariants ------------------------------------------

@st.composite
def _split_case(draw):
    """(table, spec): a small table whose first feature column is the row
    index, its label at any position, some rows out of play, and a split
    spec that fits the rows in play."""
    n_pos, n_neg = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    train_pos = draw(st.integers(0, n_pos))
    test_pos = draw(st.integers(0, n_pos - train_pos))
    train_neg = draw(st.integers(0, n_neg))
    test_neg = draw(st.integers(0, n_neg - train_neg))
    assume(train_pos + train_neg >= 1 and test_pos + test_neg >= 1)
    negatives = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n_neg, max_size=n_neg))
    played = draw(st.permutations([1.0] * n_pos + negatives))
    out_of_play = draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=4))
    in_play = np.array(draw(st.permutations([True] * len(played) + [False] * len(out_of_play))),
                       dtype=bool)
    labels = np.empty(len(in_play))
    labels[in_play], labels[~in_play] = played, out_of_play
    n_columns = draw(st.integers(0, 3))
    cell = st.one_of(st.floats(-1e6, 1e6),
                     st.sampled_from([0.0, -0.0, 1.0, 1.7e308, -1.7e308]))
    cells = draw(st.lists(st.lists(cell, min_size=n_columns, max_size=n_columns),
                          min_size=len(labels), max_size=len(labels)))
    drawn = np.array(cells, dtype=np.float64).reshape(len(labels), n_columns)
    features = np.column_stack([np.arange(len(labels), dtype=np.float64), drawn])
    label_index = draw(st.integers(0, features.shape[1]))
    table = dataclasses.replace(
        raw_table([f"c{j}" for j in range(features.shape[1])], features, labels, label_index),
        rows=np.flatnonzero(in_play))
    spec = data.SplitSpec(train_pos + train_neg, test_pos + test_neg, train_pos, test_pos)
    return table, spec


@settings(max_examples=200, deadline=None)
@given(case=_split_case(), seed=st.integers(0, 2**32 - 1))
def test_split_and_scale_invariants(case, seed):
    table, spec = case
    train, test = data.stratified_split(table, spec, np.random.default_rng(seed))
    features = np.delete(table.cells, table.label_index, axis=1)
    labels = table.cells[:, table.label_index].astype(np.int64)
    # the reference splits the rows in play, features apart from labels
    want = reference_stratified_split(features[table.rows], labels[table.rows], spec,
                                      np.random.default_rng(seed))
    sides = ((train, spec.train_size, spec.train_positives),
             (test, spec.test_size, spec.test_positives))
    for (side, size, positives), (want_features, want_labels) in zip(sides, want):
        assert side.features.shape == want_features.shape
        assert side.features.tobytes() == want_features.tobytes()
        assert side.labels.dtype == np.int64 and np.array_equal(side.labels, want_labels)
        assert len(side.labels) == size and side.positive_count == positives
        rows = side.features[:, 0].astype(np.int64)
        assert np.all(np.diff(rows) > 0)  # file order, no row twice
        assert np.isin(rows, table.rows).all()  # rows in play only
        assert side.features.tobytes() == features[rows].tobytes()
        assert np.array_equal(side.labels, labels[rows])
    assert not set(train.features[:, 0]) & set(test.features[:, 0])

    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(train.features.mean(axis=0)) & np.isfinite(train.features.std(axis=0))
    if not finite.all():
        # a column near the float64 maximum overflows its train mean or std
        with pytest.raises(SchemaError, match=repr(table.feature_names[np.argmin(finite)])):
            data.scale_train_test(train, test, table.feature_names)
        return
    train_s, test_s = data.scale_train_test(train, test, table.feature_names)
    for side, scaled in ((train, train_s), (test, test_s)):
        assert scaled.features.shape == side.features.shape
        assert np.all((scaled.features >= 0.0) & (scaled.features <= 1.0))
        assert np.array_equal(scaled.labels, side.labels)
    # each train column spans exactly [0, 1], or is all 0 when it is constant
    for column in train_s.features.T:
        assert (column.min(), column.max()) in ((0.0, 1.0), (0.0, 0.0))


def test_load_and_dedup_peak_memory_is_bounded(tmp_path):
    # 40k x 30 like a slice of the credit-card table, with planted copies.
    # Load and dedup share one parsed matrix and peak within 1.3x the deduped
    # feature matrix, even with the loaded table kept; the split then gathers
    # its rows (here nearly all of them) without the label column, and the
    # whole stays within 2.4x
    rng = np.random.default_rng(21)
    base = rng.normal(size=(39_000, 30))
    base_labels = (rng.random(len(base)) < 0.01).astype(np.int64)
    copies = rng.integers(0, len(base), size=1_000)
    rows = np.vstack([base, base[copies]])
    labels = np.concatenate([base_labels, base_labels[copies]])
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"V{j}" for j in range(30)) + ",Class\n")
        np.savetxt(fh, np.column_stack([rows, labels]), fmt="%+.6f", delimiter=",")
    positives = int(base_labels.sum())
    spec = data.SplitSpec(26_000, 13_000 - 8, positives * 2 // 3, positives - positives * 2 // 3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        loaded = data.load_csv(path)
        table = data.dedup(loaded)
        _, load_peak = tracemalloc.get_traced_memory()
        train, test = data.stratified_split(table, spec, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (loaded.n_rows, table.n_rows) == (len(rows), len(base))
    assert len(train.labels) + len(test.labels) == len(base) - 8
    deduped = base.nbytes
    assert load_peak <= 1.3 * deduped, load_peak / deduped
    assert peak <= 2.4 * deduped, peak / deduped
