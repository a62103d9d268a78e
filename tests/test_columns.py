"""The column CSV reader against the csv_rows row loops it falls back to:
on generated texts, count_columns and prediction_columns return the row
loop's columns or raise its exception with its message."""

import contextlib
import csv
import importlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from countstrat import StratError, counts
from countstrat.counts import CSV_HEADER, MAX_COUNT, count_columns
from countstrat.evaluate import PRED_CSV_HEADER, prediction_columns

# the package binds the name evaluate to the function
evaluate = importlib.import_module("countstrat.evaluate")

LONG = "9" * (csv.field_size_limit() + 1)  # over the csv module's field limit

ID_TOKENS = ["", " ", "a b", " a", "\xe9", "a\x85b", "a\u2028b", "a\x0bb", "a\0b", "r0", LONG]
INT_TOKENS = [
    "0", "7", "42", "1000000", "1000001", " 7 ", "+7", "-0", "-1", "1_000", "1__0", "\u0663", "\uff17",
    "7\xa0", "\x1c7", "7\x1f", "", " ", "x", "0x10", "2.5", "nan", "inf", str(2**63), "9" * 30, "9" * 5000, LONG,
]
FLOAT_TOKENS = [
    "0", "2.5", "-0.0", " 3.25 ", "+1e3", "1_0.5", "\u0663.5", "1e100", "-1e100", "1e101", "1e400", "nan",
    "-inf", "inf", "NaN", "", "x", "1.5\x1c", "0x1p3", "9" * 400, LONG,
]

COUNTS = st.integers(0, MAX_COUNT).map(str)


@st.composite
def csv_texts(draw, header, plain_values, odd_values):
    """CSV texts of up to 6 data rows shaped like ``header``, drawing each
    field after the id from its strategy in ``plain_values``. A third are
    plain and valid; the rest mix in leading BOMs, odd numbers, quoted
    fields, CRLF and lone CR line ends, blank and whitespace-only lines,
    duplicate or empty ids, wrong field counts and over-long fields."""
    pct = draw(st.sampled_from([0, 5, 30]))
    odd = lambda: draw(st.integers(0, 99)) < pct  # noqa: E731
    head = ",".join(header)
    if odd():
        head = draw(st.sampled_from([" " + head.replace(",", " , "), head.upper(), head + ",", "", " "]))
    lines = [head]
    for i in range(draw(st.integers(0, 6))):
        fields = [draw(st.sampled_from(ID_TOKENS)) if odd() else f"r{i}"]
        fields += [draw(st.sampled_from(odd_values)) if odd() else draw(values) for values in plain_values]
        if odd():
            fields = fields[:-1] if draw(st.booleans()) else fields + ["1"]
        if odd():
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = '"' + fields[j].replace('"', '""') + '"'
        lines.append(",".join(fields))
        if odd():
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    end = lambda: draw(st.sampled_from(["\r\n", "\r"])) if odd() else "\n"  # noqa: E731
    text = "\ufeff" * (draw(st.integers(1, 2)) if odd() else 0)
    text += "".join(line + end() for line in lines[:-1]) + lines[-1]
    return text + draw(st.sampled_from(["", "\n", "\n\n"]))


def outcome(read, text):
    """The ids and each array's dtype and bytes, or the exception's type and
    message."""
    try:
        ids, *arrays = read(text)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return ids, [(a.dtype.str, a.tobytes()) for a in arrays]


@example("id,count\nr0,7\nr1,1000000\n")
@example("\ufeff\ufeffid , count\r\nr0, 7 \r\n\r\nr1,+7\rr2,1_000")
@example('id,count\n"r,0",3\nr1,\u0663\n')
@example("id,count\nr0,1\nr0,2\n")
@example(f"id,count\nr0,{2**63}\n")
@example(f"id,count\nr0,1\n{LONG},2\n")
@given(csv_texts(CSV_HEADER, (COUNTS,), INT_TOKENS))
def test_count_columns_match_row_loop(text):
    assert outcome(count_columns, text) == outcome(counts._count_rows, text)


@example("id,count_true,count_pred\nr0,7,6.5\nr1,0,-0.0\n")
@example("id,count_true,count_pred\nr0,7,nan\n")
@example("id,count_true,count_pred\nr0,7,1e101\n")
@example("id,count_true,count_pred\nr0,7\nr1,3,2.5,1\n")
@example("id,count_true,count_pred\nr0,1,2\n,1,2\n")
@given(csv_texts(PRED_CSV_HEADER, (COUNTS, COUNTS | st.floats(-1e100, 1e100).map(repr)), INT_TOKENS + FLOAT_TOKENS))
def test_prediction_columns_match_row_loop(text):
    assert outcome(prediction_columns, text) == outcome(evaluate._prediction_rows, text)


def test_plain_text_skips_the_row_loop(monkeypatch):
    def unused(text):
        raise AssertionError("row loop called")

    monkeypatch.setattr(counts, "_count_rows", unused)
    monkeypatch.setattr(evaluate, "_prediction_rows", unused)
    ids, got = count_columns("\ufeffid,count\nb,3\n\na,+7\n")
    assert ids == ["b", "a"] and got.dtype == np.int64 and got.tolist() == [3, 7]
    ids, ys, y_hats = prediction_columns("id,count_true,count_pred\nb,3, 2.5 \n")
    assert (ids, ys.tolist(), y_hats.tolist()) == (["b"], [3], [2.5])


@pytest.mark.parametrize(
    "text",
    [
        'id,count\n"a",1\n',  # quoted
        "id,count\r\na,1\r\n",  # CR
        "id,count\na\0,1\n",  # NUL
        "id,count\na,1\na,2\n",  # duplicate id
        "id,count\na,-1\n",  # out of range
        "id,count\na,1,2\n",  # field count
    ],
)
def test_other_text_takes_the_row_loop(text, monkeypatch):
    calls = []
    loop = counts._count_rows
    monkeypatch.setattr(counts, "_count_rows", lambda t: calls.append(t) or loop(t))
    with contextlib.suppress(StratError):  # the loop's own error; only the call is checked here
        count_columns(text)
    assert calls == [text]


@pytest.mark.parametrize(
    "text",
    [
        f"id,count_true,count_pred\na,{MAX_COUNT + 1},1\n",  # truth above the limit
        "id,count_true,count_pred\na,-1,1\n",  # negative truth
        "id,count_true,count_pred\na,1,1e101\n",  # prediction above MAX_PREDICTION
        "id,count_true,count_pred\na,1,nan\n",  # not finite
    ],
)
def test_other_prediction_text_takes_the_row_loop(text, monkeypatch):
    calls = []
    loop = evaluate._prediction_rows
    monkeypatch.setattr(evaluate, "_prediction_rows", lambda t: calls.append(t) or loop(t))
    with pytest.raises(StratError):  # each text fails only the check made on the plain columns
        prediction_columns(text)
    assert calls == [text]
