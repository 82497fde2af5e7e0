"""The path readers of the header-plus-table formats against the line walk they replaced."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from magplan.magmap import load_map
from magplan.tlcal import load_coefficients, load_maglog
from oracles import line_walk_coefficients, line_walk_map, line_walk_maglog

# A small valid file of each format, its shipped reader and its line-walk reference.
FORMATS = {
    "maglog": (
        b"maglog v1\n0.0,3.0,4.0,0.5,5.0,0.2,25000.0\n"
        b"0.1,-1.5,2.25,1e-05,25000.5,0.0,24999.875\n2.0,1e+20,-0.0,7.0,0.125,3.0,0.1\n",
        load_maglog,
        line_walk_maglog,
    ),
    "tlcoef": (
        b"tlcoef v1\n" + b"".join(b"%d,%r\n" % (i, 0.25 * i - 1) for i in range(1, 21)),
        load_coefficients,
        line_walk_coefficients,
    ),
    "magmap": (
        b"magmap v1 3 3 -0.5 1.0 0.125\n5e-324 1.5 1.0\n0.1 2.5 1e+20\n3.0 2.0 1.0\n",
        load_map,
        line_walk_map,
    ),
}

# Line ends and blank lines; cell padding, NUL and a non-ASCII byte; extra
# fields and separators; bad, non-finite, non-positive and out-of-order cells.
LINE_ENDS = [b"\n", b"\r\n", b"\r", b"\n\n", b"\n \t \n", b""]
INSERTS = [b"\n", b" \t \n", b"\x0b", b"\x00", b"\xe9", b",", b" ", b",7.5", b" 7.5"]
BAD_CELLS = [b"x", b"1_0", b"", b"\xe9"]
# Cells that parse but break a record: its error must name the line.
ODD_CELLS = [b"nan", b"inf", b"-1", b"0", b"9"]
EDITS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(INSERTS)),
    st.tuples(st.just("cell"), st.sampled_from(BAD_CELLS)),
    st.tuples(st.just("cell"), st.sampled_from(ODD_CELLS)),
    st.tuples(st.just("line_end"), st.sampled_from(LINE_ENDS)),
    st.tuples(st.sampled_from(["drop_field", "truncate"]), st.none()),
)


def edited(data: bytes, edit: str, token, at: float) -> bytes:
    """`data` with one edit, placed at the fraction `at` of the places it can go.

    A line end may change anywhere; every other edit lands after the header
    line, which the parse-error tables cover.
    """
    if edit == "line_end":
        ends = [k for k, c in enumerate(data) if c == ord("\n")]
        if not ends:
            return data
        k = ends[int(at * len(ends))]
        return data[:k] + token + data[k + 1 :]
    head = data.find(b"\n") + 1
    if edit in ("insert", "truncate"):
        i = head + int(at * (len(data) - head))
        return data[:i] + token + data[i:] if edit == "insert" else data[:i]
    # A cell starts after a separator or a line end; drop_field takes the separator too.
    starts = [k + 1 for k in range(head - 1, len(data) - 1) if data[k] in b", \n"] if head else []
    if not starts:
        return data
    i = starts[int(at * len(starts))]
    end = i
    while end < len(data) and data[end] not in b", \n":
        end += 1
    if edit == "cell":
        return data[:i] + token + data[end:]
    return data[: i - 1] + data[end:]


def outcome(reader, path):
    """The arrays a reader returns, as bytes, or the type and text of what it raises."""
    try:
        got = reader(path)
    except Exception as exc:  # the two readers must raise alike, whatever the error
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        log, truth = got
        arrays = [log.timestamp, log.b_vec, log.b_total, log.speed, truth]
    elif hasattr(got, "eps"):
        arrays = [got.eps]
    else:
        arrays = [got.values, np.array(got.origin), np.array(got.cell_size)]
    return [None if a is None else (a.shape, a.tobytes()) for a in arrays]


@settings(max_examples=150)
@given(
    kind=st.sampled_from(sorted(FORMATS)),
    edits=st.lists(st.tuples(EDITS, st.floats(0.0, 1.0, exclude_max=True)), min_size=1, max_size=3),
)
def test_path_readers_match_the_line_walk(tmp_path_factory, kind, edits):
    data, reader, reference = FORMATS[kind]
    for (edit, token), at in edits:
        data = edited(data, edit, token, at)
    path = tmp_path_factory.mktemp("diff") / f"f.{kind}"
    path.write_bytes(data)
    assert outcome(reader, path) == outcome(reference, path)

