"""The number grammar, table reader and file writer of every magplan text format.

A float cell is what numpy's text parser reads as float64: ASCII digits,
sign, exponent, `nan`, `inf` and padding spaces. An integer cell is what it
reads as int64, so `1.0` and `1e0` are not integers. `_` digit separators,
non-ASCII digits and empty cells are bad values. numpy rounds as `float`
does, so the `repr` that `spell` writes round-trips bit for bit.

A file that is one header line and then one table (maglog, tlcoef, magmap)
is read by `head_line` and `read_body`, which runs `_parsed` on the path. Any
other file, and any body numpy refuses, goes to `read_lines` and `read_table`,
which runs `_parsed` on the lines and names a bad line. A trace stays on lines
because its `#` lines are not numpy's comment syntax: numpy cuts a `#`
anywhere in a line, where a trace drops only lines that start with one.

Every output file goes through `write_table`: ASCII, with any non-ASCII
character (say, in a file name) written as a backslash escape.
"""

from __future__ import annotations

import os
import warnings
from typing import Iterable, Optional, Sequence

import numpy as np

# The suffixes numpy's DataSource decompresses on open.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


class TextError(ValueError):
    """A cell or a table row breaks the grammar; `line` is its 1-based file line, if any."""

    def __init__(self, reason: str, line: Optional[int] = None):
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason, self.line = reason, line


def read_lines(path) -> list[str]:
    """The file's lines, each ended by LF, CR LF or a lone CR (Python's universal
    newlines; numpy reads vertical tab, form feed and 0x1c-0x1e as cell
    padding); a non-ASCII byte reads as U+FFFD, which no grammar accepts."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def head_line(path) -> str:
    """The file's first line as `read_lines` reads it; an empty file's is ''."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return fh.readline().removesuffix("\n")


def read_body(path, delimiter: Optional[str], widths: Sequence[int], ints=()) -> np.ndarray:
    """The table after the file's header line, as `read_table` reads it from `read_lines(path)`.

    `_parsed` reads it straight from the path. numpy refuses a non-ASCII
    byte, a bad cell, a change of width and, in a comma table, a
    whitespace-only line. Those files, a width outside `widths` and a path
    numpy would not open as plain text (a compressed suffix, a URL) are read
    by `read_table`, whose TextError names the line. A row's file line comes
    from `body_lines`, as numpy skips blank lines. Check the header line
    first: this reads the rest of any file.
    """
    name = os.fspath(path)
    if not name.endswith(_COMPRESSED) and "://" not in name:
        table = _parsed(name, delimiter, widths, ints, skiprows=1, encoding="ascii")
        if table is not None:
            return table
    return read_table(read_lines(path), 1, delimiter, widths, ints)[0]


def _parsed(source, delimiter: Optional[str], widths: Sequence[int], ints, **kwargs):
    """numpy's parse of a table at a path or in a list of rows: the float table,
    (0, widths[0]) if it has no row, or None if numpy refuses it or its width."""
    args = dict(delimiter=delimiter, comments=None, **kwargs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(source, ndmin=2, **args)
            if ints:  # the same cells again, in the integer grammar
                np.loadtxt(source, dtype=int, usecols=ints, **args)
    except UserWarning:  # loadtxt's only one: "input contained no data"
        return np.empty((0, widths[0]))
    except ValueError:  # UnicodeDecodeError is a ValueError
        return None
    return table if table.shape[1] in widths else None


def body_lines(path) -> list[int]:
    """The file line of each `read_body` row: the non-blank lines after the first."""
    return _row_lines(read_lines(path), 1)


def _row_lines(lines: Sequence[str], start: int) -> list[int]:
    return [n + 1 for n in range(start, len(lines)) if lines[n].strip()]


def parse_cell(cell: str, kind: type = float, line: Optional[int] = None):
    """One cell as a Python `kind` (float or int); TextError, naming `line`, if it is not one."""
    value = ()
    if cell:  # an empty string would read as a blank line, not as a bad cell
        try:
            value = np.loadtxt([cell], delimiter=",", comments=None, dtype=kind, ndmin=1)
        except ValueError:
            pass
    if len(value) != 1:
        raise TextError(f"bad value: could not convert string to {kind.__name__}: {cell!r}", line)
    return value[0].item()


def read_table(
    lines: Sequence[str], start: int, delimiter: Optional[str], widths: Sequence[int], ints=()
) -> tuple[np.ndarray, list[int]]:
    """The non-blank `lines[start:]` as one float table, and each row's file line.

    Each row has one of `widths` fields (`delimiter` None splits on
    whitespace); the columns `ints` hold integer cells. If the one numpy
    call fails, a TextError names the first bad line: a field count not in
    `widths` or unlike the first row's, or a bad cell.
    """
    linenos = _row_lines(lines, start)
    rows = [lines[n - 1] for n in linenos]
    table = _parsed(rows, delimiter, widths, ints)
    if table is not None:
        return table, linenos
    noun = "CSV fields" if delimiter == "," else "fields"
    first = len(rows[0].split(delimiter))
    for lineno, row in zip(linenos, rows):
        fields = row.split(delimiter)
        if len(fields) not in widths:
            want = " or ".join(map(str, widths))
            raise TextError(f"expected {want} {noun}, got {len(fields)}", lineno)
        if len(fields) != first:
            reason = f"expected {first} {noun} as on line {linenos[0]}, got {len(fields)}"
            raise TextError(reason, lineno)
        for c, cell in enumerate(fields):
            parse_cell(cell, int if c in ints else float, lineno)
    raise TextError("rows do not form one table", linenos[0])


def spell(value, integer: bool = False) -> str:
    """An output cell: `str(int(v))` if `integer`, else `repr(float(v))`; a str as it is."""
    return _spelled([value], (0,) if integer else ())[0]


def _spelled(row: Sequence, ints: frozenset) -> list[str]:
    # `spell` of each cell; one comprehension per row costs less than a call per cell.
    return [
        v if isinstance(v, str) else str(int(v)) if c in ints else repr(float(v))
        for c, v in enumerate(row)
    ]


def preamble(kind: str, provenance: dict[str, str]) -> list[str]:
    """The `# magplan-<kind> v1` line, then a `# key: value` line per provenance key, sorted."""
    return [f"# magplan-{kind} v1", *(f"# {key}: {provenance[key]}" for key in sorted(provenance))]


def write_table(path, head: Sequence[str], rows: Iterable = (), delimiter=",", ints=()) -> None:
    """Write the `head` lines, then each row's `spell`ed cells; `ints` are integer columns."""
    ints = frozenset(ints)
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.writelines(line + "\n" for line in head)
        for row in rows:
            fh.write(delimiter.join(_spelled(row, ints)) + "\n")
