"""Column-wise reading and writing of the package's text formats.

Every format is a header, which the owning class reads itself, then one
record per line.  `read_columns` turns the body into columns of field
strings and `write_rows` formats whole columns into lines, so no format
loops over its lines in Python.
"""

from __future__ import annotations

import itertools
from typing import Optional, TextIO

import numpy as np

from .errors import InputError


def read_columns(text: str, kind: str, width: int, sep: Optional[str] = None,
                 ragged: bool = False) -> list:
    """The fields of the non-blank lines of `text`, as `width` columns.

    Lines end at "\\n".  A line splits into fields at whitespace or, given
    `sep`, at `sep`, with whitespace around a field ignored.  Every line must
    have `width` fields; with `ragged` it may have more, and two more
    columns follow: each line's number of extra fields, and all extra fields
    in line order.  Raises `InputError`, naming the kind of file, on a line
    with another number of fields or with an empty field.
    """
    if sep is not None:
        # each separator becomes a field of its own, every second one
        text = text.replace(sep, f" {sep} ")
    rows = list(filter(None, map(str.split, text.split("\n"))))
    span = width if sep is None else 2 * width - 1
    widths = set(map(len, rows))
    if widths and (min(widths) < span if ragged else widths != {span}):
        bad = next(r for r in rows if len(r) < span or not ragged and len(r) > span)
        raise InputError(f"malformed {kind} file: {width} fields expected "
                         f"in line {' '.join(bad)!r}")
    # zip stops at the shortest line, which has `span` fields
    columns = list(zip(*rows))[:span] if rows else [()] * span
    if sep is not None:
        if rows and any(set(col) != {sep} for col in columns[1::2]):
            raise InputError(f"malformed {kind} file: fields must be "
                             f"separated by one {sep!r}")
        columns = columns[::2]
    if ragged:
        columns.append(np.fromiter(map(len, rows), np.intp, len(rows)) - span)
        columns.append(list(itertools.chain.from_iterable(
            map(list.__getitem__, rows, itertools.repeat(slice(span, None))))))
    return columns


def float_texts(values) -> list:
    """`repr` of each float of `values`, formatting each bit pattern once:
    shortest round-trip formatting costs far more than finding repeats."""
    a = np.asarray(values, dtype=float)
    distinct, where = np.unique(a.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[where].tolist()


def write_rows(fh: TextIO, columns, sep: str = " ", tails=None) -> None:
    """Write one line per row of `columns`, equal-length sequences of
    strings: the row's entries joined by `sep` and then, given
    `tails = (ptr, items)`, row i's strings `items[ptr[i]:ptr[i + 1]]`,
    each after a space."""
    w, m = len(columns), len(columns[0])
    if tails is None:
        pieces = [sep] * (2 * w * m)
        for j, col in enumerate(columns):
            pieces[2 * j::2 * w] = col
        pieces[2 * w - 1::2 * w] = ["\n"] * m
        fh.write("".join(pieces))
        return
    ptr, items = np.asarray(tails[0]), tails[1]
    # the pieces of row i: its head at 2i + ptr[i], its items, a newline
    head_at = 2 * np.arange(m) + ptr[:-1]
    end_at = head_at + 1 + np.diff(ptr)
    pieces = np.empty(2 * m + len(items), dtype=object)
    is_item = np.ones(pieces.size, dtype=bool)
    is_item[head_at] = is_item[end_at] = False
    pieces[head_at] = list(map(sep.join, zip(*columns)))
    pieces[end_at] = "\n"
    pieces[is_item] = list(map(" ".__add__, items))
    fh.write("".join(pieces.tolist()))
