"""Plain-text conventions shared by every file transjump reads or writes.

Blank lines and lines starting with ``#`` carry no data; the comment
``# config <hash>`` names the settings that produced the file. Numeric fields
must be finite. A reader error is a ``TraceParseError`` that names the 1-based
line and, where one field is at fault, the field. Floats are written with
``.17g``, which reads back as the same double.
"""

from __future__ import annotations

import math
from typing import NoReturn

import numpy as np

from .errors import TraceParseError

full = "{:.17g}".format


def row(values, sep: str = " ") -> str:
    """One line of floats at full precision."""
    return sep.join(map(full, np.asarray(values, dtype=float).tolist()))


def write_text(path, lines, config_hash: str | None = None) -> None:
    """Write ``lines``, which may be a generator, as :func:`file_lines` does."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(file_lines(lines, config_hash))


def file_lines(lines, config_hash: str | None = None):
    """Newline-terminated ``lines`` after a ``# config`` comment when a hash is given."""
    if config_hash:
        yield f"# config {config_hash}\n"
    for line in lines:
        yield line + "\n"


def read_records(path) -> tuple[str | None, list[tuple[int, str]]]:
    """The config hash (None without one) and the (line number, stripped text)
    of every line that carries data."""
    config = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line[0] == "#":
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "config":
                    config = parts[1]
                continue
            records.append((lineno, line))
    return config, records


def floats(fields, line: int | None, what: str) -> list[float]:
    """``fields`` as finite floats."""
    try:
        vals = list(map(float, fields))
    except ValueError:
        _reject(fields, line, what)
    if not all(map(math.isfinite, vals)):
        _reject(fields, line, what)
    return vals


def _reject(fields, line: int | None, what: str) -> NoReturn:
    """Raise for the first field that is not a finite float."""
    for j, field in enumerate(fields, start=1):
        try:
            finite = math.isfinite(float(field))
        except ValueError:
            raise TraceParseError(
                f"non-numeric {what} in field {j}: {field!r}", line=line
            ) from None
        if not finite:
            raise TraceParseError(f"{what} field {j} must be finite", line=line)
    raise AssertionError("every field is a finite float")


def counts(fields, line: int, what: str) -> list[int]:
    """``fields`` as non-negative integers."""
    for text in fields:
        if not (text.isascii() and text.isdigit()):
            raise TraceParseError(
                f"{what} must be a non-negative integer, got {text!r}", line=line
            )
    return list(map(int, fields))


def table(records, width: int, what: str, sep: str | None = None) -> np.ndarray:
    """One C-contiguous row of ``width`` finite floats per record."""
    out = np.empty((len(records), width))
    for r, (line, text) in enumerate(records):
        fields = text.split(sep)
        try:
            vals = list(map(float, fields))
        except ValueError:
            _reject(fields, line, what)
        if len(vals) != width:
            raise TraceParseError(f"expected {width} values, found {len(vals)}", line=line)
        out[r] = vals
    # finiteness is checked once for the whole block, which costs less than per row
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        line, text = records[bad[0]]
        _reject(text.split(sep), line, what)
    return out
