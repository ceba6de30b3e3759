"""Deterministic JSON/CSV emission for CLI reports.

Floats are written with 17 significant digits, enough to round-trip
IEEE doubles exactly, so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from fractions import Fraction

import numpy as np


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Recursively convert results to plain JSON types.

    complex -> {"re": .., "im": ..}; dataclasses -> dicts with a "type"
    tag; Fractions -> "p/q" strings; numpy scalars and arrays -> python
    numbers and lists; non-finite floats -> strings; dict keys -> strings.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if _finite(obj):
            return obj
        return repr(obj)
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.complexfloating):
        return to_jsonable(complex(obj))
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    if callable(obj):
        return f"<callable {getattr(obj, '__name__', 'anonymous')}>"
    return str(obj)


def _finite(x: float) -> bool:
    return x == x and abs(x) != float("inf")


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_render(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def dumps_json(obj) -> str:
    return _render(to_jsonable(obj)) + "\n"


# Rows of a float block formatted per write, so that only this many
# rows exist as Python floats and text at once.
_BLOCK_ROWS = 2048


def write_csv(rows, header, fh):
    """Write the header line, then one line per row, to a text file.

    ``rows`` is a tuple of rows or a 2-D float array, one row per line
    and one column per header entry.  Rows of mixed type go through
    :func:`csv.writer`, which quotes strings where needed, with each
    cell rendered by ``_cell``.  A float array is formatted with one
    ``"%.17g,...,%.17g\\n"`` format per row, a few thousand rows per
    write: the same bytes ``_cell`` gives each float, without building
    a Python object per cell up front.
    """
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(list(header))
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), _BLOCK_ROWS):
            chunk = rows[start:start + _BLOCK_ROWS].tolist()
            fh.write("".join([line % tuple(row) for row in chunk]))
        return
    for row in rows:
        w.writerow([_cell(v) for v in row])


def csv_text(rows, header) -> str:
    """The text :func:`write_csv` writes for ``rows`` and ``header``."""
    buf = io.StringIO()
    write_csv(rows, header, buf)
    return buf.getvalue()


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (float, np.floating)):
        return _fmt17(float(v))
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (complex, np.complexfloating)):
        c = complex(v)
        return f"{_fmt17(c.real)}{'+' if c.imag >= 0 else '-'}{_fmt17(abs(c.imag))}j"
    return v
