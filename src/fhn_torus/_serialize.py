"""Deterministic JSON/CSV emission for CLI reports.

Floats are written with 17 significant digits, enough to round-trip
IEEE doubles exactly, so identical inputs give byte-identical files.
JSON is rendered straight from the result objects in one pass:
dataclasses become objects whose first key ``"type"`` names the class,
complex values ``{"re": .., "im": ..}``, Fractions ``"p/q"`` strings,
numpy scalars and arrays the python numbers and lists they hold, tuple
dict keys their entries joined by commas, and non-finite floats the
strings ``"inf"``, ``"-inf"`` and ``"nan"``.  Any other type raises
``TypeError``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction

import numpy as np


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def _object(items, pad: str) -> str:
    """A JSON object of (key, value) pairs, its members indented past pad."""
    inner = pad + "  "
    members = [f"{inner}{json.dumps(_key(k))}: {_render(v, inner)}" for k, v in items]
    if not members:
        return "{}"
    return "{\n" + ",\n".join(members) + "\n" + pad + "}"


def _render(obj, pad: str = "") -> str:
    """The JSON text of obj, its nested lines indented past pad.

    Floats come first: they are most of every large report.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt17(obj)
        return f'"{float(obj)!r}"'  # numpy 2's repr is "np.float64(inf)"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, complex):
        return _object((("re", obj.real), ("im", obj.imag)), pad)
    if isinstance(obj, dict):
        return _object(obj.items(), pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        items = [inner + _render(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
        return _object([("type", type(obj).__name__)] + fields, pad)
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    if isinstance(obj, (np.ndarray, np.generic)):
        return _render(obj.tolist(), pad)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def dumps_json(obj) -> str:
    return _render(obj) + "\n"


# Rows of a float block formatted per write, so that only this many
# rows exist as Python floats and text at once.
_BLOCK_ROWS = 2048


def csv_text(rows, header) -> str:
    """The header line, then one line per row, as one text.

    ``rows`` is a tuple of rows or a 2-D float array, one row per line
    and one column per header entry.  Rows of mixed type go through
    :func:`csv.writer`, which quotes strings where needed, with each
    cell rendered by ``_cell``.  A float array is formatted with one
    ``"%.17g,...,%.17g\\n"`` format per row, a few thousand rows per
    write: the same bytes ``_cell`` gives each float, without building
    a Python object per cell up front.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(list(header))
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for start in range(0, len(rows), _BLOCK_ROWS):
            chunk = rows[start:start + _BLOCK_ROWS].tolist()
            buf.write("".join([line % tuple(row) for row in chunk]))
    else:
        for row in rows:
            w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (float, np.floating)):
        return _fmt17(float(v))
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v
