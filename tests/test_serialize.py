"""Deterministic report rendering."""

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fhn_torus import _serialize
from fhn_torus._serialize import csv_text, dumps_json, to_jsonable


@dataclass
class Pair:
    x: float
    label: str


class TestToJsonable:
    def test_float_survives_parse_exactly(self):
        raw = 0.1 + 0.2
        parsed = json.loads(dumps_json({"v": raw}))
        assert parsed["v"] == raw

    def test_complex_splits_into_parts(self):
        out = to_jsonable(complex(1.5, -2.25))
        assert out == {"re": 1.5, "im": -2.25}

    def test_fraction_renders_as_ratio(self):
        assert to_jsonable(Fraction(2, 3)) == "2/3"

    def test_tuple_keys_join_with_comma(self):
        out = to_jsonable({(1, 0): "a", (0, 1): "b"})
        assert out == {"1,0": "a", "0,1": "b"}

    def test_dataclass_tagged_with_type(self):
        out = to_jsonable(Pair(x=1.0, label="q"))
        assert out == {"type": "Pair", "x": 1.0, "label": "q"}

    def test_numpy_scalars_and_arrays(self):
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert to_jsonable(np.int64(7)) == 7
        assert to_jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_nonfinite_becomes_string(self):
        out = to_jsonable({"a": math.inf, "b": math.nan})
        assert out["a"] == "inf"
        assert out["b"] == "nan"


class TestRendering:
    def test_json_is_deterministic(self):
        payload = {"b": 1.0 / 3.0, "a": [complex(0, 1), Fraction(1, 7)]}
        assert dumps_json(payload) == dumps_json(payload)

    def test_json_parses_cleanly(self):
        payload = {"nested": {"vals": (0.1, 0.2)}, "flag": True, "none": None}
        parsed = json.loads(dumps_json(payload))
        assert parsed["flag"] is True
        assert parsed["none"] is None
        assert parsed["nested"]["vals"] == [0.1, 0.2]

    def test_csv_17_digit_floats(self):
        text = csv_text([(math.sqrt(2.0 / 3.0),)], ("g",))
        lines = text.strip().split("\n")
        assert lines[0] == "g"
        assert lines[1] == "0.81649658092772603"
        assert float(lines[1]) == math.sqrt(2.0 / 3.0)

    def test_csv_booleans_and_complex(self):
        text = csv_text([(True, complex(1, -1))], ("ok", "z"))
        row = text.strip().split("\n")[1]
        assert row.startswith("true,")

    def test_csv_float_block_matches_cell_rows(self, rng):
        block = np.array([[-0.0, 5e-324, 1e300, 3.0],
                          [1.0, -2.5, 0.1 + 0.2, 2.0 ** 60],
                          [math.pi, -1e-300, 1e16, -123.0]])
        header = ("a", "b", "c", "d")
        rows = tuple(tuple(row) for row in block.tolist())
        text = csv_text(block, header)
        assert text == csv_text(rows, header)
        assert text.split("\n")[1] == "-0,4.9406564584124654e-324,1.0000000000000001e+300,3"
        assert csv_text(block[:1], header) == csv_text(rows[:1], header)
        # more rows than one write formats, with a partial last write
        big = rng.standard_normal((2 * _serialize._BLOCK_ROWS + 3, 5))
        big_rows = tuple(tuple(row) for row in big.tolist())
        assert csv_text(big, "vwxyz") == csv_text(big_rows, "vwxyz")

    def test_csv_deterministic(self):
        rows = [(1, 0.1, "x"), (2, 0.2, "y")]
        assert csv_text(rows, ("i", "v", "s")) == csv_text(rows, ("i", "v", "s"))
