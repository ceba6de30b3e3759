"""Deterministic report rendering."""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fhn_torus import _serialize
from fhn_torus._serialize import csv_text, dumps_json


@dataclass
class Pair:
    x: float
    label: str


@dataclass
class Mode:
    eigenvalue: complex
    ratio: Fraction


@dataclass
class Record:
    label: str
    mode: Mode
    flags: tuple


def golden_payload():
    """One of each kind of value a report may hold."""
    return {
        "record": Record("réc", Mode(complex(0.1, -2.5), Fraction(2, 3)), (True, None)),
        "np_complex": np.complex128(1.0 / 3.0 - 1e-300j),
        "np_float": np.float64(0.1) + np.float64(0.2),
        "np_int": np.int64(-7),
        "np_bool": np.bool_(False),
        "array": np.array([-0.0, 5e-324, 1e16, math.pi]),
        "modes": {(1, 0): 0.5, (0, 2): [2.0**60, 1e-7]},
        "nonfinite": [math.inf, -math.inf, math.nan],
        "np_nonfinite": [np.float64("inf"), np.float64("-inf"), np.float64("nan"),
                         np.complex128(complex(math.inf, math.nan))],
        "none": None,
        "yes": True,
        "no": False,
        "empty_object": {},
        "empty_list": [],
        "text": 'say "ω"',
    }


# The text of dumps_json(golden_payload()) when the payload was first
# copied into plain types and the copy then rendered.  That copy wrote
# a non-finite numpy float as its numpy 2 repr, such as "np.float64(inf)".
OLD_GOLDEN_JSON = r"""{
  "record": {
    "type": "Record",
    "label": "r\u00e9c",
    "mode": {
      "type": "Mode",
      "eigenvalue": {
        "re": 0.10000000000000001,
        "im": -2.5
      },
      "ratio": "2/3"
    },
    "flags": [
      true,
      null
    ]
  },
  "np_complex": {
    "re": 0.33333333333333331,
    "im": -1e-300
  },
  "np_float": 0.30000000000000004,
  "np_int": -7,
  "np_bool": false,
  "array": [
    -0,
    4.9406564584124654e-324,
    10000000000000000,
    3.1415926535897931
  ],
  "modes": {
    "1,0": 0.5,
    "0,2": [
      1.152921504606847e+18,
      9.9999999999999995e-08
    ]
  },
  "nonfinite": [
    "inf",
    "-inf",
    "nan"
  ],
  "np_nonfinite": [
    "np.float64(inf)",
    "np.float64(-inf)",
    "np.float64(nan)",
    {
      "re": "np.float64(inf)",
      "im": "np.float64(nan)"
    }
  ],
  "none": null,
  "yes": true,
  "no": false,
  "empty_object": {},
  "empty_list": [],
  "text": "say \"\u03c9\""
}
"""


def loads(obj):
    return json.loads(dumps_json(obj))


class TestGoldenBytes:
    def test_bytes_match_the_golden_text(self):
        # a non-finite numpy float now reads as a python one
        want, count = re.subn(r'"np\.float64\((-?inf|nan)\)"', r'"\1"', OLD_GOLDEN_JSON)
        assert count == 5
        assert dumps_json(golden_payload()) == want

    @pytest.mark.parametrize("value", [{1, 2}, object()], ids=["set", "object"])
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            dumps_json({"v": [value]})


class TestToJsonable:
    def test_float_survives_parse_exactly(self):
        raw = 0.1 + 0.2
        parsed = json.loads(dumps_json({"v": raw}))
        assert parsed["v"] == raw

    def test_complex_splits_into_parts(self):
        assert loads(complex(1.5, -2.25)) == {"re": 1.5, "im": -2.25}
        assert loads(np.complex128(0.5 + 1j)) == {"re": 0.5, "im": 1.0}

    def test_fraction_renders_as_ratio(self):
        assert loads(Fraction(2, 3)) == "2/3"

    def test_tuple_keys_join_with_comma(self):
        assert loads({(1, 0): "a", (0, 1): "b"}) == {"1,0": "a", "0,1": "b"}

    def test_dataclass_tagged_with_type(self):
        out = loads(Pair(x=1.0, label="q"))
        assert out == {"type": "Pair", "x": 1.0, "label": "q"}
        assert list(out) == ["type", "x", "label"]

    def test_numpy_scalars_and_arrays(self):
        assert loads(np.float64(0.5)) == 0.5
        assert loads(np.int64(7)) == 7
        assert loads(np.bool_(True)) is True
        assert loads(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert loads(np.array([[1, 2], [3, 4]])) == [[1, 2], [3, 4]]

    def test_nonfinite_becomes_string(self):
        out = loads({"a": math.inf, "b": math.nan, "c": np.float64(-math.inf)})
        assert out == {"a": "inf", "b": "nan", "c": "-inf"}


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

    def test_csv_booleans(self):
        text = csv_text([(True, np.bool_(False), 1)], ("a", "b", "c"))
        assert text.split("\n")[1] == "true,false,1"

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
