import math

import numpy as np
import pytest

from attnlab.errors import ValidationError
from attnlab.serialize import record, write_csv, write_json, write_jsonl


def test_writers_pin_their_bytes(tmp_path):
    path = tmp_path / "a.json"
    write_json({"b": [1, 2.5], "a": None}, path)
    assert path.read_bytes() == b'{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}\n'

    write_jsonl(iter([{"b": 1, "a": "x"}, {}]), path)
    assert path.read_bytes() == b'{"b": 1, "a": "x"}\n{}\n'

    write_csv(path, ["id", "value"], iter([['doc 1, "p" 2', 0.5], ["plain", ""]]))
    assert path.read_bytes() == b'id,value\n"doc 1, ""p"" 2",0.5\nplain,\n'


# (spec, a value the kind takes, what record returns for it)
RECORD_ACCEPTS = [
    (int, -3, -3),
    (str, "", ""),
    (bool, False, False),
    (float, 2, 2.0),
    (float, -0.5, -0.5),
    ([int], [1, 2], [1, 2]),
    ([str], [], []),
    ((int, str), [1, "a"], (1, "a")),
    ({"a": int, "b": [bool]}, {"b": [True], "a": 0}, {"a": 0, "b": [True]}),
    (dict, {"any": [None]}, {"any": [None]}),
]

# (spec, a value it refuses, the message)
RECORD_REFUSES = [
    (int, True, "x must be an integer, got true"),
    (int, 2.0, "x must be an integer, got 2.0"),
    (int, "7", 'x must be an integer, got "7"'),
    (str, None, "x must be a string, got null"),
    (bool, 1, "x must be true or false, got 1"),
    (float, math.nan, "x must be a finite number, got NaN"),
    (float, math.inf, "x must be a finite number, got Infinity"),
    (float, -math.inf, "x must be a finite number, got -Infinity"),
    (float, True, "x must be a finite number, got true"),
    (float, 10**400, "x must be a finite number, got 1000"),
    ([int], {"0": 1}, 'x must be a list, got {"0": 1}'),
    ([int], [1, None], "x[1] must be an integer, got null"),
    ((int, int), [1], "x must be a list of 2 values, got [1]"),
    ((int, int), [1, 2, 3], "x must be a list of 2 values, got [1, 2, 3]"),
    ({"a": int}, [], "x must be an object, got []"),
    ({"a": int}, {}, "x.a is missing"),
    ({"a": int}, {"a": 1, "b": 2}, "x.b is unknown"),
    (dict, [], "x must be an object, got []"),
    (np.float64, "0.5", 'x must be a rectangular list of numbers, got "0.5"'),
    (np.float64, [["0.5"]], "x must be a rectangular list of numbers"),
    (np.float64, [[0.5], [0.5, 0.5]], "x must be a rectangular list of numbers"),
    (np.float64, [0.5, None], "x must be a rectangular list of numbers"),
    (np.float64, [True, False], "x must be a rectangular list of numbers"),
    (np.bool_, ["x", ""], "x must be a rectangular list of booleans"),
    (np.bool_, [1, 0], "x must be a rectangular list of booleans"),
    (np.float64, [[True, 0.5]], "x must be a rectangular list of numbers"),
    (np.float64, [[0.5, 0.25], [0.0, False]], "x must be a rectangular list of numbers"),
    (np.float64, [2, True], "x must be a rectangular list of numbers"),
]


@pytest.mark.parametrize("spec, value, want", RECORD_ACCEPTS)
def test_record_takes_each_kind(spec, value, want):
    got = record(value, spec, "x")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("spec, value, message", RECORD_REFUSES)
def test_record_refuses_each_kind_naming_the_path(spec, value, message):
    with pytest.raises(ValidationError) as exc:
        record(value, spec, "x")
    assert message in str(exc.value)


@pytest.mark.parametrize("kind, value, dtype", [
    (np.float64, [[1, 0.5], [0, 2]], np.float64),
    (np.bool_, [[True], [False]], np.bool_),
])
def test_record_reads_an_array_kind_in_one_piece(kind, value, dtype):
    got = record(value, kind)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, np.array(value, dtype=dtype))


def test_record_names_a_nested_path_from_the_record_root():
    spec = {"spans": [(int, int)], "meta": {"vocab": [str]}}
    with pytest.raises(ValidationError, match=r"^spans\[0\]\[1\] must be an integer, got 2.7$"):
        record({"spans": [[0, 2.7]], "meta": {"vocab": []}}, spec)
    with pytest.raises(ValidationError, match=r"^meta\.vocab\[1\] must be a string, got 3$"):
        record({"spans": [], "meta": {"vocab": ["a", 3]}}, spec)
    with pytest.raises(ValidationError, match=r"^the record must be an object, got \[\]$"):
        record([], spec)
