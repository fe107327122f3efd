"""documents.read and documents.write: a dataclass's type hints as the
schema of a JSON object."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from cmla.documents import read, write
from cmla.errors import ConfigError


@dataclass(frozen=True)
class Leaf:
    x: float
    n: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ConfigError("n must be non-negative")


@dataclass(frozen=True)
class Root:
    name: str
    leaves: tuple[Leaf, ...]
    flag: bool = False
    tags: dict[str, list[int]] = field(default_factory=dict)
    extra: Leaf | None = None


def read_root(doc):
    return read(Root, doc, "the root", "doc:")


def test_reads_values_by_their_type_hints():
    got = read_root({"name": "r", "leaves": [{"x": 1}, {"x": 2.5, "n": 3}],
                     "tags": {"a": [1, 2]}, "extra": None})
    assert got == Root("r", (Leaf(1.0), Leaf(2.5, 3)), False, {"a": [1, 2]}, None)
    assert type(got.leaves[0].x) is float


@pytest.mark.parametrize("doc, message", [
    ({"name": "r"}, "doc: the root is missing the key 'leaves'"),
    ({"name": "r", "leaves": [], "other": 1}, "doc: the root has an unknown key 'other'"),
    ({"name": 5, "leaves": []}, "doc: the root has a malformed 'name': expected str"),
    ({"name": "r", "leaves": [], "flag": 1}, "has a malformed 'flag': expected bool"),
    ({"name": "r", "leaves": "ab"}, "has a malformed 'leaves': expected tuple[object, ...]"),
    ({"name": "r", "leaves": [{"x": True}]}, "doc: leaves[0] has a malformed 'x': expected float"),
    ({"name": "r", "leaves": [{"x": 10**400}]}, "doc: leaves[0] has a malformed 'x'"),
    ({"name": "r", "leaves": [{"x": 1, "n": 1.0}]}, "leaves[0] has a malformed 'n': expected int"),
    ({"name": "r", "leaves": [{"x": 1, "n": -1}]}, "doc: leaves[0]: n must be non-negative"),
    ({"name": "r", "leaves": [], "extra": {}}, "doc: extra is missing the key 'x'"),
    ({"name": "r", "leaves": [], "extra": 1}, "malformed 'extra': expected object | None"),
    ({"name": "r", "leaves": [], "tags": {"a": ["1"]}},
     "malformed 'tags': expected dict[str, list[int]]"),
    ([], "doc: the root must be a JSON object"),
])
def test_names_the_key_at_fault(doc, message):
    with pytest.raises(ConfigError) as e:
        read_root(doc)
    assert message in str(e.value)


@dataclass(frozen=True)
class Shapes:
    # keyword-only, so it leads the object and keeps its default
    version: int = field(default=1, kw_only=True)
    count: int
    ratio: float
    flag: bool
    label: str
    maybe: int | None
    values: list[float]
    leaves: tuple[Leaf, ...]
    by_name: dict[str, Leaf]
    raw: dict
    root: Root


def shapes(maybe=None, extra=None):
    root = Root("r", (Leaf(0.5),), True, {"a": [1, 2], "b": []}, extra)
    return Shapes(count=3, ratio=0.25, flag=False, label="s", maybe=maybe,
                  values=[1.0, -2.5], leaves=(Leaf(1.0, 2), Leaf(3.5)),
                  by_name={"k": Leaf(4.0, 1)}, raw={"any": [1, "two", None, {"x": True}]},
                  root=root)


@pytest.mark.parametrize("maybe, extra", [(None, None), (7, Leaf(9.0, 4))])
def test_write_is_the_inverse_of_read(maybe, extra):
    x = shapes(maybe, extra)
    doc = write(x)
    assert read(Shapes, doc, "shapes", "doc:") == x
    parsed = json.loads(json.dumps(doc))
    assert parsed == doc
    assert write(read(Shapes, parsed, "shapes", "doc:")) == parsed


def test_write_gives_arrays_for_tuples_and_null_for_none():
    doc = write(shapes())
    assert doc["leaves"] == [{"x": 1.0, "n": 2}, {"x": 3.5, "n": 0}]
    assert doc["maybe"] is None and doc["root"]["extra"] is None
    assert doc["raw"] == {"any": [1, "two", None, {"x": True}]}


def test_write_casts_numbers_to_their_declared_type():
    x = Shapes(count=np.int64(3), ratio=2, flag=True, label="s", maybe=np.uint64(2**63 + 5),
               values=[np.float32(0.5), 1], leaves=(Leaf(np.float64(0.1), np.int32(4)),),
               by_name={"k": Leaf(np.int64(2))}, raw={}, root=Root("r", ()))
    doc = write(x)
    assert (doc["count"], doc["ratio"], doc["maybe"]) == (3, 2.0, 2**63 + 5)
    assert doc["values"] == [0.5, 1.0] and doc["leaves"] == [{"x": 0.1, "n": 4}]
    assert doc["by_name"] == {"k": {"x": 2.0, "n": 0}}

    def numbers(value):
        if isinstance(value, dict):
            return [n for v in value.values() for n in numbers(v)]
        if isinstance(value, list):
            return [n for v in value for n in numbers(v)]
        return [value] if isinstance(value, (int, float)) else []

    assert {type(n) for n in numbers(doc)} <= {int, float, bool}
    assert type(doc["ratio"]) is float and type(doc["count"]) is int
    assert json.loads(json.dumps(doc)) == doc


def test_write_keeps_the_field_order():
    doc = write(shapes(extra=Leaf(1.0)))
    assert list(doc) == [f.name for f in fields(Shapes)]
    assert list(doc)[0] == "version"
    assert list(doc["root"]) == ["name", "leaves", "flag", "tags", "extra"]
    assert list(doc["root"]["extra"]) == ["x", "n"]
