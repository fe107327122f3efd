"""documents.read: a dataclass's type hints as the schema of a JSON object."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from cmla.documents import read
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
