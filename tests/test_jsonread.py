import json
from enum import Enum
from typing import NamedTuple, Optional

import pytest

from photoauth.jsonread import from_json


class Color(Enum):
    RED = "red"


class Inner(NamedTuple):
    rate: float = 0.5


class _OuterFields(NamedTuple):
    name: str
    count: int = 1
    flag: bool = False
    seed: Optional[int] = None
    names: tuple[str, ...] = ()
    color: Color | str = Color.RED
    inner: Inner = Inner()


class Outer(_OuterFields):
    """A record that checks its fields, as the package's validated records do."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.count < 0:
            raise ValueError("count must be non-negative")
        return self


class TestFromJson:
    def test_missing_fields_keep_defaults_and_unknown_keys_are_ignored(self):
        assert from_json(Outer, {"name": "a", "extra": [1]}, "x") == Outer("a")

    def test_reads_every_supported_type(self):
        obj = json.loads(
            '{"name": "a", "count": 2, "flag": true, "seed": 3, "names": ["p", "q"],'
            ' "color": "red", "inner": {"rate": 1}}'
        )
        assert from_json(Outer, obj, "x") == Outer("a", 2, True, 3, ("p", "q"), Color.RED, Inner(1))

    def test_first_union_member_that_accepts_wins(self):
        assert from_json(Outer, {"name": "a", "color": "blue"}, "x").color == "blue"
        assert from_json(Outer, {"name": "a", "seed": None}, "x").seed is None

    @pytest.mark.parametrize(
        "text,path",
        [
            ('{"count": 1}', "x.name: missing"),
            ('{"name": "a", "count": true}', "x.count:"),
            ('{"name": "a", "count": 1.0}', "x.count:"),
            ('{"name": "a", "flag": 1}', "x.flag:"),
            ('{"name": "a", "flag": "no"}', "x.flag:"),
            ('{"name": "a", "seed": "3"}', "x.seed:"),
            ('{"name": "a", "names": "pq"}', "x.names:"),
            ('{"name": "a", "names": ["p", 1]}', "x.names[1]:"),
            ('{"name": "a", "inner": {"rate": true}}', "x.inner.rate:"),
            ('{"name": "a", "inner": {"rate": NaN}}', "x.inner.rate:"),
            ('{"name": "a", "inner": {"rate": -Infinity}}', "x.inner.rate:"),
            ('{"name": "a", "inner": {"rate": 1e400}}', "x.inner.rate:"),
            ('{"name": "a", "inner": {"rate": %d}}' % 10**400, "x.inner.rate:"),
            ('{"name": "a", "inner": []}', "x.inner:"),
            ('{"name": "a", "count": -1}', "x: count must be non-negative"),
            ("[]", "x:"),
        ],
    )
    def test_refusals_name_the_key_path(self, text, path):
        with pytest.raises(ValueError) as excinfo:
            from_json(Outer, json.loads(text), "x")
        assert str(excinfo.value).startswith(path)
