"""The declared legal values of every checked class, read back for the
tests derived from them: the boundary test, the completeness test, the
CLI's bad-``--set`` test and the whole-config fuzz."""

from __future__ import annotations

import importlib
import math
import pkgutil
from dataclasses import Field, fields
from typing import Any, Iterator, List, Tuple

import repro
from repro.config import Checked, Interval


def checked_classes() -> List[type]:
    """Every :class:`~repro.config.Checked` dataclass in ``repro``."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = set(), [Checked]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


def declared(cls: type) -> List[Tuple[Field, Any]]:
    """``(field, legal values)`` of each field of ``cls`` that declares them."""
    return [(f, f.metadata["legal"]) for f in fields(cls) if "legal" in f.metadata]


def ends(rule: Interval) -> Iterator[Tuple[float, bool, float]]:
    """Each end of ``rule`` as ``(value, closed, outward direction)``."""
    yield rule.lo, rule.lo_closed, -math.inf
    yield rule.hi, rule.hi_closed, math.inf


def past(field: Field, end: float, closed: bool, outward: float) -> Any:
    """The nearest illegal value beyond one end of an interval: the end
    itself when it is open, else one step outward (1 for an ``int``, one
    ulp for a ``float``); None past a closed infinity or an open one on
    an ``int`` field."""
    if not closed:
        return None if field.type == "int" and math.isinf(end) else end
    if math.isinf(end):
        return None
    if field.type == "int":
        return int(end) + (1 if outward > 0 else -1)
    return math.nextafter(end, outward)
