"""The reach table's kept rows (``tests/support/reach.py``) name real
functions, so a deleted or renamed one cannot leave a stale reason."""

from __future__ import annotations

import os

from tests.support.reach import KEPT, SRC, universe


def test_every_kept_row_names_a_function_under_src():
    names = {
        f"{os.path.relpath(path, SRC)}:{qualname}"
        for (path, _line, _name), (qualname, _lines) in universe().items()
    }
    assert sorted(set(KEPT) - names) == []
