"""The ``agile-experiment/1`` contract, checked on both sides: arbitrary
documents that satisfy the committed JSON schema flatten into exactly the
points an independent flattener predicts."""

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import axes_key, compare

from tests.store.helpers import (
    ALL_DOCS,
    SCHEMA,
    experiment_doc,
    point_set,
    reference_points,
)

keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
numbers = st.one_of(
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
scalars = st.one_of(numbers, st.text(max_size=4), st.booleans(), st.none())
metrics = st.recursive(
    st.one_of(scalars, st.lists(scalars, max_size=3)),
    lambda inner: st.dictionaries(keys, inner, max_size=3),
    max_leaves=12,
)
cells = st.lists(
    st.fixed_dictionaries(
        {
            "axes": st.dictionaries(keys, scalars, max_size=3),
            "metrics": st.dictionaries(keys, metrics, max_size=4),
        }
    ),
    max_size=4,
    unique_by=lambda cell: axes_key(cell["axes"]),
)


@settings(max_examples=60, deadline=None)
@given(cells=cells)
def test_arbitrary_documents_validate_and_survive_the_store(cells):
    doc = experiment_doc("property", cells)
    jsonschema.validate(doc, SCHEMA)
    assert point_set(doc) == reference_points(doc)
    assert compare(doc, doc) == []


def test_miniatures_validate_and_malformed_documents_do_not():
    for doc in ALL_DOCS.values():
        jsonschema.validate(doc, SCHEMA)
    for breakage in (
        {"schema": "agile-serve-sweep/3"},
        {"cells": [{"axes": {}}]},
        {"checks": [{"name": "x", "ok": "yes", "detail": ""}]},
    ):
        assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(
            {**experiment_doc(), **breakage}
        )
