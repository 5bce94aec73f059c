"""Kinds kept apart at every layer. To Python True == 1, False == 0 and both
hash alike, so a layer that compares raw values takes one kind for another.
For any two scalars of different kinds, admission refuses the one of the
wrong kind, an index binding of one never binds the other, and the bindings
order, the canonical bytes and the report tell them apart."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from compacts.evaluator import NormInstance, NormState
from compacts.fileformats import instance_to_json
from compacts.ledger import Event, Position, canonical_serialize
from compacts.matching import bindings_sort_key
from compacts.validator import (
    Channel,
    IntegrityRuleSet,
    LedgerIndex,
    Parameter,
    SchemaDecl,
    check_integrity,
    validate_event_schema,
)

KIND = {bool: "bool", int: "int", str: "text"}  # by exact type: a bool is not an int

SCALARS = st.one_of(
    st.sampled_from([0, 1, True, False, "1", "0", "true"]),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.text(max_size=4),
)
OF_TWO_KINDS = st.tuples(SCALARS, SCALARS).filter(lambda pair: type(pair[0]) is not type(pair[1]))


def _rules(first_kind: str, second_kind: str) -> IntegrityRuleSet:
    """Bind introduces v, a key of the first kind; Use and Own refer to v, as
    the second kind and the first. With 1 and true: an int key bound to 1
    must not bind a bool in parameter of the same name to true."""
    schemas = (
        SchemaDecl("Bind", (Parameter("k", "text", "key"), Parameter("v", first_kind, "key"))),
        SchemaDecl("Use", (Parameter("k", "text", "key"), Parameter("v", second_kind, "in"))),
        SchemaDecl("Own", (Parameter("k", "text", "key"), Parameter("v", first_kind, "in"))),
    )
    return IntegrityRuleSet(schemas=schemas, channels=(Channel("c", ("p",), ("Bind", "Use", "Own")),))


def _event(event_id: str, event_type: str, value) -> Event:
    return Event.make(event_id, event_type, {"k": event_id, "v": value}, "p")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(pair=OF_TWO_KINDS)
@example(pair=(1, True))
@example(pair=(0, False))
@example(pair=("1", 1))
@example(pair=("1", True))
def test_values_of_different_kinds_are_never_one_value(pair):
    first, second = pair
    rules = _rules(KIND[type(first)], KIND[type(second)])
    bind, use, own = _event("e0", "Bind", first), _event("e1", "Use", second), _event("e2", "Own", first)

    assert validate_event_schema(bind, rules) == []
    assert [e.code for e in validate_event_schema(_event("e3", "Bind", second), rules)] == ["KindMismatch"]

    index = LedgerIndex(rules, [bind])
    assert [v.code for v in check_integrity(use, index)] == ["UnboundInParameter"]
    assert check_integrity(own, index) == []

    one, other = (("v", first),), (("v", second),)
    assert bindings_sort_key(one) != bindings_sort_key(other)
    assert canonical_serialize(bind) != canonical_serialize(_event("e0", "Bind", second))

    def dumped(bindings) -> str:
        instance = NormInstance("N", bindings, NormState.ACTIVE, Position(1, 0))
        return json.dumps(instance_to_json(instance))

    assert dumped(one) != dumped(other)
