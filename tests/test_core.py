"""Unit tests for the core value types."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from haiproto import (
    ActionDef,
    Arg,
    BaseType,
    Binding,
    GroupType,
    ListType,
    Message,
    Modifier,
    OpKind,
    Operation,
    PrimitiveKind,
    PrimitiveSpec,
    Role,
    TAGS,
    action_scope,
    intersect,
    parse_type,
    print_type,
    type_compatible,
)
from haiproto.core import interned

IN_RAW = BaseType(Role.INPUT, ("raw_data",))
IN_RAW_FV = BaseType(Role.INPUT, ("raw_data", "fvector"))
IN_FV = BaseType(Role.INPUT, ("fvector",))
IN_ANY = BaseType(Role.INPUT)
OUT_LABEL = BaseType(Role.OUTPUT, ("label",))


def test_tags_vocabulary():
    assert TAGS == {"xai", "hitl", "hi", "control", "query"}


def test_base_type_str_forms():
    assert str(IN_ANY) == "input"
    assert str(IN_RAW) == "input.raw_data"
    assert str(IN_RAW_FV) == "input.raw_data|fvector"
    assert str(ListType(OUT_LABEL)) == "[output.label]"
    group = GroupType((("S", BaseType(Role.INPUT, ("state",))), ("A", OUT_LABEL)))
    assert str(group) == "[S: input.state, A: output.label]"


def test_base_type_rejects_duplicate_subtypes():
    with pytest.raises(ValueError):
        BaseType(Role.INPUT, ("raw_data", "raw_data"))


def test_intersect_wildcard_absorbs_either_side():
    assert intersect(IN_ANY, IN_RAW) == IN_RAW
    assert intersect(IN_RAW, IN_ANY) == IN_RAW
    assert intersect(IN_ANY, IN_ANY) == IN_ANY


def test_intersect_subtype_sets():
    assert intersect(IN_RAW_FV, IN_FV) == IN_FV
    assert intersect(IN_RAW_FV, IN_RAW) == IN_RAW
    assert intersect(IN_RAW, IN_FV) is None
    # The surviving subtypes keep the first operand's order.
    both = intersect(IN_RAW_FV, BaseType(Role.INPUT, ("fvector", "raw_data")))
    assert both == IN_RAW_FV


def test_intersect_role_mismatch():
    assert intersect(IN_RAW, BaseType(Role.OUTPUT, ("raw_data",))) is None
    assert not type_compatible(IN_ANY, BaseType(Role.OUTPUT))


def test_intersect_lists_and_kind_mismatch():
    assert intersect(ListType(IN_RAW_FV), ListType(IN_FV)) == ListType(IN_FV)
    assert intersect(ListType(IN_RAW), ListType(BaseType(Role.OUTPUT))) is None
    assert intersect(ListType(IN_RAW), IN_RAW) is None
    assert intersect(IN_RAW, ListType(IN_RAW)) is None


def test_intersect_groups_pointwise_first_names_win():
    a = GroupType((("X", IN_RAW_FV), ("Y", OUT_LABEL)))
    b = GroupType((("P", IN_RAW), ("Q", OUT_LABEL)))
    merged = intersect(a, b)
    assert isinstance(merged, GroupType)
    assert merged.members == (("X", IN_RAW), ("Y", OUT_LABEL))
    short = GroupType((("X", IN_RAW),))
    assert intersect(a, short) is None
    clash = GroupType((("P", BaseType(Role.OUTPUT)), ("Q", OUT_LABEL)))
    assert intersect(a, clash) is None
    assert intersect(a, IN_RAW) is None


_base_types = st.builds(
    BaseType,
    st.sampled_from(list(Role)),
    st.lists(
        st.sampled_from(["raw_data", "fvector", "label", "eval", "XAI"]),
        unique=True,
        max_size=3,
    ).map(tuple),
)
_types = st.one_of(_base_types, st.builds(ListType, _base_types))


@given(_types, _types)
def test_compatibility_is_symmetric(a, b):
    assert type_compatible(a, b) == type_compatible(b, a)


@given(_types)
def test_intersect_is_idempotent(a):
    assert intersect(a, a) == a


_groups = st.lists(_types, min_size=2, max_size=3).map(
    lambda types: GroupType(tuple(zip("ABC", types)))
)


@given(st.one_of(_types, _groups))
def test_a_printed_type_parses_back_to_one_interned_object(t):
    parsed = parse_type(print_type(t))
    assert parsed == t and hash(parsed) == hash(t)
    assert parse_type(print_type(t)) is parsed


@given(st.one_of(_types, _groups), st.one_of(_types, _groups))
def test_intersect_of_interned_types_is_interned(a, b):
    a, b = parse_type(print_type(a)), parse_type(print_type(b))
    common = intersect(a, b)
    assert common is None or common is parse_type(print_type(common))
    assert intersect(a, a) is a


def test_a_hand_built_type_equals_and_hashes_as_the_interned_one():
    kept = interned(BaseType, Role.INPUT, ("raw_data",))
    assert kept is parse_type("input.raw_data") is interned(BaseType, Role.INPUT, ("raw_data",))
    assert IN_RAW is not kept and IN_RAW == kept and hash(IN_RAW) == hash(kept)
    assert {IN_RAW: "found"}[kept] == "found"
    assert ListType(IN_RAW) == interned(ListType, kept)
    assert hash(ListType(IN_RAW)) == hash(interned(ListType, kept))
    group = GroupType((("X", IN_RAW), ("Y", ListType(OUT_LABEL))))
    assert group == parse_type(str(group)) and hash(group) == hash(parse_type(str(group)))


def test_a_pickled_type_hashes_as_its_equal_in_a_process_with_another_seed(tmp_path):
    group = parse_type("[X: input.raw_data|fvector, Y: [output.label]]")
    assert {group: "found"}[group] == "found"  # its hash is kept before pickling
    (tmp_path / "type.pickle").write_bytes(pickle.dumps(group))
    script = (
        "import pickle, sys; from haiproto import parse_type; "
        "kept = pickle.loads(open(sys.argv[1], 'rb').read()); "
        "print({parse_type(str(kept)): 'found'}.get(kept))"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        found = subprocess.run([sys.executable, "-c", script, str(tmp_path / "type.pickle")],
                               env=env, capture_output=True, text=True, check=True)
        assert found.stdout == "found\n"


def test_every_type_in_the_packaged_catalog_is_one_object_per_value(catalog):
    types = []
    for action in catalog.actions.values():
        for arg in action.primitive.args():
            types += [arg.type, *(typ for _, typ in arg.variables())]
    for name in [*catalog.patterns, *catalog.scenarios]:
        flow = catalog.flow(name)
        for step in flow.steps:
            types += [typ for _, typ in step.slots]
        types += [typ for pairs in flow.needed for _, typ in pairs]
    needed = {typ for name in [*catalog.patterns, *catalog.scenarios]
              for pairs in catalog.flow(name).needed for _, typ in pairs}
    types += [typ.element for typ in types if isinstance(typ, ListType)]
    kept: dict = {}
    assert [typ for typ in types if kept.setdefault(typ, typ) is not typ] == []
    assert len(kept) < len(types) / 10
    # a needed type read back from a trace is the flow's own object
    assert needed and [typ for typ in needed if parse_type(print_type(typ)) is not typ] == []


def _action(**overrides) -> ActionDef:
    base = dict(
        name="annotate",
        params=("X", "Y"),
        primitive=PrimitiveSpec(
            PrimitiveKind.PROVIDE,
            Arg("Y", OUT_LABEL),
            (Arg("X", IN_RAW_FV),),
        ),
        operations=(Operation(OpKind.MAP, ("X", "Y")),),
    )
    base.update(overrides)
    return ActionDef(**base)


def test_action_scope_orders_head_first_and_flattens_groups():
    action = ActionDef(
        name="show",
        params=("S", "A", "B"),
        primitive=PrimitiveSpec(
            PrimitiveKind.PROVIDE,
            Arg("B", OUT_LABEL),
            (Arg(None, GroupType((("S", IN_RAW), ("A", OUT_LABEL)))),),
        ),
    )
    assert [var for var, _ in action_scope(action)] == ["B", "S", "A"]


def test_action_scope_rejects_duplicates_and_param_mismatch():
    dup = _action(
        primitive=PrimitiveSpec(
            PrimitiveKind.PROVIDE, Arg("X", OUT_LABEL), (Arg("X", IN_RAW),)
        )
    )
    with pytest.raises(ValueError, match="duplicate variable"):
        action_scope(dup)
    mismatched = _action(params=("X", "Z"))
    with pytest.raises(ValueError, match="do not match"):
        action_scope(mismatched)
    dup_params = _action(params=("X", "X"))
    with pytest.raises(ValueError, match="duplicate parameter"):
        action_scope(dup_params)


def test_message_sorts_modifiers_by_key():
    message = Message(
        name="M1",
        sender="user",
        receiver="model",
        action="annotate",
        args=("X", "Y"),
        modifiers=(Modifier("Y", "SelfReport"), Modifier("X", "WalkStand")),
    )
    assert [m.key for m in message.modifiers] == ["X", "Y"]


def test_modifier_rejects_unknown_style():
    with pytest.raises(ValueError):
        Modifier("k", "v", "fancy")


def test_binding_narrows_and_refuses_incompatible():
    binding = Binding()
    assert binding.narrow("X", IN_RAW_FV) == IN_RAW_FV
    assert binding.narrow("X", IN_RAW) == IN_RAW
    assert binding.narrow("X", IN_FV) is None
    # A failed narrowing leaves the previous type in place.
    assert binding.types["X"] == IN_RAW
