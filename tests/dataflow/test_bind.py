"""Differential tests: the bound (closure-lowered) data path ≡ the oracle.

``Expr.bind``, ``StreamingOperator.bind`` and ``BlockingOperator.bind_key``
are what the MapReduce runtime executes; ``evaluate``, ``process`` and
``reduce_key`` walk the tree and stay the semantic oracle.  Hypothesis
generates expression trees over a schema with plain, positional and
``alias::name`` fields, nulls and a GROUP bag, and checks that both
forms return the same value or raise the same exception type.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Record
from repro.dataflow import expressions as ex
from repro.dataflow import interpreter
from repro.dataflow.operators import (
    DistinctOp,
    FilterOp,
    ForeachOp,
    GroupOp,
    JoinOp,
    LimitOp,
    OrderOp,
    Projection,
    SortKey,
    UnionOp,
    VerifyOp,
)
from repro.dataflow.schema import BAG, CHARARRAY, DOUBLE, INT, Field, Schema

INNER = Schema.of(("v", INT), ("w", INT))
SCHEMA = Schema(
    [
        Field("a", INT),
        Field("b", INT),
        Field("s", CHARARRAY),
        Field("L::x", INT),
        Field("R::x", INT),
        Field("L::y", DOUBLE),
        Field("bag", BAG, INNER),
    ]
)

#: Resolvable refs, plus ones that fail: ambiguous ``x``, a missing
#: name and an out-of-range position.
REFS = ["a", "b", "s", "$0", "$3", "$6", "L::x", "R::x", "y", "L::y", "x", "nope", "$9"]

ints = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
floats = st.one_of(
    st.none(), st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)
)
strings = st.one_of(st.none(), st.sampled_from(["", "ab", "zz"]))
bags = st.one_of(
    st.none(),
    st.lists(st.builds(lambda v, w: Record((v, w)), ints, ints), max_size=4).map(tuple),
)
records = st.builds(
    lambda *fields: Record(fields), ints, ints, strings, ints, ints, floats, bags
)

literals = st.builds(
    ex.Literal,
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-5, max_value=5),
        st.sampled_from([0.0, 0.5, -2.25]),
        st.sampled_from(["", "ab"]),
    ),
)
field_refs = st.builds(ex.FieldRef, st.sampled_from(REFS))
bag_projects = st.builds(
    ex.BagProject,
    st.sampled_from([ex.FieldRef("bag"), ex.FieldRef("$6"), ex.FieldRef("a")]),
    st.sampled_from(["v", "w", "$1", "nope"]),
)
BINARY_OPS = ["==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "and", "or", "**"]


def _compound(children):
    return st.one_of(
        st.builds(ex.BinOp, st.sampled_from(BINARY_OPS), children, children),
        st.builds(ex.UnaryOp, st.sampled_from(["not", "neg", "bogus"]), children),
        st.builds(ex.IsNull, children, st.booleans()),
        st.builds(
            ex.FuncCall,
            st.sampled_from(sorted(ex.FUNCTIONS)),
            st.lists(st.one_of(children, bag_projects), min_size=1, max_size=2).map(tuple),
        ),
    )


exprs = st.recursive(
    st.one_of(literals, field_refs, bag_projects), _compound, max_leaves=6
)

_BAG_V = ex.BagProject(ex.FieldRef("bag"), "v")
WELL_TYPED_ARGS = {
    "COUNT": (ex.FieldRef("bag"),),
    "SUM": (_BAG_V,),
    "AVG": (_BAG_V,),
    "MIN": (_BAG_V,),
    "MAX": (ex.BagProject(ex.FieldRef("$6"), "w"),),
    "TRUNC": (ex.FieldRef("L::y"), ex.Literal(1)),
    "ROUND": (ex.FieldRef("y"),),
    "FLOOR": (ex.FieldRef("L::y"),),
    "ABS": (ex.FieldRef("a"),),
    "CONCAT": (ex.FieldRef("s"), ex.FieldRef("b"), ex.Literal("-")),
    "SIZE": (ex.FieldRef("bag"),),
}


def outcome(fn, *args):
    """``("ok", repr(value))`` or ``("raise", exception type)``."""
    try:
        return ("ok", repr(fn(*args)))
    except Exception as error:  # the exception type is the outcome
        return ("raise", type(error))


def bound_outcome(expr, schema, record):
    return outcome(lambda: expr.bind(schema)(record))


class TestExpressions:
    @given(exprs, records)
    @settings(max_examples=400, deadline=None)
    def test_bound_expression_equals_evaluate(self, expr, record):
        assert bound_outcome(expr, SCHEMA, record) == outcome(
            expr.evaluate, record, SCHEMA
        )

    @pytest.mark.parametrize("name", sorted(ex.FUNCTIONS))
    @given(record=records)
    @settings(max_examples=50, deadline=None)
    def test_every_function_on_well_typed_args(self, name, record):
        # Random trees mostly hand functions ill-typed arguments; this
        # feeds each one arguments of the types it expects.
        expr = ex.FuncCall(name, WELL_TYPED_ARGS[name])
        assert bound_outcome(expr, SCHEMA, record) == outcome(
            expr.evaluate, record, SCHEMA
        )

    @pytest.mark.parametrize(
        "expr,expected",
        [
            # The right side would raise TypeError ("ab" < 1) if evaluated.
            (ex.and_(ex.lit(False), ex.lt(ex.field("s"), ex.lit(1))), False),
            (ex.or_(ex.lit(True), ex.lt(ex.field("s"), ex.lit(1))), True),
        ],
    )
    def test_short_circuit_hides_right_hand_type_error(self, expr, expected):
        record = Record((1, 2, "ab", 0, 0, 0.0, ()))
        assert expr.evaluate(record, SCHEMA) is expected
        assert expr.bind(SCHEMA)(record) is expected

    def test_right_hand_type_error_raises_when_not_short_circuited(self):
        expr = ex.and_(ex.lit(True), ex.lt(ex.field("s"), ex.lit(1)))
        record = Record((1, 2, "ab", 0, 0, 0.0, ()))
        with pytest.raises(TypeError):
            expr.evaluate(record, SCHEMA)
        with pytest.raises(TypeError):
            expr.bind(SCHEMA)(record)

    def test_unresolvable_reference_fails_per_record_not_at_bind(self):
        bound = ex.FieldRef("nope").bind(SCHEMA)  # must not raise here
        assert ForeachOp([Projection(ex.FieldRef("nope"))]).bind(SCHEMA)([]) == []
        assert outcome(bound, Record((1,) * 7)) == outcome(
            ex.FieldRef("nope").evaluate, Record((1,) * 7), SCHEMA
        )


record_lists = st.lists(records, max_size=6)


def _batch_outcome(op, schema, batch):
    def oracle():
        out = []
        for record in batch:
            out.extend(op.process(record, schema))
        return out

    return outcome(op.bind(schema), batch), outcome(oracle)


class TestStreamingOperators:
    @given(exprs, record_lists)
    @settings(max_examples=200, deadline=None)
    def test_filter(self, predicate, batch):
        bound, oracle = _batch_outcome(FilterOp(predicate), SCHEMA, batch)
        assert bound == oracle

    @given(st.lists(exprs, min_size=1, max_size=3), record_lists)
    @settings(max_examples=200, deadline=None)
    def test_foreach(self, projected, batch):
        op = ForeachOp([Projection(expr) for expr in projected])
        bound, oracle = _batch_outcome(op, SCHEMA, batch)
        assert bound == oracle

    @pytest.mark.parametrize("op", [VerifyOp("vp0"), UnionOp()], ids=["verify", "union"])
    @given(batch=record_lists)
    @settings(max_examples=25, deadline=None)
    def test_identity_operators(self, op, batch):
        bound, oracle = _batch_outcome(op, SCHEMA, batch)
        assert bound == oracle


def _assert_keys_agree(op, input_index, schemas, batch):
    key_of = op.bind_key(input_index, schemas)
    for record in batch:
        assert outcome(key_of, record) == outcome(
            op.reduce_key, record, input_index, schemas
        )


class TestBlockingKeys:
    @given(st.lists(exprs, min_size=1, max_size=3), record_lists)
    @settings(max_examples=200, deadline=None)
    def test_group_single_and_multi_key(self, keys, batch):
        _assert_keys_agree(GroupOp(keys), 0, [SCHEMA], batch)

    @given(st.lists(exprs, min_size=1, max_size=2), exprs, exprs, record_lists)
    @settings(max_examples=150, deadline=None)
    def test_join_both_sides(self, left_keys, right_a, right_b, batch):
        right_keys = [right_a, right_b][: len(left_keys)]
        op = JoinOp(left_keys, right_keys, input_aliases=("l", "r"))
        # The right side resolves the same refs against another layout.
        schemas = [SCHEMA, Schema(tuple(reversed(SCHEMA.fields)))]
        _assert_keys_agree(op, 0, schemas, batch)
        _assert_keys_agree(op, 1, schemas, batch)

    @pytest.mark.parametrize(
        "op",
        [DistinctOp(), OrderOp([SortKey("a"), SortKey("b", False)]), LimitOp(3)],
        ids=["distinct", "order", "limit"],
    )
    @given(batch=record_lists)
    @settings(max_examples=25, deadline=None)
    def test_whole_record_and_global_keys(self, op, batch):
        _assert_keys_agree(op, 0, [SCHEMA], batch)


def test_interpreter_stays_on_the_tree_walking_oracle():
    source = inspect.getsource(interpreter)
    assert ".bind(" not in source and ".bind_key(" not in source
    assert ".process(" in source and ".reduce_key(" in source
