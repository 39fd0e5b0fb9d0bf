"""Tests for the expression language."""

import pytest

from repro.common.errors import SchemaError
from repro.common.records import Record
from repro.dataflow import expressions as ex
from repro.dataflow.schema import BAG, DOUBLE, INT, Field, Schema

SCHEMA = Schema.of(("a", INT), ("b", INT), ("s", "chararray"))


def ev(expr, fields=(3, 4, "hi"), schema=SCHEMA):
    return expr.evaluate(Record(fields), schema)


class TestBasics:
    def test_literal(self):
        assert ev(ex.lit(42)) == 42

    def test_field_ref(self):
        assert ev(ex.field("b")) == 4

    def test_positional_ref(self):
        assert ev(ex.field("$2")) == "hi"

    def test_references_collected(self):
        expr = ex.and_(ex.gt(ex.field("a"), ex.lit(1)), ex.eq(ex.field("b"), ex.lit(4)))
        assert expr.references() == {"a", "b"}


class TestArithmetic:
    @pytest.mark.parametrize(
        "op,expected", [("+", 7), ("-", -1), ("*", 12), ("%", 3)]
    )
    def test_binops(self, op, expected):
        assert ev(ex.BinOp(op, ex.field("a"), ex.field("b"))) == expected

    def test_division_is_float(self):
        assert ev(ex.BinOp("/", ex.field("b"), ex.field("a"))) == pytest.approx(4 / 3)

    @pytest.mark.parametrize("op", ["/", "%"])
    @pytest.mark.parametrize("zero", [0, 0.0], ids=["int", "float"])
    def test_division_by_zero_is_null(self, op, zero):
        # Pig semantics: x / 0 and x % 0 yield null instead of failing.
        expr = ex.BinOp(op, ex.field("a"), ex.lit(zero))
        record = Record((7, 0, ""))
        assert expr.evaluate(record, SCHEMA) is None
        assert expr.bind(SCHEMA)(record) is None

    def test_null_propagates(self):
        assert ex.BinOp("+", ex.field("a"), ex.lit(None)).evaluate(
            Record((1, 2, "")), SCHEMA
        ) is None

    def test_negation(self):
        assert ev(ex.UnaryOp("neg", ex.field("a"))) == -3

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            ev(ex.BinOp("**", ex.lit(1), ex.lit(2)))


class TestComparisons:
    def test_comparison_operators(self):
        assert ev(ex.gt(ex.field("b"), ex.field("a"))) is True
        assert ev(ex.lt(ex.field("b"), ex.field("a"))) is False
        assert ev(ex.eq(ex.field("a"), ex.lit(3))) is True
        assert ev(ex.neq(ex.field("a"), ex.lit(3))) is False

    def test_comparison_with_null_is_false(self):
        assert ex.gt(ex.field("a"), ex.lit(1)).evaluate(
            Record((None, 0, "")), SCHEMA
        ) is False

    def test_boolean_connectives(self):
        t, f = ex.lit(True), ex.lit(False)
        assert ev(ex.and_(t, t)) and not ev(ex.and_(t, f))
        assert ev(ex.or_(f, t)) and not ev(ex.or_(f, f))

    def test_not(self):
        assert ev(ex.UnaryOp("not", ex.lit(False))) is True

    def test_is_null(self):
        assert ex.IsNull(ex.field("a")).evaluate(Record((None, 0, "")), SCHEMA)
        assert ev(ex.not_null(ex.field("a"))) is True


class TestAggregates:
    BAG_SCHEMA = Schema(
        [
            Field("group", INT),
            Field("vals", BAG, Schema.of(("k", INT), ("v", DOUBLE))),
        ]
    )

    def record(self, *pairs):
        return Record((1, tuple(Record(p) for p in pairs)))

    def agg(self, fn, *pairs, project="v"):
        expr = ex.call(fn, ex.BagProject(ex.field("vals"), project))
        return expr.evaluate(self.record(*pairs), self.BAG_SCHEMA)

    def test_count(self):
        expr = ex.count(ex.field("vals"))
        assert expr.evaluate(self.record((1, 2.0), (3, 4.0)), self.BAG_SCHEMA) == 2

    def test_count_empty_bag(self):
        assert ex.count(ex.field("vals")).evaluate(Record((1, ())), self.BAG_SCHEMA) == 0

    def test_sum(self):
        assert self.agg("SUM", (1, 2.0), (3, 4.0)) == 6.0

    def test_avg_is_sum_then_divide(self):
        assert self.agg("AVG", (1, 1.0), (3, 2.0), (5, 6.0)) == 3.0

    def test_min_max(self):
        assert self.agg("MIN", (1, 5.0), (2, -1.0)) == -1.0
        assert self.agg("MAX", (1, 5.0), (2, -1.0)) == 5.0

    def test_aggregates_skip_nulls(self):
        assert self.agg("SUM", (1, 2.0), (2, None)) == 2.0

    def test_sum_of_empty_is_null(self):
        assert self.agg("SUM") is None

    def test_bag_project_extracts_field(self):
        expr = ex.BagProject(ex.field("vals"), "k")
        assert expr.evaluate(self.record((1, 2.0), (3, 4.0)), self.BAG_SCHEMA) == (1, 3)

    def test_bag_project_unknown_field(self):
        expr = ex.BagProject(ex.field("vals"), "ghost")
        with pytest.raises(SchemaError):
            expr.evaluate(self.record((1, 2.0)), self.BAG_SCHEMA)

    def test_aggregate_over_multifield_bag_requires_projection(self):
        expr = ex.call("SUM", ex.field("vals"))
        with pytest.raises(SchemaError):
            expr.evaluate(self.record((1, 2.0)), self.BAG_SCHEMA)


class TestScalarFunctions:
    def test_trunc(self):
        assert ev(ex.call("TRUNC", ex.lit(3.14159), ex.lit(2))) == 3.14

    def test_trunc_to_integer(self):
        assert ev(ex.call("TRUNC", ex.lit(3.9))) == 3.0

    def test_trunc_null(self):
        assert ev(ex.call("TRUNC", ex.lit(None))) is None

    def test_round_floor_abs(self):
        assert ev(ex.call("ROUND", ex.lit(2.6))) == 3
        assert ev(ex.call("FLOOR", ex.lit(2.6))) == 2.0
        assert ev(ex.call("ABS", ex.lit(-4))) == 4

    def test_concat(self):
        assert ev(ex.call("CONCAT", ex.lit("a"), ex.lit("b"))) == "ab"
        assert ev(ex.call("CONCAT", ex.lit("a"), ex.lit(None))) is None

    def test_size(self):
        assert ev(ex.call("SIZE", ex.field("s"))) == 2
        assert ev(ex.call("SIZE", ex.lit(None))) == 0

    def test_unknown_function_rejected(self):
        with pytest.raises(SchemaError):
            ex.call("FROBNICATE", ex.lit(1))

    def test_is_aggregate_flag(self):
        assert ex.count(ex.field("s")).is_aggregate
        assert not ex.call("TRUNC", ex.lit(1.0)).is_aggregate


class TestOutputTypes:
    def test_comparison_is_boolean(self):
        assert ex.gt(ex.field("a"), ex.lit(1)).output_type(SCHEMA) == "boolean"

    def test_division_is_double(self):
        assert ex.BinOp("/", ex.field("a"), ex.field("b")).output_type(SCHEMA) == "double"

    def test_output_names(self):
        assert ex.field("A::user").output_name() == "user"
        assert ex.count(ex.field("b")).output_name() == "count_b"
