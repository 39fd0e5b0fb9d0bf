"""Expression AST for FILTER predicates and FOREACH projections.

Expressions evaluate against one :class:`~repro.common.records.Record`
under a :class:`~repro.dataflow.schema.Schema`.  Aggregate functions
(COUNT, SUM, AVG, MIN, MAX) consume *bags* — the canonically-sorted
tuples of records produced by GROUP — so a FOREACH over grouped data is
just ordinary expression evaluation.

AVG is implemented as sum-then-divide, not a moving average: the paper
(§5.4) notes that moving averages break replica determinism in the last
bits of floating-point precision.  ``TRUNC(x, k)`` is provided for the
paper's other workaround (truncating decimals before arithmetic).

Every node has two forms.  ``evaluate`` walks the tree per record and
is the semantic oracle (the local interpreter uses it).  ``bind(schema)``
lowers the tree once into a closure ``record -> value`` with field
references already resolved to indices; the MapReduce runtime calls it
once per task and then applies the closure to every record.  Both forms
must agree on every record, including nulls and errors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import SchemaError
from repro.common.records import Record
from repro.dataflow import schema as sc
from repro.dataflow.schema import Schema


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, record: Record, schema: Schema) -> Any:
        raise NotImplementedError

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        """Lower this tree to a closure equivalent to ``evaluate`` under
        ``schema``.  The default walks the tree; nodes override it."""
        return lambda record: self.evaluate(record, schema)

    def output_type(self, schema: Schema) -> str:
        """Static result type under ``schema`` (loose; ANY when unknown)."""
        return sc.ANY

    def output_name(self) -> str:
        """Suggested field name when this expression is projected."""
        return "expr"

    def references(self) -> set[str]:
        """Field names this expression reads (for validation)."""
        return set()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def evaluate(self, record: Record, schema: Schema) -> Any:
        return self.value

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        value = self.value
        return lambda record: value

    def output_type(self, schema: Schema) -> str:
        if isinstance(self.value, bool):
            return sc.BOOLEAN
        if isinstance(self.value, int):
            return sc.LONG
        if isinstance(self.value, float):
            return sc.DOUBLE
        if isinstance(self.value, str):
            return sc.CHARARRAY
        return sc.ANY

    def output_name(self) -> str:
        return "literal"

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


@dataclass(frozen=True)
class FieldRef(Expr):
    """Reference to a field by name or ``$k`` position."""

    name: str

    def evaluate(self, record: Record, schema: Schema) -> Any:
        return record[schema.index_of(self.name)]

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        try:
            index = schema.index_of(self.name)
        except SchemaError:
            # Unresolvable: fail per record, exactly as ``evaluate`` does
            # (an empty input must still run cleanly).
            return super().bind(schema)
        return lambda record: record.fields[index]

    def output_type(self, schema: Schema) -> str:
        return schema.type_of(self.name)

    def output_name(self) -> str:
        return self.name.split("::")[-1].lstrip("$")

    def references(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"FieldRef({self.name})"


@dataclass(frozen=True)
class BagProject(Expr):
    """Project one field out of every record in a bag: ``B.temp``.

    Evaluates to a tuple of values, preserving the bag's canonical order.
    """

    bag: Expr
    field: str

    def evaluate(self, record: Record, schema: Schema) -> Any:
        bag_value = self.bag.evaluate(record, schema)
        if bag_value is None:
            return ()
        inner_schema = _bag_schema(self.bag, schema)
        index = inner_schema.index_of(self.field) if inner_schema else None
        out = []
        for item in bag_value:
            if index is not None:
                out.append(item[index])
            elif isinstance(item, Record) and len(item) == 1:
                out.append(item[0])
            else:
                raise SchemaError(
                    f"cannot resolve field {self.field!r} inside bag"
                )
        return tuple(out)

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        try:
            inner_schema = _bag_schema(self.bag, schema)
            index = inner_schema.index_of(self.field) if inner_schema else None
        except SchemaError:
            index = None
        if index is None:
            return super().bind(schema)
        bag = self.bag.bind(schema)

        def project(record: Record) -> Any:
            bag_value = bag(record)
            if bag_value is None:
                return ()
            return tuple([item[index] for item in bag_value])

        return project

    def output_type(self, schema: Schema) -> str:
        return sc.BAG

    def output_name(self) -> str:
        return self.field

    def references(self) -> set[str]:
        return self.bag.references()


def _bag_schema(bag_expr: Expr, schema: Schema) -> Schema | None:
    """Inner schema of a bag-typed field (attached by GROUP)."""
    if isinstance(bag_expr, FieldRef):
        index = schema.index_of(bag_expr.name)
        return schema.field(index).inner
    return None


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _null_on_zero_division(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """Pig semantics: ``x / 0`` and ``x % 0`` are null, not an error."""

    def guarded(left: Any, right: Any) -> Any:
        try:
            return fn(left, right)
        except ZeroDivisionError:
            return None

    return guarded


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _null_on_zero_division(operator.truediv),
    "%": _null_on_zero_division(operator.mod),
}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, record: Record, schema: Schema) -> Any:
        if self.op == "and":
            return bool(self.left.evaluate(record, schema)) and bool(
                self.right.evaluate(record, schema)
            )
        if self.op == "or":
            return bool(self.left.evaluate(record, schema)) or bool(
                self.right.evaluate(record, schema)
            )
        left = self.left.evaluate(record, schema)
        right = self.right.evaluate(record, schema)
        if self.op in _COMPARISONS:
            if left is None or right is None:
                return False
            return _COMPARISONS[self.op](left, right)
        if self.op in _ARITHMETIC:
            if left is None or right is None:
                return None
            return _ARITHMETIC[self.op](left, right)
        raise SchemaError(f"unknown operator: {self.op!r}")

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        if self.op == "and":
            return lambda record: bool(left(record)) and bool(right(record))
        if self.op == "or":
            return lambda record: bool(left(record)) or bool(right(record))
        if self.op not in _COMPARISONS and self.op not in _ARITHMETIC:
            return super().bind(schema)
        fn = _COMPARISONS.get(self.op) or _ARITHMETIC[self.op]
        # A null operand makes a comparison false and arithmetic null.
        if_null = False if self.op in _COMPARISONS else None

        def apply(record: Record) -> Any:
            a = left(record)
            b = right(record)
            if a is None or b is None:
                return if_null
            return fn(a, b)

        return apply

    def output_type(self, schema: Schema) -> str:
        if self.op in _COMPARISONS or self.op in ("and", "or"):
            return sc.BOOLEAN
        left = self.left.output_type(schema)
        right = self.right.output_type(schema)
        if sc.DOUBLE in (left, right) or sc.FLOAT in (left, right) or self.op == "/":
            return sc.DOUBLE
        if sc.is_numeric(left) and sc.is_numeric(right):
            return sc.LONG
        return sc.ANY

    def output_name(self) -> str:
        return "expr"

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # "not" | "neg"
    operand: Expr

    def evaluate(self, record: Record, schema: Schema) -> Any:
        value = self.operand.evaluate(record, schema)
        if self.op == "not":
            return not bool(value)
        if self.op == "neg":
            return None if value is None else -value
        raise SchemaError(f"unknown unary operator: {self.op!r}")

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        operand = self.operand.bind(schema)
        if self.op == "not":
            return lambda record: not operand(record)
        if self.op == "neg":

            def negate(record: Record) -> Any:
                value = operand(record)
                return None if value is None else -value

            return negate
        return super().bind(schema)

    def output_type(self, schema: Schema) -> str:
        if self.op == "not":
            return sc.BOOLEAN
        return self.operand.output_type(schema)

    def references(self) -> set[str]:
        return self.operand.references()


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS NULL`` / ``x IS NOT NULL`` (negate=True)."""

    operand: Expr
    negate: bool = False

    def evaluate(self, record: Record, schema: Schema) -> Any:
        is_null = self.operand.evaluate(record, schema) is None
        return not is_null if self.negate else is_null

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        operand = self.operand.bind(schema)
        if self.negate:
            return lambda record: operand(record) is not None
        return lambda record: operand(record) is None

    def output_type(self, schema: Schema) -> str:
        return sc.BOOLEAN

    def references(self) -> set[str]:
        return self.operand.references()


def _as_bag(value: Any) -> tuple:
    if value is None:
        return ()
    if isinstance(value, tuple):
        return value
    if isinstance(value, (list, frozenset)):
        return tuple(value)
    raise SchemaError(f"aggregate applied to non-bag value: {type(value).__name__}")


def _scalars(bag: tuple) -> list:
    """Unwrap 1-field records inside a bag to scalars; pass scalars through."""
    out = []
    for item in bag:
        if isinstance(item, Record):
            if len(item) != 1:
                raise SchemaError(
                    "aggregate over multi-field records; project a field first"
                )
            out.append(item[0])
        else:
            out.append(item)
    return out


def _agg_count(args: list[Any]) -> int:
    return len(_as_bag(args[0]))


def _agg_sum(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return sum(values) if values else None


def _agg_avg(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    if not values:
        return None
    # Sum-then-divide: deterministic across replicas (paper §5.4).
    return sum(values) / len(values)


def _agg_min(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return min(values) if values else None


def _agg_max(args: list[Any]) -> Any:
    values = [v for v in _scalars(_as_bag(args[0])) if v is not None]
    return max(values) if values else None


def _fn_trunc(args: list[Any]) -> Any:
    """TRUNC(x, k): truncate x to k decimal digits (paper §5.4 workaround)."""
    value = args[0]
    digits = args[1] if len(args) > 1 else 0
    if value is None:
        return None
    scale = 10 ** int(digits)
    return int(value * scale) / scale if digits else float(int(value))


def _fn_round(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else round(value)


def _fn_floor(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else float(int(value // 1))


def _fn_abs(args: list[Any]) -> Any:
    value = args[0]
    return None if value is None else abs(value)


def _fn_concat(args: list[Any]) -> Any:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _fn_size(args: list[Any]) -> Any:
    value = args[0]
    if value is None:
        return 0
    if isinstance(value, (tuple, list, frozenset, str)):
        return len(value)
    return 1


FUNCTIONS = {
    "COUNT": (_agg_count, sc.LONG, True),
    "SUM": (_agg_sum, sc.DOUBLE, True),
    "AVG": (_agg_avg, sc.DOUBLE, True),
    "MIN": (_agg_min, sc.ANY, True),
    "MAX": (_agg_max, sc.ANY, True),
    "TRUNC": (_fn_trunc, sc.DOUBLE, False),
    "ROUND": (_fn_round, sc.LONG, False),
    "FLOOR": (_fn_floor, sc.DOUBLE, False),
    "ABS": (_fn_abs, sc.ANY, False),
    "CONCAT": (_fn_concat, sc.CHARARRAY, False),
    "SIZE": (_fn_size, sc.LONG, False),
}


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.name.upper() not in FUNCTIONS:
            raise SchemaError(f"unknown function: {self.name!r}")

    def evaluate(self, record: Record, schema: Schema) -> Any:
        fn, _, _ = FUNCTIONS[self.name.upper()]
        values = [arg.evaluate(record, schema) for arg in self.args]
        return fn(values)

    def bind(self, schema: Schema) -> Callable[[Record], Any]:
        fn, _, _ = FUNCTIONS[self.name.upper()]
        args = [arg.bind(schema) for arg in self.args]
        return lambda record: fn([arg(record) for arg in args])

    def output_type(self, schema: Schema) -> str:
        _, type_tag, _ = FUNCTIONS[self.name.upper()]
        return type_tag

    def output_name(self) -> str:
        if self.args:
            return f"{self.name.lower()}_{self.args[0].output_name()}"
        return self.name.lower()

    def references(self) -> set[str]:
        refs: set[str] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    @property
    def is_aggregate(self) -> bool:
        return FUNCTIONS[self.name.upper()][2]


# ----------------------------------------------------------------------
# Convenience constructors (used by the builder API and tests)
# ----------------------------------------------------------------------

def field(name: str) -> FieldRef:
    return FieldRef(name)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expr, right: Expr) -> BinOp:
    return BinOp("==", left, right)


def neq(left: Expr, right: Expr) -> BinOp:
    return BinOp("!=", left, right)


def gt(left: Expr, right: Expr) -> BinOp:
    return BinOp(">", left, right)


def lt(left: Expr, right: Expr) -> BinOp:
    return BinOp("<", left, right)


def and_(left: Expr, right: Expr) -> BinOp:
    return BinOp("and", left, right)


def or_(left: Expr, right: Expr) -> BinOp:
    return BinOp("or", left, right)


def not_null(expr: Expr) -> IsNull:
    return IsNull(expr, negate=True)


def count(bag: Expr) -> FuncCall:
    return FuncCall("COUNT", (bag,))


def avg(bag: Expr) -> FuncCall:
    return FuncCall("AVG", (bag,))


def call(name: str, *args: Expr) -> FuncCall:
    return FuncCall(name, tuple(args))
