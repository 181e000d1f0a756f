"""Symbolic boolean conditions.

Used for branch conditions in the program IR (``if (myid .gt. 0)``) and
for the guards of communication mappings in the static task graph
(e.g. "process ``p`` sends to ``p-1`` provided ``p >= 1``").
"""

from __future__ import annotations

import operator
from collections.abc import Mapping

from .expr import Expr, ExprLike, Number, as_expr

__all__ = [
    "BoolExpr",
    "BoolConst",
    "Cmp",
    "And",
    "Or",
    "Not",
    "TRUE",
    "FALSE",
    "Lt",
    "Le",
    "Gt",
    "Ge",
    "Eq",
    "Ne",
    "as_bool_expr",
]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class BoolExpr:
    """Base class of symbolic boolean expressions."""

    __slots__ = ("_hash", "_compiled")

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, BoolExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def evaluate(self, env: Mapping[str, Number]) -> bool:
        raise NotImplementedError

    def to_python(self, name) -> str:
        """The Python expression this condition evaluates to (see ``Expr.to_python``)."""
        raise NotImplementedError

    # one compiler and one pickling for both kinds of node: the cached
    # closure over to_python() text, rebuilt instead of pickled
    compile = Expr.compile
    __getstate__ = Expr.__getstate__
    __setstate__ = Expr.__setstate__

    def subs(self, mapping) -> "BoolExpr":
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        raise NotImplementedError

    def __and__(self, other):
        return And.make(self, other)

    def __or__(self, other):
        return Or.make(self, other)

    def __invert__(self):
        return Not.make(self)

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class BoolConst(BoolExpr):
    """Literal true/false."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("BoolConst is immutable")

    def _key(self):
        return ("bconst", self.value)

    def evaluate(self, env):
        return self.value

    def to_python(self, name):
        return "True" if self.value else "False"

    def subs(self, mapping):
        return self

    def free_vars(self):
        return frozenset()

    def __str__(self):
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Cmp(BoolExpr):
    """Comparison between two arithmetic expressions."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in _OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Cmp is immutable")

    @classmethod
    def make(cls, op: str, a: ExprLike, b: ExprLike) -> BoolExpr:
        a, b = as_expr(a), as_expr(b)
        if a.is_constant() and b.is_constant():
            return BoolConst(_OPS[op](a.constant_value(), b.constant_value()))
        return cls(op, a, b)

    def _key(self):
        return ("cmp", self.op, self.a._key(), self.b._key())

    def evaluate(self, env):
        return _OPS[self.op](self.a.evaluate(env), self.b.evaluate(env))

    def to_python(self, name):
        return f"({self.a.to_python(name)} {self.op} {self.b.to_python(name)})"

    def subs(self, mapping):
        return Cmp.make(self.op, self.a.subs(mapping), self.b.subs(mapping))

    def free_vars(self):
        return self.a.free_vars() | self.b.free_vars()

    def __str__(self):
        return f"{self.a} {self.op} {self.b}"


class _Junction(BoolExpr):
    """Shared machinery for And/Or."""

    __slots__ = ("args",)
    #: value that short-circuits the junction
    DOMINATOR = False
    SYMBOL = "?"

    def __init__(self, args):
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def make(cls, *args) -> BoolExpr:
        flat: list[BoolExpr] = []
        stack = list(reversed(args))
        while stack:
            a = stack.pop()
            if not isinstance(a, BoolExpr):
                raise TypeError(f"expected BoolExpr, got {a!r}")
            if isinstance(a, cls):
                stack.extend(reversed(a.args))
            elif isinstance(a, BoolConst):
                if a.value == cls.DOMINATOR:
                    return BoolConst(cls.DOMINATOR)
                # identity element: drop
            else:
                flat.append(a)
        if not flat:
            return BoolConst(not cls.DOMINATOR)
        if len(flat) == 1:
            return flat[0]
        return cls(flat)

    def _key(self):
        return (type(self).__name__,) + tuple(a._key() for a in self.args)

    def subs(self, mapping):
        return type(self).make(*(a.subs(mapping) for a in self.args))

    def free_vars(self):
        return frozenset().union(*(a.free_vars() for a in self.args))

    def to_python(self, name):
        return "(" + f" {self.SYMBOL} ".join(a.to_python(name) for a in self.args) + ")"

    def __str__(self):
        return f" {self.SYMBOL} ".join(
            f"({a})" if isinstance(a, _Junction) else str(a) for a in self.args
        )


class And(_Junction):
    """Logical conjunction."""

    __slots__ = ()
    DOMINATOR = False
    SYMBOL = "and"

    def evaluate(self, env):
        return all(a.evaluate(env) for a in self.args)


class Or(_Junction):
    """Logical disjunction."""

    __slots__ = ()
    DOMINATOR = True
    SYMBOL = "or"

    def evaluate(self, env):
        return any(a.evaluate(env) for a in self.args)


class Not(BoolExpr):
    """Logical negation."""

    __slots__ = ("arg",)

    _NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}

    def __init__(self, arg: BoolExpr):
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Not is immutable")

    @classmethod
    def make(cls, arg: BoolExpr) -> BoolExpr:
        if isinstance(arg, BoolConst):
            return BoolConst(not arg.value)
        if isinstance(arg, Not):
            return arg.arg
        if isinstance(arg, Cmp):
            return Cmp(cls._NEGATED[arg.op], arg.a, arg.b)
        return cls(arg)

    def _key(self):
        return ("not", self.arg._key())

    def evaluate(self, env):
        return not self.arg.evaluate(env)

    def to_python(self, name):
        return f"(not {self.arg.to_python(name)})"

    def subs(self, mapping):
        return Not.make(self.arg.subs(mapping))

    def free_vars(self):
        return self.arg.free_vars()

    def __str__(self):
        return f"not ({self.arg})"


def Lt(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a < b``."""
    return Cmp.make("<", a, b)


def Le(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a <= b``."""
    return Cmp.make("<=", a, b)


def Gt(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a > b``."""
    return Cmp.make(">", a, b)


def Ge(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a >= b``."""
    return Cmp.make(">=", a, b)


def Eq(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a == b``."""
    return Cmp.make("==", a, b)


def Ne(a: ExprLike, b: ExprLike) -> BoolExpr:
    """``a != b``."""
    return Cmp.make("!=", a, b)


def as_bool_expr(value) -> BoolExpr:
    """Coerce a Python bool or BoolExpr into a :class:`BoolExpr`."""
    if isinstance(value, BoolExpr):
        return value
    if isinstance(value, bool):
        return BoolConst(value)
    raise TypeError(f"cannot convert {value!r} to a boolean expression")
