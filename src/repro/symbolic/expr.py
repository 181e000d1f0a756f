"""Symbolic integer/real expressions for scaling functions and loop bounds.

The static task graph (STG) of the paper is "a compact, symbolic
representation of the parallel structure of a program, independent of
specific program input values or the number of processors".  Everything
symbolic in this reproduction — per-task scaling functions, loop trip
counts, communication volumes, process-set bounds — is built from the
small expression language in this module.

Expressions are immutable and hashable; arithmetic operators build new
(lightly simplified) expressions, so model code reads naturally::

    N, P = Var("N"), Var("P")
    b = ceil_div(N, P)
    work = (N - 2) * (Min(N, b * (Var("myid") + 1)) - Max(2, b * Var("myid") + 1))

Evaluation is exact over Python ints when all leaves are ints, which the
compiler relies on for iteration counts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Union

Number = Union[int, float]
ExprLike = Union["Expr", int, float]

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Div",
    "FloorDiv",
    "CeilDiv",
    "Mod",
    "Min",
    "Max",
    "as_expr",
    "ceil_div",
    "floor_div",
    "UnboundVariableError",
    "ZERO",
    "ONE",
]


class UnboundVariableError(KeyError):
    """Raised when evaluating an expression with unbound free variables."""

    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(f"unbound variable(s): {', '.join(self.names)}")


def as_expr(value: ExprLike) -> "Expr":
    """Coerce a Python number or :class:`Expr` into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject to avoid confusion
        raise TypeError("booleans are not arithmetic expressions")
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot convert {value!r} to a symbolic expression")


class Expr:
    """Base class of all symbolic arithmetic expressions.

    Subclasses must implement :meth:`_key`, :meth:`evaluate`,
    :meth:`to_python`, :meth:`subs`, :meth:`free_vars` and ``__str__``.
    """

    __slots__ = ("_hash", "_compiled")

    # -- structural identity ------------------------------------------------
    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return NotImplemented
        return not eq

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    # -- core protocol -------------------------------------------------------
    def evaluate(self, env: Mapping[str, Number]) -> Number:
        """Evaluate under *env* mapping variable names to numbers."""
        raise NotImplementedError

    def compile(self):
        """Lower this expression to a plain Python closure, once.

        Returns a cached ``fn(env) -> Number`` whose result is always
        identical to :meth:`evaluate`, including
        :class:`UnboundVariableError` on missing bindings.  Repeated
        evaluation (per-rank scaling functions, AM ``delay()``
        arguments) pays the tree walk once at compile time instead of
        on every call.
        """
        try:
            return self._compiled
        except AttributeError:
            pass
        text = "lambda env: " + self.to_python(_env_read)
        raw = eval(text, dict(_HELPERS))  # noqa: PGH001 - controlled codegen

        def fn(env, _raw=raw, _tree=self.evaluate):
            try:
                return _raw(env)
            except KeyError:
                # missing binding: re-walk the tree so the error carries
                # the precise variable name(s), exactly as evaluate()
                return _tree(env)

        object.__setattr__(self, "_compiled", fn)
        return fn

    def to_python(self, name) -> str:
        """The Python expression this node evaluates to, as source text.

        ``name(var)`` renders a read of variable *var*; a :class:`Sum`
        binds its index as the local ``v_<var>``.  The text calls
        ``_fd``/``_cd`` for floor/ceiling division (:data:`_HELPERS`).
        :meth:`compile` reads variables from ``env`` and the compiled
        kernel (:mod:`repro.kernel.lower`) from ``v_<var>`` locals, so
        both run this one text.
        """
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Substitute variables by expressions, returning a new expression."""
        raise NotImplementedError

    def free_vars(self) -> frozenset:
        """The set of free variable names occurring in this expression."""
        raise NotImplementedError

    # -- arithmetic sugar ------------------------------------------------------
    def __add__(self, other):
        return Add.make(self, as_expr(other))

    def __radd__(self, other):
        return Add.make(as_expr(other), self)

    def __sub__(self, other):
        return Add.make(self, Mul.make(Const(-1), as_expr(other)))

    def __rsub__(self, other):
        return Add.make(as_expr(other), Mul.make(Const(-1), self))

    def __mul__(self, other):
        return Mul.make(self, as_expr(other))

    def __rmul__(self, other):
        return Mul.make(as_expr(other), self)

    def __truediv__(self, other):
        return Div.make(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div.make(as_expr(other), self)

    def __floordiv__(self, other):
        return FloorDiv.make(self, as_expr(other))

    def __rfloordiv__(self, other):
        return FloorDiv.make(as_expr(other), self)

    def __mod__(self, other):
        return Mod.make(self, as_expr(other))

    def __rmod__(self, other):
        return Mod.make(as_expr(other), self)

    def __neg__(self):
        return Mul.make(Const(-1), self)

    def __pos__(self):
        return self

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"

    # -- pickling -------------------------------------------------------------
    # Caches (_hash, _fvs, _compiled) are rebuilt on demand; the compiled
    # one holds an unpicklable closure, so state excludes them all.
    def __getstate__(self):
        state = {}
        for cls in type(self).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if name in ("_hash", "_fvs", "_compiled"):
                    continue
                try:
                    state[name] = getattr(self, name)
                except AttributeError:
                    pass
        return (None, state)

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    # -- helpers ---------------------------------------------------------------
    def is_constant(self) -> bool:
        return not self.free_vars()

    def constant_value(self) -> Number:
        """Value of a closed expression (no free variables)."""
        return self.evaluate({})


class Const(Expr):
    """A literal integer or float."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"Const requires int or float, got {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Const is immutable")

    def _key(self):
        return ("const", self.value, type(self.value).__name__)

    def evaluate(self, env):
        return self.value

    def to_python(self, name):
        v = self.value
        if isinstance(v, float) and not math.isfinite(v):
            return f"float({str(v)!r})"  # repr(inf) is not Python source
        return f"({v!r})"

    def subs(self, mapping):
        return self

    def free_vars(self):
        return frozenset()

    def __str__(self):
        return str(self.value)


ZERO = Const(0)
ONE = Const(1)


class Var(Expr):
    """A free variable (program input, loop index, rank, or ``w_i`` parameter)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise TypeError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Var is immutable")

    def _key(self):
        return ("var", self.name)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundVariableError([self.name]) from None

    def to_python(self, name):
        return name(self.name)

    def subs(self, mapping):
        if self.name in mapping:
            return as_expr(mapping[self.name])
        return self

    def free_vars(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


class _NAry(Expr):
    """Shared machinery for flattened n-ary operators (Add, Mul, Min, Max)."""

    __slots__ = ("args", "_fvs")

    #: identity element folded away at construction (None = no identity)
    IDENTITY: Number | None = None
    SYMBOL = "?"

    def __init__(self, args):
        args = tuple(args)
        if len(args) < 1:
            raise ValueError(f"{type(self).__name__} needs at least one argument")
        object.__setattr__(self, "args", args)

    def __setattr__(self, name, value):
        if name in ("_hash", "_fvs"):
            object.__setattr__(self, name, value)
            return
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return (type(self).__name__,) + tuple(a._key() for a in self.args)

    def free_vars(self):
        try:
            return self._fvs
        except AttributeError:
            fvs = frozenset().union(*(a.free_vars() for a in self.args))
            self._fvs = fvs
            return fvs

    @classmethod
    def _fold(cls, a: Number, b: Number) -> Number:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        """Smart constructor: flatten, fold constants, drop identities."""
        flat: list[Expr] = []
        const: Number | None = None
        stack = [as_expr(a) for a in reversed(args)]
        while stack:
            a = stack.pop()
            if isinstance(a, cls):
                stack.extend(reversed(a.args))
            elif isinstance(a, Const):
                const = a.value if const is None else cls._fold(const, a.value)
            else:
                flat.append(a)
        return cls._finish(flat, const)

    @classmethod
    def _finish(cls, flat: list[Expr], const: Number | None) -> Expr:
        if const is not None and const != cls.IDENTITY:
            flat = flat + [Const(const)]
        if not flat:
            return Const(cls.IDENTITY if cls.IDENTITY is not None else const)
        if len(flat) == 1:
            return flat[0]
        return cls(flat)

    def to_python(self, name):
        return "(" + f" {self.SYMBOL} ".join(a.to_python(name) for a in self.args) + ")"

    def subs(self, mapping):
        return type(self).make(*(a.subs(mapping) for a in self.args))


class Add(_NAry):
    """Sum of terms.  Construct with :meth:`Add.make` for simplification."""

    __slots__ = ()
    IDENTITY = 0
    SYMBOL = "+"

    @classmethod
    def _fold(cls, a, b):
        return a + b

    def evaluate(self, env):
        # no pre-check of bindings: Var.evaluate already raises a precise
        # UnboundVariableError, and this is the hottest evaluation path
        return sum(a.evaluate(env) for a in self.args)

    def __str__(self):
        parts = []
        for i, a in enumerate(self.args):
            s = str(a)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f"- {s[1:]}")
            else:
                parts.append(f"+ {s}")
        return " ".join(parts)


class Mul(_NAry):
    """Product of factors.  A leading ``Const(0)`` annihilates the product."""

    __slots__ = ()
    IDENTITY = 1
    SYMBOL = "*"

    @classmethod
    def _fold(cls, a, b):
        return a * b

    @classmethod
    def _finish(cls, flat, const):
        if const == 0:
            return ZERO
        return super()._finish(flat, const)

    def evaluate(self, env):
        out: Number = 1
        for a in self.args:
            out = out * a.evaluate(env)
        return out

    def __str__(self):
        def wrap(a):
            s = str(a)
            return f"({s})" if isinstance(a, Add) else s

        return "*".join(wrap(a) for a in self.args)


class Min(_NAry):
    """n-ary minimum."""

    __slots__ = ()
    IDENTITY = None
    SYMBOL = "min"

    @classmethod
    def _fold(cls, a, b):
        return min(a, b)

    @classmethod
    def _finish(cls, flat, const):
        # de-duplicate structurally-equal operands
        seen, uniq = set(), []
        for a in flat:
            if a not in seen:
                seen.add(a)
                uniq.append(a)
        if const is not None:
            uniq = uniq + [Const(const)]
        if not uniq:
            raise ValueError("empty min()")
        if len(uniq) == 1:
            return uniq[0]
        return cls(uniq)

    def evaluate(self, env):
        return min(a.evaluate(env) for a in self.args)

    def to_python(self, name):
        return f"{self.SYMBOL}(" + ", ".join(a.to_python(name) for a in self.args) + ")"

    def __str__(self):
        return f"min({', '.join(str(a) for a in self.args)})"


class Max(Min):
    """n-ary maximum (shares Min's de-duplicating constructor)."""

    __slots__ = ()
    SYMBOL = "max"

    @classmethod
    def _fold(cls, a, b):
        return max(a, b)

    def evaluate(self, env):
        return max(a.evaluate(env) for a in self.args)

    def __str__(self):
        return f"max({', '.join(str(a) for a in self.args)})"


class _Binary(Expr):
    """Shared machinery for binary operators."""

    __slots__ = ("a", "b", "_fvs")
    SYMBOL = "?"

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        if name in ("_hash", "_fvs"):
            object.__setattr__(self, name, value)
            return
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return (type(self).__name__, self.a._key(), self.b._key())

    def free_vars(self):
        try:
            return self._fvs
        except AttributeError:
            fvs = self.a.free_vars() | self.b.free_vars()
            self._fvs = fvs
            return fvs

    @classmethod
    def _apply(cls, a: Number, b: Number) -> Number:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def make(cls, a: ExprLike, b: ExprLike) -> Expr:
        a, b = as_expr(a), as_expr(b)
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(cls._apply(a.value, b.value))
        if isinstance(b, Const) and b.value == 1 and cls in (Div, FloorDiv, CeilDiv):
            return a
        return cls(a, b)

    def evaluate(self, env):
        return type(self)._apply(self.a.evaluate(env), self.b.evaluate(env))

    def to_python(self, name):
        return f"({self.a.to_python(name)} {self.SYMBOL} {self.b.to_python(name)})"

    def subs(self, mapping):
        return type(self).make(self.a.subs(mapping), self.b.subs(mapping))

    def __str__(self):
        def wrap(x):
            s = str(x)
            return f"({s})" if isinstance(x, (Add, Mul, _Binary)) else s

        return f"{wrap(self.a)} {self.SYMBOL} {wrap(self.b)}"


class Div(_Binary):
    """Exact (real) division — used in scaling functions and rates."""

    __slots__ = ()
    SYMBOL = "/"

    @classmethod
    def _apply(cls, a, b):
        return a / b


class FloorDiv(_Binary):
    """Floor division (Python ``//`` semantics, exact over ints)."""

    __slots__ = ()
    SYMBOL = "//"

    @classmethod
    def _apply(cls, a, b):
        if isinstance(a, int) and isinstance(b, int):
            return a // b
        return math.floor(a / b)

    def to_python(self, name):
        return f"_fd({self.a.to_python(name)}, {self.b.to_python(name)})"


class CeilDiv(_Binary):
    """Ceiling division — block sizes like ``b = ceil(N / P)``."""

    __slots__ = ()
    SYMBOL = "ceildiv"

    @classmethod
    def _apply(cls, a, b):
        if isinstance(a, int) and isinstance(b, int):
            return -((-a) // b)
        return math.ceil(a / b)

    def to_python(self, name):
        return f"_cd({self.a.to_python(name)}, {self.b.to_python(name)})"

    def __str__(self):
        return f"ceil({self.a} / {self.b})"


class Mod(_Binary):
    """Modulo (Python ``%`` semantics) — grid coordinates from ranks."""

    __slots__ = ()
    SYMBOL = "%"

    @classmethod
    def _apply(cls, a, b):
        return a % b


#: the functions :meth:`Expr.to_python` text calls (the kernel module
#: binds the same two names)
_HELPERS = {"_fd": FloorDiv._apply, "_cd": CeilDiv._apply}


def _env_read(var: str) -> str:
    """How :meth:`Expr.compile` text reads *var*: from its ``env`` argument."""
    return f"env[{var!r}]"


def ceil_div(a: ExprLike, b: ExprLike) -> Expr:
    """``ceil(a / b)`` as a symbolic expression."""
    return CeilDiv.make(a, b)


def floor_div(a: ExprLike, b: ExprLike) -> Expr:
    """``floor(a / b)`` as a symbolic expression."""
    return FloorDiv.make(a, b)
