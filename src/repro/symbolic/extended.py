"""Extended symbolic nodes used by the compiler's scaling functions.

Three constructs beyond plain arithmetic are needed to express the
scaling functions of condensed tasks (Sec. 3 of the paper):

* :class:`Index` — an array element reference.  "In the NAS benchmark
  SP, the grid sizes for each processor are computed and stored in an
  array, which is then used in most loop bounds. [...] We simply retain
  the executable symbolic scaling expressions, including references to
  such arrays, in the simplified code and evaluate them at execution
  time."  Evaluation environments may therefore bind names to sequences
  (NumPy arrays) as well as numbers.  A read is the element as a Python
  ``float``, so arithmetic over it, and every clock it feeds, stays in
  Python floats.

* :class:`Sum` — symbolic summation over a loop variable; the cost of a
  condensed loop nest whose body cost varies with the loop index.  When
  the body is index-independent the constructor collapses to the closed
  form ``(hi - lo + 1) * body``.

* :class:`Cond` — arithmetic if-then-else; the cost of a condensed
  branch whose condition involves only retained variables (``myid``
  tests and the like), and the probability-weighted cost of eliminated
  data-dependent branches.
"""

from __future__ import annotations

from .boolean import BoolExpr, as_bool_expr
from .expr import Expr, ExprLike, UnboundVariableError, as_expr

__all__ = ["Index", "Sum", "Cond"]


class Index(Expr):
    """Array element reference ``base[index]`` inside a symbolic expression."""

    __slots__ = ("base", "index")

    def __init__(self, base: str, index: Expr):
        if not isinstance(base, str) or not base:
            raise TypeError("array name must be a non-empty string")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Index is immutable")

    @classmethod
    def make(cls, base: str, index: ExprLike) -> "Index":
        return cls(base, as_expr(index))

    def _key(self):
        return ("index", self.base, self.index._key())

    def evaluate(self, env):
        try:
            arr = env[self.base]
        except KeyError:
            raise UnboundVariableError([self.base]) from None
        i = int(self.index.evaluate(env))
        return float(arr[i])

    def to_python(self, name):
        return f"float({name(self.base)}[int({self.index.to_python(name)})])"

    def subs(self, mapping):
        # the array itself cannot be substituted by an expression,
        # only re-indexed
        return Index(self.base, self.index.subs(mapping))

    def free_vars(self):
        return self.index.free_vars() | {self.base}

    def __str__(self):
        return f"{self.base}[{self.index}]"


class Sum(Expr):
    """Symbolic summation ``sum(body for var in lo..hi)`` (inclusive bounds)."""

    __slots__ = ("var", "lo", "hi", "body")

    def __init__(self, var: str, lo: Expr, hi: Expr, body: Expr):
        if not isinstance(var, str) or not var.isidentifier():
            # the index is bound as the Python local v_<var> (to_python)
            raise TypeError(f"summation index must be an identifier, got {var!r}")
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "body", body)

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Sum is immutable")

    @classmethod
    def make(cls, var: str, lo: ExprLike, hi: ExprLike, body: ExprLike) -> Expr:
        lo, hi, body = as_expr(lo), as_expr(hi), as_expr(body)
        if var not in body.free_vars():
            # index-independent body: closed form (trip count may still be
            # negative symbolically; Max with 0 guards the empty loop)
            from .expr import Max

            return Max.make(hi - lo + 1, 0) * body
        return cls(var, lo, hi, body)

    def _key(self):
        return ("sum", self.var, self.lo._key(), self.hi._key(), self.body._key())

    def evaluate(self, env):
        lo = int(self.lo.evaluate(env))
        hi = int(self.hi.evaluate(env))
        scope = dict(env)
        var, body = self.var, self.body.evaluate

        def term(i):
            scope[var] = i
            return body(scope)

        # the builtin sum, as to_python's text sums: one float order on
        # every Python (3.12's sum() compensates float rounding)
        return sum(map(term, range(lo, hi + 1)))

    def to_python(self, name):
        index = f"v_{self.var}"
        body = self.body.to_python(lambda v: index if v == self.var else name(v))
        lo, hi = self.lo.to_python(name), self.hi.to_python(name)
        return f"sum({body} for {index} in range(int({lo}), int({hi}) + 1))"

    def subs(self, mapping):
        # the bound variable is shadowed inside the body
        inner = {k: v for k, v in mapping.items() if k != self.var}
        return Sum.make(self.var, self.lo.subs(mapping), self.hi.subs(mapping), self.body.subs(inner))

    def free_vars(self):
        return self.lo.free_vars() | self.hi.free_vars() | (self.body.free_vars() - {self.var})

    def __str__(self):
        return f"sum({self.body} for {self.var} in {self.lo}..{self.hi})"


class Cond(Expr):
    """Arithmetic conditional: ``then if cond else orelse``."""

    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: BoolExpr, then: Expr, orelse: Expr):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "then", then)
        object.__setattr__(self, "orelse", orelse)

    def __setattr__(self, name, value):
        if name == "_hash":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Cond is immutable")

    @classmethod
    def make(cls, cond, then: ExprLike, orelse: ExprLike) -> Expr:
        cond = as_bool_expr(cond)
        then, orelse = as_expr(then), as_expr(orelse)
        from .boolean import BoolConst

        if isinstance(cond, BoolConst):
            return then if cond.value else orelse
        if then == orelse:
            return then
        return cls(cond, then, orelse)

    def _key(self):
        return ("cond", self.cond._key(), self.then._key(), self.orelse._key())

    def evaluate(self, env):
        if self.cond.evaluate(env):
            return self.then.evaluate(env)
        return self.orelse.evaluate(env)

    def to_python(self, name):
        return (
            f"(({self.then.to_python(name)}) if ({self.cond.to_python(name)}) "
            f"else ({self.orelse.to_python(name)}))"
        )

    def subs(self, mapping):
        return Cond.make(
            self.cond.subs(mapping), self.then.subs(mapping), self.orelse.subs(mapping)
        )

    def free_vars(self):
        return self.cond.free_vars() | self.then.free_vars() | self.orelse.free_vars()

    def __str__(self):
        return f"({self.then} if {self.cond} else {self.orelse})"
