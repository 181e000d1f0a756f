"""Tests for Expr.compile / BoolExpr.compile: the symbolic fast path.

AM-mode runs evaluate condensed scaling functions per delayed task;
``compile()`` lowers an expression tree to one Python closure.  The
contract: the closure computes *exactly* what ``evaluate`` computes —
same values, same errors — and is cached, composable, and rebuilt
transparently after pickling.  The compiled kernel runs the same
``to_python`` text over ``v_<name>`` locals, and must agree too.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.lower import _mangle
from repro.symbolic import (
    And,
    CeilDiv,
    Cmp,
    Cond,
    Const,
    Div,
    Eq,
    FloorDiv,
    Ge,
    Index,
    Lt,
    Max,
    Min,
    Mod,
    Not,
    Or,
    Sum,
    UnboundVariableError,
    Var,
    ceil_div,
)

VARS = ("N", "P", "b", "myid")
#: the summation index: also bound in env, so a Sum shadows it
INDEX = "k"
ARRAY = "cs"
ARRAY_LEN = 8


@st.composite
def envs(draw):
    env = {name: draw(st.integers(min_value=1, max_value=1000)) for name in VARS}
    env[INDEX] = draw(st.integers(min_value=-5, max_value=5))
    env[ARRAY] = np.array(
        draw(st.lists(st.integers(-20, 20), min_size=ARRAY_LEN, max_size=ARRAY_LEN)), dtype=float
    )
    return env


def conds(children):
    """Conditions over *children*: Cmp, And, Or and Not."""
    cmp = st.builds(Cmp, st.sampled_from(("<", "<=", ">", ">=", "==", "!=")), children, children)
    pairs = st.tuples(cmp, cmp)
    return st.one_of(
        cmp,
        pairs.map(lambda ab: And.make(*ab)),
        pairs.map(lambda ab: Or.make(*ab)),
        pairs.map(lambda ab: Not.make(Or.make(*ab))),
    )


def exprs(max_leaves=8):
    """Every node kind: arithmetic, the division family, Sum, Cond and Index."""
    leaf = st.one_of(
        st.integers(min_value=-50, max_value=50).map(Const),
        st.sampled_from((*VARS, INDEX)).map(Var),
    )

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            pairs.map(lambda ab: ab[0] + ab[1]),
            pairs.map(lambda ab: ab[0] - ab[1]),
            pairs.map(lambda ab: ab[0] * ab[1]),
            pairs.map(lambda ab: Min.make(*ab)),
            pairs.map(lambda ab: Max.make(*ab)),
            # the constructors, not make(): a constant divisor may be 0
            *(st.builds(op, children, children) for op in (Div, FloorDiv, CeilDiv, Mod)),
            # at most six terms (hi is capped at lo + 5), each reading the index
            st.tuples(st.integers(-3, 3), children, children).map(
                lambda t: Sum.make(INDEX, t[0], Min.make(t[1], t[0] + 5), t[2] + Var(INDEX))
            ),
            st.builds(Cond, conds(children), children, children),
            children.map(lambda i: Index(ARRAY, Mod(i, Const(ARRAY_LEN)))),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


def _outcome(fn, env):
    """What *fn* returns for *env*, or the type of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return ("value", fn(env))
    except (ArithmeticError, ValueError) as exc:
        return ("raises", type(exc))


def _same(x, y):
    if x[0] == "value" and y[0] == "value":
        a, b = x[1], y[1]
        return a == b or (math.isnan(a) and math.isnan(b))
    return x == y


def _kernel_fn(e):
    """*e*'s kernel text as the body of a function of ``v_<name>`` locals."""
    params = ", ".join(_mangle(n) for n in (*VARS, INDEX, ARRAY))
    ns = {"_fd": FloorDiv._apply, "_cd": CeilDiv._apply}
    exec(f"def kernel({params}):\n    return {e.to_python(_mangle)}", ns)
    return lambda env: ns["kernel"](*(env[n] for n in (*VARS, INDEX, ARRAY)))


N, P, b = Var("N"), Var("P"), Var("b")


class TestExprCompile:
    @given(exprs(), envs())
    @settings(max_examples=300)
    def test_compiled_matches_evaluate(self, e, env):
        # compile(), evaluate() and the kernel's text agree on every node kind
        expected = _outcome(e.evaluate, env)
        assert _same(_outcome(e.compile(), env), expected)
        assert _same(_outcome(_kernel_fn(e), env), expected)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
    def test_non_finite_constants_compile(self, value):
        # repr(inf) is not Python source: the text must not read it as a name
        e = Const(value) + N
        env = {name: 1 for name in (*VARS, INDEX)} | {ARRAY: np.zeros(ARRAY_LEN)}
        expected = _outcome(e.evaluate, env)
        assert _same(_outcome(e.compile(), env), expected)
        assert _same(_outcome(_kernel_fn(e), env), expected)

    def test_division_family_matches_evaluate(self):
        env = {"N": 17, "P": 5}
        for e in (N / P, FloorDiv.make(N, P), ceil_div(N, P), Mod.make(N, P)):
            assert e.compile()(env) == e.evaluate(env)

    def test_closure_is_cached(self):
        e = N * P + Const(3)
        assert e.compile() is e.compile()

    def test_missing_binding_raises_same_error(self):
        e = N * P + b
        with pytest.raises(UnboundVariableError) as via_eval:
            e.evaluate({"N": 4})
        with pytest.raises(UnboundVariableError) as via_compiled:
            e.compile()({"N": 4})
        assert str(via_compiled.value) == str(via_eval.value)

    def test_pickle_roundtrip_recompiles(self):
        e = Max.make(N, P) + ceil_div(N, Const(4))
        e.compile()  # populate the caches that must NOT be pickled
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e
        env = {"N": 9, "P": 2}
        assert clone.compile()(env) == e.evaluate(env)


class TestBoolExprCompile:
    CASES = [
        Lt(N, P),
        Ge(N * Const(2), P + b),
        Eq(Mod.make(N, P), Const(0)),
        And.make(Lt(N, P), Lt(P, b)),
        And.make(Lt(N, P), Lt(P, b), Lt(b, Const(100))),
        Or.make(Ge(N, P), Ge(P, b)),
        Or.make(Ge(N, P), Ge(P, b), Eq(N, b)),
        Not.make(And.make(Lt(N, P), Ge(b, Const(3)))),
        # 4-wide junctions exercise the general all()/any() fallback
        And.make(Lt(N, Const(900)), Lt(P, Const(900)), Lt(b, Const(900)),
                 Ge(N + P, Const(2))),
        Or.make(Eq(N, Const(-1)), Eq(P, Const(-1)), Eq(b, Const(-1)),
                Ge(N, Const(1))),
    ]

    @given(envs())
    @settings(max_examples=100)
    def test_compiled_matches_evaluate(self, env):
        for c in self.CASES:
            assert c.compile()(env) == c.evaluate(env)

    @given(conds(exprs(max_leaves=4)), envs())
    @settings(max_examples=200)
    def test_drawn_conditions_match_evaluate(self, c, env):
        expected = _outcome(c.evaluate, env)
        for fn in (c.compile(), _kernel_fn(c)):
            got = _outcome(fn, env)
            assert got[0] == expected[0]
            assert (bool(got[1]) == expected[1]) if got[0] == "value" else got == expected

    def test_closure_is_cached(self):
        c = And.make(Lt(N, P), Ge(b, Const(1)))
        assert c.compile() is c.compile()

    def test_missing_binding_raises_same_error(self):
        c = And.make(Lt(N, P), Ge(b, Const(1)))
        with pytest.raises(UnboundVariableError) as via_eval:
            c.evaluate({"N": 1, "P": 2})
        with pytest.raises(UnboundVariableError) as via_compiled:
            c.compile()({"N": 1, "P": 2})
        assert str(via_compiled.value) == str(via_eval.value)

    def test_junction_shortcircuit_matches_evaluate(self):
        # `and` must not evaluate past the first false operand — the
        # unbound right-hand side is unreachable in both implementations
        c = And.make(Lt(N, Const(0)), Lt(Var("missing"), Const(1)))
        env = {"N": 5}
        assert c.evaluate(env) is False
        assert c.compile()(env) is False

    def test_pickle_roundtrip_recompiles(self):
        c = Or.make(Lt(N, P), Not.make(Eq(b, Const(7))))
        c.compile()
        clone = pickle.loads(pickle.dumps(c))
        assert clone == c
        env = {"N": 3, "P": 9, "b": 7}
        assert clone.compile()(env) == c.evaluate(env)
