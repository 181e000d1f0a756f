"""JSON (de)serialization of IR programs: the regression-corpus format.

A minimized divergence is only useful if it can be *committed*: this
module round-trips the generator's IR subset (every statement kind
except Python-kernel-bearing ``ArrayAssign``/``CompBlock`` kernels)
through a stable JSON schema, so divergent programs shrink into small
reviewable files under ``repro/apps/regressions/`` that the test suite
auto-discovers.

The schema is versioned (``"format": 1``) and strict: unknown node
kinds, missing fields and malformed expressions all raise
:class:`CorpusError` with the offending path, never a bare traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..ir.nodes import (
    AllocStmt,
    ArrayDecl,
    Assign,
    CollectiveStmt,
    CompBlock,
    DelayStmt,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    ReadParams,
    RecvStmt,
    SendStmt,
    StartTimer,
    Stmt,
    StopTimer,
    WaitAllStmt,
)
from ..symbolic import (
    Add,
    And,
    BoolConst,
    BoolExpr,
    CeilDiv,
    Cmp,
    Const,
    Div,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Var,
)
from ..util.atomic_io import atomic_write_text

__all__ = [
    "CorpusError",
    "FORMAT_VERSION",
    "expr_to_json",
    "expr_from_json",
    "program_to_json",
    "program_from_json",
    "RegressionCase",
    "save_case",
    "load_case",
    "discover_corpus",
]

FORMAT_VERSION = 1


class CorpusError(ValueError):
    """A corpus file or case is malformed / not serializable."""


# -- expressions ---------------------------------------------------------------

_NARY = {"add": Add, "mul": Mul, "min": Min, "max": Max}
_BINARY = {"div": Div, "floordiv": FloorDiv, "ceildiv": CeilDiv, "mod": Mod}
_JUNCTION = {"and": And, "or": Or}


def expr_to_json(e: Expr | BoolExpr):
    """Serialize an arithmetic or boolean expression tree."""
    if isinstance(e, Const):
        return e.value  # compact: bare numbers are constants
    if isinstance(e, Var):
        return {"k": "var", "name": e.name}
    for key, cls in _NARY.items():
        # Max subclasses Min: test exact type, most-derived first
        if type(e) is cls:
            return {"k": key, "args": [expr_to_json(a) for a in e.args]}
    for key, cls in _BINARY.items():
        if type(e) is cls:
            return {"k": key, "a": expr_to_json(e.a), "b": expr_to_json(e.b)}
    if isinstance(e, BoolConst):
        return {"k": "bool", "v": e.value}
    if isinstance(e, Cmp):
        return {"k": "cmp", "op": e.op, "a": expr_to_json(e.a), "b": expr_to_json(e.b)}
    for key, cls in _JUNCTION.items():
        if type(e) is cls:
            return {"k": key, "args": [expr_to_json(a) for a in e.args]}
    if isinstance(e, Not):
        return {"k": "not", "arg": expr_to_json(e.arg)}
    raise CorpusError(f"cannot serialize expression node {type(e).__name__}: {e}")


def expr_from_json(data) -> Expr | BoolExpr:
    """Rebuild an expression tree; inverse of :func:`expr_to_json`."""
    if isinstance(data, bool):
        raise CorpusError("bare booleans are not valid expression JSON")
    if isinstance(data, (int, float)):
        return Const(data)
    if not isinstance(data, dict) or "k" not in data:
        raise CorpusError(f"malformed expression node: {data!r}")
    k = data["k"]
    try:
        if k == "var":
            return Var(data["name"])
        if k in _NARY:
            return _NARY[k].make(*(expr_from_json(a) for a in data["args"]))
        if k in _BINARY:
            return _BINARY[k].make(expr_from_json(data["a"]), expr_from_json(data["b"]))
        if k == "bool":
            return BoolConst(data["v"])
        if k == "cmp":
            return Cmp.make(data["op"], expr_from_json(data["a"]), expr_from_json(data["b"]))
        if k in _JUNCTION:
            return _JUNCTION[k].make(*(expr_from_json(a) for a in data["args"]))
        if k == "not":
            return Not.make(expr_from_json(data["arg"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed {k!r} expression node: {exc}") from None
    raise CorpusError(f"unknown expression kind {k!r}")


# -- statements ----------------------------------------------------------------


def _stmt_to_json(s: Stmt) -> dict:
    if isinstance(s, Assign):
        return {"k": "assign", "var": s.var, "expr": expr_to_json(s.expr)}
    if isinstance(s, CompBlock):
        if s.kernel is not None:
            raise CorpusError(f"CompBlock {s.name!r} has a Python kernel; not serializable")
        return {
            "k": "compute", "name": s.name, "work": expr_to_json(s.work),
            "ops_per_iter": s.ops_per_iter, "arrays": list(s.arrays),
            "reads": sorted(s.reads_), "writes": sorted(s.writes_),
        }
    if isinstance(s, For):
        return {
            "k": "for", "var": s.var, "lo": expr_to_json(s.lo),
            "hi": expr_to_json(s.hi), "body": [_stmt_to_json(c) for c in s.body],
        }
    if isinstance(s, If):
        return {
            "k": "if", "cond": expr_to_json(s.cond),
            "then": [_stmt_to_json(c) for c in s.then],
            "orelse": [_stmt_to_json(c) for c in s.orelse],
            "data_dependent": s.data_dependent,
        }
    if isinstance(s, SendStmt):
        return {"k": "send", "dest": expr_to_json(s.dest),
                "nbytes": expr_to_json(s.nbytes), "tag": s.tag, "array": s.array}
    if isinstance(s, RecvStmt):
        return {"k": "recv", "source": expr_to_json(s.source),
                "nbytes": expr_to_json(s.nbytes), "tag": s.tag, "array": s.array}
    if isinstance(s, IsendStmt):
        return {"k": "isend", "dest": expr_to_json(s.dest),
                "nbytes": expr_to_json(s.nbytes), "tag": s.tag, "array": s.array,
                "handle": s.handle_var}
    if isinstance(s, IrecvStmt):
        return {"k": "irecv", "source": expr_to_json(s.source),
                "nbytes": expr_to_json(s.nbytes), "tag": s.tag, "array": s.array,
                "handle": s.handle_var}
    if isinstance(s, WaitAllStmt):
        return {"k": "waitall", "handles": list(s.handle_vars)}
    if isinstance(s, CollectiveStmt):
        return {
            "k": "collective", "op": s.op, "nbytes": expr_to_json(s.nbytes),
            "root": expr_to_json(s.root), "array": s.array,
            "contrib": None if s.contrib is None else expr_to_json(s.contrib),
            "result_var": s.result_var, "reduce_kind": s.reduce_kind,
        }
    if isinstance(s, DelayStmt):
        return {"k": "delay", "amount": expr_to_json(s.amount), "task": s.task}
    if isinstance(s, ReadParams):
        return {"k": "read_params", "names": list(s.names)}
    if isinstance(s, StartTimer):
        return {"k": "start_timer", "task": s.task}
    if isinstance(s, StopTimer):
        return {"k": "stop_timer", "task": s.task}
    if isinstance(s, AllocStmt):
        return {"k": "alloc", "name": s.name, "nbytes": expr_to_json(s.nbytes)}
    raise CorpusError(f"cannot serialize statement kind {type(s).__name__}")


def _stmt_from_json(data) -> Stmt:
    if not isinstance(data, dict) or "k" not in data:
        raise CorpusError(f"malformed statement node: {data!r}")
    k = data["k"]
    try:
        if k == "assign":
            return Assign(data["var"], expr_from_json(data["expr"]))
        if k == "compute":
            return CompBlock(
                data["name"], expr_from_json(data["work"]),
                ops_per_iter=data.get("ops_per_iter", 1.0),
                arrays=tuple(data.get("arrays", ())),
                reads_=frozenset(data.get("reads", ())),
                writes_=frozenset(data.get("writes", ())),
            )
        if k == "for":
            return For(data["var"], expr_from_json(data["lo"]), expr_from_json(data["hi"]),
                       [_stmt_from_json(c) for c in data["body"]])
        if k == "if":
            return If(expr_from_json(data["cond"]),
                      [_stmt_from_json(c) for c in data["then"]],
                      [_stmt_from_json(c) for c in data.get("orelse", [])],
                      data_dependent=data.get("data_dependent", False))
        if k == "send":
            return SendStmt(expr_from_json(data["dest"]), expr_from_json(data["nbytes"]),
                            tag=data.get("tag", 0), array=data.get("array"))
        if k == "recv":
            return RecvStmt(expr_from_json(data["source"]), expr_from_json(data["nbytes"]),
                            tag=data.get("tag", 0), array=data.get("array"))
        if k == "isend":
            return IsendStmt(expr_from_json(data["dest"]), expr_from_json(data["nbytes"]),
                             tag=data.get("tag", 0), array=data.get("array"),
                             handle_var=data.get("handle", "req"))
        if k == "irecv":
            return IrecvStmt(expr_from_json(data["source"]), expr_from_json(data["nbytes"]),
                             tag=data.get("tag", 0), array=data.get("array"),
                             handle_var=data.get("handle", "req"))
        if k == "waitall":
            return WaitAllStmt(tuple(data["handles"]))
        if k == "collective":
            contrib = data.get("contrib")
            return CollectiveStmt(
                data["op"], expr_from_json(data.get("nbytes", 0)),
                expr_from_json(data.get("root", 0)), array=data.get("array"),
                contrib=None if contrib is None else expr_from_json(contrib),
                result_var=data.get("result_var"),
                reduce_kind=data.get("reduce_kind", "sum"),
            )
        if k == "delay":
            return DelayStmt(expr_from_json(data["amount"]), data["task"])
        if k == "read_params":
            return ReadParams(tuple(data["names"]))
        if k == "start_timer":
            return StartTimer(data["task"])
        if k == "stop_timer":
            return StopTimer(data["task"])
        if k == "alloc":
            return AllocStmt(data["name"], expr_from_json(data["nbytes"]))
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed {k!r} statement node: {exc}") from None
    raise CorpusError(f"unknown statement kind {k!r}")


# -- programs ------------------------------------------------------------------


def program_to_json(prog: Program) -> dict:
    """Serialize a program (name, params, arrays, body, JSON-safe meta)."""
    meta = {}
    for key, value in prog.meta.items():
        try:
            json.dumps(value)
        except TypeError:
            raise CorpusError(f"program meta {key!r} is not JSON-serializable") from None
        meta[key] = value
    return {
        "name": prog.name,
        "params": list(prog.params),
        "arrays": [
            {
                "name": d.name, "size": expr_to_json(d.size),
                "itemsize": d.itemsize, "materialize": d.materialize,
            }
            for d in prog.arrays.values()
        ],
        "body": [_stmt_to_json(s) for s in prog.body],
        "meta": meta,
    }


def program_from_json(data: dict) -> Program:
    """Rebuild a numbered, validated program from its JSON form."""
    if not isinstance(data, dict):
        raise CorpusError(f"program must be a JSON object, got {type(data).__name__}")
    try:
        arrays = {}
        for d in data.get("arrays", ()):
            decl = ArrayDecl(
                d["name"], expr_from_json(d["size"]),
                itemsize=d.get("itemsize", 8), materialize=d.get("materialize", False),
            )
            arrays[decl.name] = decl
        prog = Program(
            name=data["name"],
            params=tuple(data.get("params", ())),
            arrays=arrays,
            body=[_stmt_from_json(s) for s in data["body"]],
            meta=dict(data.get("meta", {})),
        )
    except CorpusError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusError(f"malformed program object: {exc}") from None
    try:
        prog.validate()
    except ValueError as exc:
        raise CorpusError(f"deserialized program fails validation: {exc}") from None
    return prog


# -- regression cases ----------------------------------------------------------


@dataclass(frozen=True)
class RegressionCase:
    """One committed corpus entry: a program plus how to run and judge it.

    ``expect`` mirrors :class:`repro.gen.generator.GeneratedProgram`:
    ``"ok"`` cases must satisfy the differential invariants; ``"deadlock"``
    / ``"mismatch"`` cases must be classified as such by the kernel.
    """

    name: str
    program: Program
    expect: str = "ok"
    nprocs: int = 4
    inputs: dict = field(default_factory=dict)
    seed: int = 0
    pattern: str = ""
    reason: str = ""
    path: Path | None = None

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": "regression",
            "name": self.name,
            "expect": self.expect,
            "nprocs": self.nprocs,
            "inputs": dict(self.inputs),
            "seed": self.seed,
            "pattern": self.pattern,
            "reason": self.reason,
            "program": program_to_json(self.program),
        }


_EXPECTS = ("ok", "deadlock", "mismatch")


def save_case(case: RegressionCase, path: str | Path) -> None:
    """Atomically write a regression case as pretty-printed JSON."""
    text = json.dumps(case.to_dict(), indent=2, sort_keys=True)
    atomic_write_text(Path(path), text + "\n")


def load_case(path: str | Path) -> RegressionCase:
    """Load one corpus file; raises :class:`CorpusError` on any defect."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CorpusError(f"{path}: corpus case must be a JSON object")
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise CorpusError(
            f"{path}: unsupported corpus format {version!r} (expected {FORMAT_VERSION})"
        )
    expect = data.get("expect", "ok")
    if expect not in _EXPECTS:
        raise CorpusError(f"{path}: unknown expect {expect!r} (one of {_EXPECTS})")
    nprocs = data.get("nprocs", 4)
    if not isinstance(nprocs, int) or nprocs < 1:
        raise CorpusError(f"{path}: nprocs must be a positive integer, got {nprocs!r}")
    try:
        program = program_from_json(data["program"])
    except KeyError:
        raise CorpusError(f"{path}: missing 'program' object") from None
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None
    return RegressionCase(
        name=str(data.get("name", path.stem)),
        program=program,
        expect=expect,
        nprocs=nprocs,
        inputs=dict(data.get("inputs", {})),
        seed=int(data.get("seed", 0)),
        pattern=str(data.get("pattern", "")),
        reason=str(data.get("reason", "")),
        path=path,
    )


def discover_corpus(directory: str | Path) -> list[RegressionCase]:
    """Load every ``*.json`` case under *directory*, sorted by filename."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return [load_case(p) for p in sorted(directory.glob("*.json"))]
