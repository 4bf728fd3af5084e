"""Plan specialization: compile reaction plans to generated Python source.

A :class:`~repro.sim.plan.ReactionPlan` already schedules a component
into slot-indexed steps, but executing one is still a *chain of
closures* — one Python call frame per AST node per evaluation, plus
guarded helper calls for every status/value assignment.
:class:`SpecializedPlan` flattens the plan's entire initial sweep into
one generated Python function: straight-line status/value code per
equation (statuses in local variables, slots as integer literals,
builtin functions bound to module globals), synchronization constraints
inlined, and the topological order baked into the statement order.  The
source is compiled once per plan with :func:`compile`/``exec`` and kept
on the plan (``plan.source``) for inspection.

The emitter keeps the source compact, because a design pays
:func:`compile` on every new plan:

- **Folded statuses.** Every status local carries the set of statuses
  it can hold (a signal slot is never constant, a constant always is);
  each branch narrows that set, so tests that are decided statically
  vanish together with their dead arms, and nodes whose every arm
  yields the same status or value need no local at all.
- **Lazy value reads.** A signal's value is read as ``value[i]`` where
  it is used (the solver keeps a slot ``PENDING`` until it is present,
  and no value slot changes while an expression is evaluated), and a
  ``pre``/clock value renders as ``state[m]``/``True`` wherever its
  status is known to be present or constant.
- **Guarded helper calls.** A status assignment is one line, ``if
  status[i] != st: nq += SS(ctx, i, st, Tn)``: the per-plan helper
  raises the same ``clock contradiction`` message the closure plan
  raises, sets the slot and queues the steps of the interned requeue
  table ``Tn`` (the consumers at or before the current step, the
  in-sweep rule ``d <= k``).  A step that settles with its target
  present is one ``SP`` call, which sets the status and the value the
  same way.
- **One right branch per ``default``.** The "left absent" and "left
  unknown" arms share a single evaluation of the right branch, exactly
  as the closure evaluates it once on either path.

The fixpoint driver above the sweep — the residual worklist, oracle
handling and least-clock completion — is inherited unchanged from
:class:`~repro.sim.plan.ReactionPlan` (residual re-runs go through the
plan's closure steps; they are rare by construction), so a specialized
plan is *observationally identical* to the plan — and hence to the
reference interpreter — including every raised
:class:`~repro.errors.SimulationError` message.

Two escape hatches:

- any step whose generated body would exceed :data:`MAX_STEP_LINES`
  statements, or that embeds a constant with no source literal, falls
  back to calling its closure step from inside the sweep;
- setting ``REPRO_NO_SPECIALIZE=1`` in the environment disables
  specialization globally — the debugging switch documented in
  docs/performance.md.

Constructing a :class:`SpecializedPlan` records ``plan.codegen_plans``,
``plan.codegen_bytes`` (the length of the generated source) and the
``time.plan.codegen`` phase (source emission plus ``compile``) in
:data:`repro.perf.PERF`.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.lang.ast import (
    App,
    ClockOf,
    Component,
    Const,
    Default,
    Equation,
    Expr,
    Pre,
    SyncConstraint,
    Var,
    When,
)
from repro.lang.types import BUILTIN_FUNCTIONS
from repro.perf import PERF
from repro.sim.plan import ReactionPlan, _PENDING, _set_status

#: Per-step emitted-statement budget; steps past it keep their closure form.
MAX_STEP_LINES = 4000

_ST_NAME = "UPAC"
#: a signal slot is unknown, present or absent — never constant
_SIGNAL = frozenset((0, 1, 2))

#: status operand: an int literal or the name of a status local
Status = Union[int, str]


def specialization_enabled(flag: Optional[bool] = None) -> bool:
    """Whether specialization should be used.

    ``REPRO_NO_SPECIALIZE=1`` wins over everything (the debugging
    escape hatch); otherwise an explicit ``flag`` decides, and ``None``
    means "yes, specialize" (the default for the shared plan cache)."""
    if os.environ.get("REPRO_NO_SPECIALIZE", "") not in ("", "0"):
        return False
    return True if flag is None else bool(flag)


# -- runtime helpers called from the generated source -----------------------


def _requeue(ctx, deps: Tuple[int, ...]) -> int:
    """Queue the unsettled, unqueued steps of ``deps``; returns how many."""
    queued = ctx.queued
    settled = ctx.settled
    n = 0
    for d in deps:
        if not queued[d] and not settled[d]:
            queued[d] = 1
            n += 1
    return n


def _helpers(plan: ReactionPlan) -> Dict[str, Callable]:
    """The per-plan slot-assignment helpers.

    ``SS`` (set a status) and ``SP`` (settle a step whose target is
    present with a value) mirror :func:`repro.sim.plan._set_status` /
    ``_set_value`` message for message, but requeue statically known
    consumers instead of recording facts on the dirty list.  ``SS`` is
    only called when the slot differs from ``st``.  Outside the sweep,
    ``SD`` is ``_set_status`` itself (over ``NAMES``); ``DR`` drains the
    dirty list a fallback closure step left."""
    names = plan.names
    dependents = plan.dependents

    def set_status(ctx, i, st, deps):
        status = ctx.status
        cur = status[i]
        if cur:
            raise SimulationError(
                "clock contradiction on {!r}: {} vs {}".format(
                    names[i], _ST_NAME[cur], _ST_NAME[st]
                )
            )
        status[i] = st
        return _requeue(ctx, deps) if deps else 0

    def settle_present(ctx, k, i, v, deps):
        # step k settles: its target slot i is present with value v
        ctx.settled[k] = 1
        status = ctx.status
        cur = status[i]
        fresh = cur != 1
        if fresh:
            if cur:
                raise SimulationError(
                    "clock contradiction on {!r}: {} vs P".format(
                        names[i], _ST_NAME[cur]
                    )
                )
            status[i] = 1
        value = ctx.value
        cur = value[i]
        if cur is _PENDING:
            value[i] = v
            fresh = True
        elif cur != v:
            raise SimulationError(
                "value contradiction on {!r}: {!r} vs {!r}".format(
                    names[i], cur, v
                )
            )
        return _requeue(ctx, deps) if fresh and deps else 0

    def drain(ctx, k):
        # a fallback closure step recorded its facts on the dirty list:
        # apply the in-sweep requeue rule, as the base sweep does
        dirty = ctx.dirty
        queued = ctx.queued
        settled = ctx.settled
        n = 0
        while dirty:
            for d in dependents[dirty.pop()]:
                if d <= k and not queued[d] and not settled[d]:
                    queued[d] = 1
                    n += 1
        return n

    return {"SS": set_status, "SP": settle_present, "DR": drain,
            "SD": _set_status, "NAMES": names}


# -- the emitted statement tree ----------------------------------------------


class _Slot:
    """A statement filled in after its branch tree is merged (the
    assignments of one arm's outcome to the node's result locals)."""

    __slots__ = ("text",)

    def __init__(self) -> None:
        self.text: Optional[str] = None


class _If:
    """An if/elif/else chain: ``arms`` of ``(condition text, block)``;
    ``None`` marks the unconditional ``else``."""

    __slots__ = ("arms",)

    def __init__(self) -> None:
        self.arms: List[Tuple[Optional[str], list]] = []


def _live(block: list) -> list:
    """The items of ``block`` that render, unconditional chains opened."""
    out = []
    for x in block:
        kind = type(x)
        if kind is _If and x.arms[0][0] is None:
            out.extend(_live(x.arms[0][1]))
        elif kind is not _Slot or x.text:
            out.append(x)
    return out


def _render(block: list, depth: int, out: List[str]) -> None:
    ind = "    " * depth
    for item in block:
        kind = type(item)
        if kind is str:
            out.append(ind + item)
        elif kind is _Slot:
            if item.text:
                out.append(ind + item.text)
        else:
            _render_if(item, depth, out)


def _render_if(node: _If, depth: int, out: List[str]) -> None:
    """One chain.  An ``else`` holding only a chain becomes ``elif`` arms;
    conditions have no effects, so trailing arms with nothing to do go,
    and so does an arm doing just what the ``else`` after it does; a
    single simple statement shares its header's line."""
    arms = node.arms
    if arms[0][0] is None:
        _render(arms[0][1], depth, out)
        return
    flat: List[Tuple[Optional[str], list]] = []
    for cond, blk in arms:
        while cond is None:
            live = _live(blk)
            if len(live) != 1 or type(live[0]) is not _If:
                break
            inner = live[0].arms
            flat.extend(inner[:-1])
            cond, blk = inner[-1]
        flat.append((cond, blk))
    body: List[Tuple[Optional[str], List[str]]] = []
    for cond, blk in flat:
        lines: List[str] = []
        _render(blk, depth + 1, lines)
        body.append((cond, lines))
    while body:
        if not body[-1][1]:
            body.pop()
        elif len(body) > 1 and body[-1][0] is None and body[-2][1] == body[-1][1]:
            del body[-2]
        else:
            break
    if not body:
        return
    if body[0][0] is None:
        out.extend(line[4:] for line in body[0][1])
        return
    ind = "    " * depth
    kw = "if "
    for cond, lines in body:
        head = ind + ("else:" if cond is None else kw + cond + ":")
        kw = "elif "
        if not lines:
            out.append(head + " pass")
        elif len(lines) == 1 and not lines[0].lstrip().startswith(_COMPOUND):
            out.append(head + " " + lines[0].lstrip())
        else:
            out.append(head)
            out.extend(lines)


_COMPOUND = ("if ", "elif ", "else:")


# -- folded branch conditions ------------------------------------------------


class _Cond:
    """A branch condition that is not statically decided: its source text
    and the status facts it establishes on either side (status local ->
    statuses it can still hold).  Decided conditions are plain bools."""

    __slots__ = ("text", "op", "then", "orelse")

    def __init__(self, text: str, then=None, orelse=None, op=None):
        self.text = text
        self.op = op
        self.then: Dict[str, FrozenSet[int]] = then or {}
        self.orelse: Dict[str, FrozenSet[int]] = orelse or {}


Cond = Union[bool, _Cond]


def _meet(facts: List[Dict[str, FrozenSet[int]]]) -> Dict[str, FrozenSet[int]]:
    out: Dict[str, FrozenSet[int]] = {}
    for f in facts:
        for name, poss in f.items():
            out[name] = out[name] & poss if name in out else poss
    return out


def _combine(conds, op: str) -> Cond:
    stop = op == "or"  # the absorbing constant
    live = []
    for c in conds:
        if c is stop:
            return stop
        if c is not (not stop):
            live.append(c)
    if not live:
        return not stop
    if len(live) == 1:
        return live[0]
    text = " {} ".format(op).join(
        "({})".format(c.text) if c.op and c.op != op else c.text for c in live
    )
    if op == "or":
        return _Cond(text, orelse=_meet([c.orelse for c in live]), op=op)
    return _Cond(text, then=_meet([c.then for c in live]), op=op)


def _any(*conds) -> Cond:
    return _combine(conds, "or")


def _all(*conds) -> Cond:
    return _combine(conds, "and")


# -- value operands ----------------------------------------------------------


class _Val:
    """A value operand.

    ``kind`` is ``"ex"`` (fixed source text; ``pend`` is True when it is
    ``PENDING``, False when it never is, None when it may be),
    ``"call"`` (a builtin call, maybe guarded by a ternary, not yet bound
    to a local; ``pend`` as for ``"ex"``), or a lazy read
    whose rendering depends on what is known of its status local ``s``:
    ``"slot"`` (``value[i]``), ``"pre"`` (``state[m]``) and ``"clk"``
    (``True``)."""

    __slots__ = ("kind", "text", "s", "pend")

    def __init__(self, kind: str, text: str, s: Status = 0, pend=None):
        self.kind = kind
        self.text = text
        self.s = s
        self.pend = pend


_PEND = _Val("ex", "PENDING", pend=True)


def _literal(text: str):
    """The Python value of a literal value text, or None."""
    if text == "True":
        return True
    if text == "False":
        return False
    if text.lstrip("-").isdigit():
        return int(text)
    return None


class _Leaf:
    """One outcome of a branch tree: its statement slot, status (with
    the statuses it can be and the narrowed facts in force there) and
    rendered value."""

    __slots__ = ("slot", "s", "poss", "narrowed", "val", "text", "pend")

    def __init__(self, slot, s, poss, narrowed, val, text, pend):
        self.slot = slot
        self.s = s
        self.poss = poss
        self.narrowed = narrowed
        self.val = val
        self.text = text
        self.pend = pend


class _Gen:
    """Emits the specialized module source for one plan."""

    def __init__(self, plan: ReactionPlan):
        self.plan = plan
        self.block: list = []
        self.count = 0
        self.n_tmp = 0
        self.fn_names: Dict[str, str] = {}
        self.tables: Dict[Tuple[int, ...], str] = {}
        # statuses each status local can hold, and the tighter sets the
        # enclosing branches establish
        self.known: Dict[str, FrozenSet[int]] = {}
        self.narrowed: Dict[str, FrozenSet[int]] = {}
        # while emitting sweep step k, slot assignments requeue their
        # dependent steps from static tables (the in-sweep rule ``d <=
        # k``); None = outside the sweep (the dirty list, via ``SD``)
        self.cur_step: Optional[int] = None
        self.namespace: Dict[str, object] = {
            "PENDING": _PENDING,
            "SimulationError": SimulationError,
        }
        self.namespace.update(_helpers(plan))

    # -- low-level emission --------------------------------------------------

    def w(self, text: str) -> None:
        self.block.append(text)
        self.count += 1

    def tmp(self, prefix: str) -> str:
        self.n_tmp += 1
        return "{}{}".format(prefix, self.n_tmp)

    def fn_ref(self, op: str) -> str:
        name = self.fn_names.get(op)
        if name is None:
            name = "F{}".format(len(self.fn_names))
            self.fn_names[op] = name
            self.namespace[name] = BUILTIN_FUNCTIONS[op].fn
        return name

    def table(self, deps: Tuple[int, ...]) -> str:
        name = self.tables.get(deps)
        if name is None:
            name = "T{}".format(len(self.tables))
            self.tables[deps] = name
            self.namespace[name] = deps
        return name

    @staticmethod
    def const_lit(value: object) -> str:
        if value is True or value is False or isinstance(value, int):
            return repr(value)
        raise SimulationError(
            "cannot embed constant {!r} in specialized source".format(value)
        )

    def guarded(self, cond: str, stmt: str) -> None:
        node = _If()
        node.arms.append((cond, [stmt]))
        self.block.append(node)
        self.count += 1

    # -- status knowledge and folded conditions ------------------------------

    def poss(self, s: Status) -> FrozenSet[int]:
        if isinstance(s, int):
            return frozenset((s,))
        poss = self.narrowed.get(s)
        return self.known[s] if poss is None else poss

    def assume(self, facts: Dict[str, FrozenSet[int]]):
        """Narrow status locals for a branch; returns what :meth:`restore`
        needs to undo it."""
        if not facts:
            return ()
        narrowed = self.narrowed
        saved = [(name, narrowed.get(name)) for name in facts]
        narrowed.update(facts)
        return saved

    def restore(self, saved) -> None:
        narrowed = self.narrowed
        for name, poss in saved:
            if poss is None:
                del narrowed[name]
            else:
                narrowed[name] = poss

    def norm(self, s: Status) -> Status:
        """``s`` as a literal when only one status is still possible."""
        if isinstance(s, str):
            poss = self.poss(s)
            if len(poss) == 1:
                return next(iter(poss))
        return s

    def is_(self, s: Status, *ks: int) -> Cond:
        """The folded condition "status ``s`` is one of ``ks``"."""
        poss = self.poss(s)
        hit = poss.intersection(ks)
        if not hit:
            return False
        if hit == poss:
            return True
        miss = poss - hit
        if len(hit) == 1:
            text = "{} == {}".format(s, next(iter(hit)))
        elif len(miss) == 1:
            text = "{} != {}".format(s, next(iter(miss)))
        else:
            text = "{} in {}".format(s, tuple(sorted(hit)))
        return _Cond(text, {s: hit}, {s: miss})

    def vtext(self, v: _Val) -> str:
        kind = v.kind
        if kind == "ex" or kind == "call":
            return v.text
        if kind == "slot":
            return v.text if 1 in self.poss(v.s) else "PENDING"
        c = self.is_(v.s, 1, 3)
        if c is True:
            return v.text
        if c is False:
            return "PENDING"
        return "({} if {} else PENDING)".format(v.text, c.text)

    def vpending(self, v: _Val) -> Cond:
        kind = v.kind
        if kind == "ex" or kind == "call":
            if v.pend is None:
                return _Cond("{} is PENDING".format(v.text))
            return v.pend
        if kind == "slot":
            if 1 not in self.poss(v.s):
                return True
            return _Cond("{} is PENDING".format(v.text))
        return self.is_(v.s, 0, 2)

    def vready(self, v: _Val) -> Cond:
        kind = v.kind
        if kind == "ex" or kind == "call":
            if v.pend is None:
                return _Cond("{} is not PENDING".format(v.text))
            return not v.pend
        if kind == "slot":
            if 1 not in self.poss(v.s):
                return False
            return _Cond("{} is not PENDING".format(v.text))
        return self.is_(v.s, 1, 3)

    def falsy(self, v: _Val) -> Cond:
        text = self.vtext(v)
        lit = _literal(text)
        if lit is not None:
            return not lit
        return _Cond("not " + text)

    # -- branch trees ---------------------------------------------------------

    def branch(self, arms, leaves: Optional[List[_Leaf]] = None):
        """Emit an if/elif chain of ``(condition, body)`` arms.

        Conditions (bools, :class:`_Cond` or thunks returning one) are
        folded in order under the facts of the arms before them; folded-
        false arms disappear and a folded-true arm ends the chain.  A body
        runs under its arm's facts and returns None (statements only), an
        ``(status, value)`` outcome, or a nested arm list.  Outcomes of
        the whole tree are merged: a node whose only outcome is one leaf
        needs no locals, otherwise each leaf assigns the result locals.
        Returns the merged outcome (None for a statement tree)."""
        top = leaves is None
        if top:
            leaves = []
        node = _If()
        outer = self.block
        acc: Dict[str, FrozenSet[int]] = {}
        for cond, body in arms:
            if callable(cond):
                saved = self.assume(acc)
                cond = cond()
                self.restore(saved)
            if cond is False:
                continue
            blk: list = []
            self.block = blk
            saved = self.assume(
                dict(acc, **cond.then) if cond is not True and cond.then else acc
            )
            out = body() if callable(body) else body
            if isinstance(out, list):
                self.branch(out, leaves)
            elif out is not None:
                slot = _Slot()
                blk.append(slot)
                leaves.append(self.leaf(slot, out))
            self.restore(saved)
            self.block = outer
            node.arms.append((None if cond is True else cond.text, blk))
            self.count += 1
            if cond is True:
                break
            if cond.orelse:
                acc = dict(acc, **cond.orelse)
        if node.arms:
            outer.append(node)
        return self.merge(leaves) if top else None

    def leaf(self, slot: _Slot, out) -> _Leaf:
        s, v = out
        s = self.norm(s)
        pend = self.vpending(v)
        return _Leaf(
            slot, s, self.poss(s), dict(self.narrowed), v, self.vtext(v),
            pend if isinstance(pend, bool) else None,
        )

    @staticmethod
    def same_status(leaves: List[_Leaf]) -> Optional[Status]:
        """A status every leaf yields: one literal, or one status local
        that each leaf yields or has narrowed to exactly its literal."""
        first = leaves[0].s
        if isinstance(first, int):
            if all(l.s == first for l in leaves):
                return first
            one = frozenset((first,))
            cands = [n for n, p in leaves[0].narrowed.items() if p == one]
        else:
            cands = [first]
        for c in cands:
            if all(
                l.s == c
                or (isinstance(l.s, int) and l.narrowed.get(c) == frozenset((l.s,)))
                for l in leaves
            ):
                return c
        return None

    def merge(self, leaves: List[_Leaf]):
        if not leaves:
            return None
        if len(leaves) == 1:
            return leaves[0].s, leaves[0].val
        s = self.same_status(leaves)
        new_s = s is None
        if new_s:
            s = self.tmp("s")
            self.known[s] = frozenset().union(*(l.poss for l in leaves))
        pends = {l.pend for l in leaves}
        pend = pends.pop() if len(pends) == 1 else None
        text = leaves[0].text
        if all(l.text == text and l.val.kind != "call" for l in leaves):
            v, new_v = _Val("ex", text, pend=pend), False
        else:
            v, new_v = _Val("ex", self.tmp("v"), pend=pend), True
        for l in leaves:
            parts = []
            if new_s:
                parts.append("{} = {}".format(s, l.s))
            if new_v:
                parts.append("{} = {}".format(v.text, l.text))
            if parts:
                l.slot.text = "; ".join(parts)
        return s, v

    # -- monotone slot assignment ---------------------------------------------

    def deps(self, i: int, skip_self: bool) -> str:
        """The requeue table of slot ``i`` at the current sweep step.

        ``skip_self`` marks sets whose step settles in the same branch —
        the base sweep drains *after* settling, so the settling step never
        requeues itself on its own facts."""
        k = self.cur_step
        deps = tuple(
            d for d in self.plan.dependents[i]
            if d <= k and not (skip_self and d == k)
        )
        return self.table(deps) if deps else ""

    def set_status(self, i: int, st: int, skip_self: bool = False) -> None:
        if self.cur_step is None:
            call = "SD(ctx, {}, {}, NAMES)".format(i, st)
        else:
            t = self.deps(i, skip_self)
            if t:
                call = "nq += SS(ctx, {}, {}, {})".format(i, st, t)
            else:
                call = "SS(ctx, {}, {}, ())".format(i, st)
        self.guarded("status[{}] != {}".format(i, st), call)

    def settle_present(self, k: int, i: int, v: str) -> None:
        """Settle step ``k`` with its target slot ``i`` present at ``v``."""
        t = self.deps(i, skip_self=True)
        if t:
            self.w("nq += SP(ctx, {}, {}, {}, {})".format(k, i, v, t))
        else:
            self.w("SP(ctx, {}, {}, {}, ())".format(k, i, v))

    # -- expression evaluation (mirrors ReactionPlan._compile_eval) ----------

    def emit_eval(self, expr: Expr) -> Tuple[Status, _Val]:
        """Emit statements evaluating ``expr``; returns its (status,
        value) operands.  Statement order and branch structure mirror the
        closure evaluators, side effects (backward forces, raised
        contradictions) included; only statically decided tests fold."""
        if isinstance(expr, Var):
            i = self.plan.slot[expr.name]
            s = self.tmp("s")
            self.w("{} = status[{}]".format(s, i))
            self.known[s] = _SIGNAL
            return s, _Val("slot", "value[{}]".format(i), s)
        if isinstance(expr, Const):
            return 3, _Val("ex", self.const_lit(expr.value), pend=False)
        if isinstance(expr, Pre):
            s, _ = self.emit_eval(expr.expr)
            m = self.plan.pre_slot_of[id(expr)]
            return s, _Val("pre", "state[{}]".format(m), s)
        if isinstance(expr, ClockOf):
            s, _ = self.emit_eval(expr.expr)
            return s, _Val("clk", "True", s)
        if isinstance(expr, Default):
            s, v = self.emit_default(expr)
        elif isinstance(expr, When):
            s, v = self.emit_when(expr)
        elif isinstance(expr, App):
            s, v = self.emit_app(expr)
        else:
            raise SimulationError("cannot compile {!r}".format(expr))
        if v.kind == "call":
            name = self.tmp("v")
            self.w("{} = {}".format(name, v.text))
            v = _Val("ex", name, pend=v.pend)
        return s, v

    def emit_default(self, expr: Default):
        ls, lv = self.emit_eval(expr.left)

        def right():
            # left absent or unknown: the right branch is evaluated once,
            # on either path, exactly as ev_default does
            rs, rv = self.emit_eval(expr.right)
            return [
                (lambda: self.is_(ls, 2), lambda: (rs, rv)),
                # left unknown: present iff the right branch is
                (lambda: self.is_(rs, 1), (1, _PEND)),
                (True, (0, _PEND)),
            ]

        return self.branch([
            (lambda: self.is_(ls, 1, 3), lambda: (ls, lv)),
            (True, right),
        ])

    def emit_when(self, expr: When):
        cs, cv = self.emit_eval(expr.cond)
        es, ev = self.emit_eval(expr.expr)
        on = [
            (lambda: self.vpending(cv), (0, _PEND)),
            (lambda: self.falsy(cv), (2, _PEND)),
            (lambda: self.is_(es, 3), lambda: [
                (lambda: self.is_(cs, 3), (3, ev)),
                (True, (1, ev)),
            ]),
            (True, lambda: (es, ev)),
        ]
        return self.branch([
            (lambda: _any(self.is_(cs, 2), self.is_(es, 2)), (2, _PEND)),
            (lambda: self.is_(cs, 1, 3), on),
            (True, (0, _PEND)),
        ])

    def emit_app(self, expr: App):
        if len(expr.args) > 2:
            # no builtin takes more than two operands; should one appear,
            # its step keeps the closure form (ev_app)
            raise SimulationError("cannot specialize {!r}".format(expr))
        fn = self.fn_ref(expr.op)
        pairs = [self.emit_eval(a) for a in expr.args]
        vvars = [v for _, v in pairs]

        def value(ready: Cond) -> _Val:
            """The call when the operand values are ``ready``, else
            PENDING (operands are rendered under ``ready``'s facts)."""
            if ready is False:
                return _PEND
            saved = [] if ready is True else self.assume(ready.then)
            call = "{}({})".format(fn, ", ".join(self.vtext(v) for v in vvars))
            self.restore(saved)
            if ready is True:
                return _Val("call", call, pend=False)
            return _Val("call", "{} if {} else PENDING".format(call, ready.text))

        def ready():
            return _all(*[self.vready(v) for v in vvars])

        if len(pairs) == 1:
            # one operand: the application has its operand's status
            (s1, v1), = pairs
            return s1, value(_all(self.is_(s1, 1, 3), self.vready(v1)))
        (s1, _), (s2, _) = pairs
        a1, a2 = expr.args
        msg = "raise SimulationError({!r})".format(
            "operands of {!r} are not synchronous this instant".format(expr.op)
        )

        def force(arg: Expr, st: int):
            return lambda: self.force(self.force_slots(arg, st), st)

        def present():
            self.branch([
                (_any(self.is_(s1, 2), self.is_(s2, 2)), lambda: self.w(msg)),
            ])
            # one unresolved operand inherits presence (elif, as in ev_app2)
            self.branch([
                (lambda: self.is_(s1, 0), force(a1, 1)),
                (lambda: self.is_(s2, 0), force(a2, 1)),
            ])
            return 1, value(ready())

        def absent():
            # absence pierces chameleon defaults: force non-absent operands
            self.branch([(self.is_(s1, 0, 1, 3), force(a1, 2))])
            self.branch([(self.is_(s2, 0, 1, 3), force(a2, 2))])
            return 2, _PEND

        return self.branch([
            (lambda: _any(self.is_(s1, 1), self.is_(s2, 1)), present),
            (lambda: _any(self.is_(s1, 2), self.is_(s2, 2)), absent),
            (lambda: _all(self.is_(s1, 3), self.is_(s2, 3)),
             lambda: (3, value(ready()))),
            (True, (0, _PEND)),
        ])

    # -- backward presence propagation (mirrors _compile_force) --------------

    def force_slots(self, expr: Expr, st: int) -> List[int]:
        """The signal slots forcing ``expr`` to ``st`` (1/2) assigns, in
        order; a repeated slot is a no-op after its first assignment."""
        out: List[int] = []

        def walk(e: Expr, st: int) -> None:
            if isinstance(e, Var):
                i = self.plan.slot[e.name]
                if i not in out:
                    out.append(i)
            elif isinstance(e, (Pre, ClockOf)):
                walk(e.expr, st)
            elif isinstance(e, App):
                for a in e.args:
                    walk(a, st)
            elif isinstance(e, When):
                if st == 1:
                    walk(e.expr, 1)
                    walk(e.cond, 1)
            elif isinstance(e, Default):
                if st == 2:
                    walk(e.left, 2)
                    walk(e.right, 2)
            elif not isinstance(e, Const):
                raise SimulationError("cannot compile {!r}".format(e))

        walk(expr, st)
        return out

    def force(self, slots: List[int], st: int) -> None:
        for i in slots:
            self.set_status(i, st)

    # -- step bodies ----------------------------------------------------------

    def emit_equation_body(self, eq: Equation, k: int) -> None:
        ti = self.plan.slot[eq.target]
        s, v = self.emit_eval(eq.expr)
        settle = "settled[{}] = 1".format(k)
        own = "status[{}]".format(ti)

        def settles_present():
            self.settle_present(k, ti, self.vtext(v))

        def present():
            # testing the value first is pure, so the contradiction order
            # is unchanged; it lets the settling arm skip the self-requeue
            return [
                (lambda: self.vready(v), settles_present),
                (True, lambda: self.set_status(ti, 1)),
            ]

        def absent():
            self.w(settle)
            self.set_status(ti, 2, skip_self=True)

        def const():
            return [
                (lambda: _all(_Cond(own + " == 1"), self.vready(v)),
                 settles_present),
                (_Cond(own + " == 2"), lambda: self.w(settle)),
            ]

        # expression unknown, target known: force the expression to the
        # target's status.  The two tests exclude each other, so an arm
        # with nothing to force is dropped; so is the target itself,
        # whose status already is the forced one
        unknown = []
        for st in (1, 2):
            slots = [i for i in self.force_slots(eq.expr, st) if i != ti]
            if slots:
                unknown.append((
                    _Cond("{} == {}".format(own, st)),
                    lambda st=st, slots=slots: self.force(slots, st),
                ))
        self.branch([
            (lambda: self.is_(s, 1), present),
            (lambda: self.is_(s, 2), absent),
            (lambda: self.is_(s, 3), const),
            (True, unknown),
        ])

    def emit_sync_body(self, sc: SyncConstraint, k: int) -> None:
        idxs = [self.plan.slot[n] for n in sc.names]
        members = list(dict.fromkeys(idxs))
        t = self.tmp("t")
        reads = ", ".join("status[{}]".format(i) for i in idxs)
        self.w("{} = ({})".format(t, reads if len(idxs) > 1 else reads + ","))
        msg = "raise SimulationError({!r})".format(
            "synchronization constraint violated: {}".format(sc.names)
        )

        def settle(st: int):
            def body():
                if st == 1:
                    self.guarded("2 in {}".format(t), msg)
                self.w("settled[{}] = 1".format(k))
                for i in members:
                    self.set_status(i, st, skip_self=True)
            return body

        self.branch([
            (_Cond("1 in " + t), settle(1)),
            (_Cond("2 in " + t), settle(2)),
        ])

    # -- the generated sweep -------------------------------------------------

    def emit_sweep(self) -> int:
        """The whole initial sweep of :meth:`ReactionPlan._propagate` as
        one function: every step body inlined in schedule order, with the
        in-sweep requeue rule (``d <= k``) after each.  Returns the number
        of inlined (non-fallback) steps."""
        plan = self.plan
        body = self.block
        body.extend([
            "status = ctx.status",
            "value = ctx.value",
            "state = ctx.state",
            "settled = ctx.settled",
            "del ctx.dirty[:]",
            "nq = 0",
        ])
        inlined = 0
        for k, (kind, st) in enumerate(plan.schedule):
            label = st.target if kind == "eq" else "sync {}".format(st.names)
            body.append("# step {}: {}".format(k, label))
            self.block = step = []
            self.count = 0
            self.cur_step = k
            try:
                if kind == "eq":
                    self.emit_equation_body(st, k)
                else:
                    self.emit_sync_body(st, k)
                too_big = self.count > MAX_STEP_LINES
            except SimulationError:
                too_big = True  # unembeddable constant: keep the closure
            finally:
                self.cur_step = None
                self.block = body
                self.narrowed.clear()
            if too_big:
                # the closure records facts on the dirty list; ``DR``
                # drains it with the in-sweep requeue rule
                fb = "_fb_{}".format(k)
                self.namespace[fb] = plan.steps[k]
                self.guarded("{}(ctx)".format(fb), "settled[{}] = 1".format(k))
                self.w("nq += DR(ctx, {})".format(k))
            else:
                inlined += 1
                body.extend(step)
        body.append("return nq")
        self.block = []
        out = ["def _sweep(ctx):"]
        _render(body, 1, out)
        self.lines = out
        return inlined

    def emit_advance(self) -> bool:
        """The ``pre``-register update (mirrors ReactionPlan._next_state);
        returns False when over budget or unembeddable."""
        body = self.block = [
            "status = ctx.status",
            "value = ctx.value",
            "state = ctx.state",
            "new = list(old)",
        ]
        self.count = 0
        try:
            for k, _, node in self.plan.pre_updaters:
                msg = "raise SimulationError({!r})".format(
                    "pre operand present without a value: {!r}".format(node)
                )
                s, v = self.emit_eval(node.expr)
                self.branch([
                    (lambda s=s: self.is_(s, 1), lambda k=k, v=v, msg=msg: [
                        (lambda: self.vpending(v), lambda: self.w(msg)),
                        (True, lambda: self.w(
                            "new[{}] = {}".format(k, self.vtext(v)))),
                    ]),
                ])
        except SimulationError:
            return False
        if self.count > MAX_STEP_LINES:
            return False
        body.append("return new")
        self.lines.append("")
        self.lines.append("def _advance(ctx, old):")
        _render(body, 1, self.lines)
        return True


def generate(plan: ReactionPlan):
    """Generate and compile the specialized module for ``plan``.

    Returns ``(source, sweep_fn, advance_fn, n_inlined)``."""
    gen = _Gen(plan)
    n_inlined = gen.emit_sweep()
    has_advance = bool(plan.pre_updaters) and gen.emit_advance()
    header = "# specialized reaction plan for component {!r}\n".format(
        plan.component.name
    )
    source = header + "\n".join(gen.lines) + "\n"
    namespace = gen.namespace
    code = compile(source, "<specialized:{}>".format(plan.component.name), "exec")
    exec(code, namespace)
    # taken out of their own globals, the functions form no reference
    # cycle, so a dropped plan is freed at once rather than by the
    # cyclic garbage collector
    return (
        source,
        namespace.pop("_sweep"),
        namespace.pop("_advance", None),
        n_inlined,
    )


class SpecializedPlan(ReactionPlan):
    """A :class:`~repro.sim.plan.ReactionPlan` whose initial sweep is
    generated straight-line Python instead of closure chains.

    Construction compiles the plan normally first (the closure steps
    serve the residual worklist and any over-budget step), then installs
    the generated sweep.  Execution, counters and introspection are
    inherited; :attr:`kind` marks the counters for attribution
    (``sim.plan.spec.*`` vs ``sim.plan.*``)."""

    kind = "plan.spec"

    def __init__(self, component: Component):
        super().__init__(component)
        t0 = time.perf_counter()
        source, sweep_fn, advance_fn, n_inlined = generate(self)
        PERF.add_time("plan.codegen", time.perf_counter() - t0)
        PERF.incr("plan.codegen_plans")
        PERF.incr("plan.codegen_bytes", len(source))
        self.source = source
        self._sweep_fn = sweep_fn
        self._advance_fn = advance_fn
        self.specialized_steps = n_inlined
        self.fallback_steps = len(self.steps) - n_inlined

    def _propagate(self, ctx, initial: bool = False) -> None:
        if initial:
            nq = self._sweep_fn(ctx)
            self.counters["sweeps"] += 1
            if nq or ctx.dirty:
                self._residual(ctx, nq)
        else:
            super()._propagate(ctx, initial)

    def _next_state(self, ctx, state):
        fn = self._advance_fn
        if fn is not None:
            return fn(ctx, state)
        return super()._next_state(ctx, state)

    def __repr__(self) -> str:
        return (
            "SpecializedPlan({!r}: {} signals, {} steps "
            "[{} inlined], {} registers)".format(
                self.component.name,
                self.n_signals,
                len(self.steps),
                self.specialized_steps,
                len(self.pre_nodes),
            )
        )


def specialize(design) -> SpecializedPlan:
    """Specialize a component or an existing plan.

    Accepts a :class:`~repro.lang.ast.Component` or a
    :class:`~repro.sim.plan.ReactionPlan`; returns a
    :class:`SpecializedPlan` compiled for (the component of) it.  Note
    this ignores ``REPRO_NO_SPECIALIZE`` — callers wanting the
    environment gate should go through
    :func:`repro.sim.plan.shared_plan` or
    ``Reactor(..., specialize=True)``."""
    comp = design.component if isinstance(design, ReactionPlan) else design
    return SpecializedPlan(comp)
