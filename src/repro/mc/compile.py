"""Compilation of finite-state Signal designs to explicit LTSs.

The reactor's memory (``pre`` registers) is the state; for every reachable
state and every *letter* of the chosen input alphabet a reaction is
executed.  Letters whose reaction is inconsistent in a state (clock
violations) are recorded as invalid there.

Finite-state designs only: value-carrying state must stay in a finite
range (e.g. modular counters); the compiler aborts past ``max_states``
otherwise.

Exploration runs on the process-wide cached reaction plan
(:func:`repro.sim.plan.shared_plan`): the specialized generated-code plan
unless ``REPRO_NO_SPECIALIZE`` is set, compiled once per design and
shared with every later call, the estimator and the batch lanes.

Two performance levers (both off by default):

- ``memo=``: a :class:`ReactionMemo` caches reaction outcomes keyed by
  ``(state, letter)``.  The transition function is deterministic, so a
  memo shared across several :func:`compile_lts` calls on the *same*
  design (e.g. the estimator's grow-and-reverify loop, or checking the
  same design under several environment alphabets) makes revisited pairs
  free.  Never share one memo between different designs.
- ``workers=``: expand each BFS level's frontier in parallel with a
  :class:`concurrent.futures.ProcessPoolExecutor`.  The resulting LTS is
  isomorphic to the sequential one (identical states, transitions and
  invalid-letter sets up to state numbering).  Worth it for state spaces
  in the tens of thousands; below that, process startup dominates.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NonDeterministicClockError, SimulationError, VerificationError
from repro.lang.analysis import flatten_program
from repro.lang.ast import Component, Program
from repro.lang.types import BOOL, EVENT, INT
from repro.lang.typecheck import check_component
from repro.perf import PERF
from repro.sim.engine import ABSENT
from repro.sim.plan import shared_plan
from repro.mc.lts import LTS, freeze_letter


def input_alphabet(
    component: Component,
    int_values: Sequence[int] = (0, 1),
    always_present: Iterable[str] = (),
    never_present: Iterable[str] = (),
) -> List[Dict[str, object]]:
    """Every combination of input presence and (finite-domain) values.

    - event inputs: absent or present;
    - boolean inputs: absent, ``True`` or ``False``;
    - integer inputs: absent or one of ``int_values``.

    ``always_present`` / ``never_present`` pin inputs and shrink the
    alphabet (use for clocks known to tick every instant, or ports tied
    off in the verification harness).
    """
    always = set(always_present)
    never = set(never_present)
    choices: List[List[Tuple[str, object]]] = []
    for name, ty in component.inputs.items():
        if name in never:
            continue
        if ty is EVENT:
            options: List[Tuple[str, object]] = [(name, True)]
        elif ty is BOOL:
            options = [(name, True), (name, False)]
        elif ty is INT:
            options = [(name, v) for v in int_values]
        else:
            raise VerificationError("cannot enumerate type {}".format(ty))
        if name not in always:
            options = [(name, None)] + options  # None encodes absence
        choices.append(options)
    alphabet = []
    for combo in itertools.product(*choices):
        alphabet.append({n: v for n, v in combo if v is not None})
    return alphabet


def boolean_alphabet(component: Component, **kwargs) -> List[Dict[str, object]]:
    """Alias of :func:`input_alphabet` restricted to 0/1 integer payloads.

    Data values rarely influence control (alarms, occupancy); a binary
    payload keeps the letter count small while still distinguishing flows.
    """
    return input_alphabet(component, int_values=(0, 1), **kwargs)


class ReactionMemo:
    """A reaction-outcome table keyed by ``(state, frozen letter)``.

    Outcomes are either ``None`` (the reaction is inconsistent — the
    letter is invalid in that state) or ``(frozen visible outputs,
    successor state)``.  The transition function is deterministic, so a
    memo can be carried across :func:`compile_lts` calls on the same
    design: revisited pairs cost one dict lookup instead of a reaction.

    Do not share a memo between different designs (their state tuples
    would collide), or with designs driven by a stateful oracle.
    """

    __slots__ = ("table", "hits", "misses")

    def __init__(self) -> None:
        self.table: Dict[Tuple, Optional[Tuple]] = {}
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        self.table.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self.table),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:
        return "ReactionMemo({} entries, {} hits, {} misses)".format(
            len(self.table), self.hits, self.misses
        )


def compile_lts(
    design,
    alphabet: Optional[List[Dict[str, object]]] = None,
    max_states: int = 200000,
    oracle=None,
    memo: Optional[ReactionMemo] = None,
    workers: Optional[int] = None,
    store=None,
) -> LTS:
    """Explore the full reachable state space of ``design``.

    ``design`` is a Component or Program (flattened first).  ``alphabet``
    defaults to :func:`boolean_alphabet`.  ``memo`` carries reaction
    outcomes across calls on the same design; ``workers`` parallelizes
    frontier expansion (see the module docstring).  Raises
    :class:`~repro.errors.VerificationError` when exploration exceeds
    ``max_states`` (the design is not finite-state, or the bound is too
    small) and when the design needs a clock oracle.

    ``store`` (an :class:`repro.mc.store.MCStore`) persists the compiled
    LTS across processes, keyed by design content and alphabet —
    ``max_states``, ``memo`` and ``workers`` change wall time, never the
    result, so they stay out of the key (a stored LTS larger than
    ``max_states`` still raises).  Oracle-driven compilations bypass the
    store: an oracle is arbitrary code outside the content hash.

    The returned LTS carries exploration counters in ``lts.stats``.
    """
    comp = flatten_program(design) if isinstance(design, Program) else design
    if alphabet is None:
        alphabet = boolean_alphabet(comp)
    if not alphabet:
        alphabet = [{}]
    key = None
    if store is not None and oracle is None:
        from repro.mc.lts import lts_from_dict
        from repro.mc.store import design_content_key, store_key

        key = store_key(
            "explicit-lts",
            design_content_key(comp),
            {"alphabet": alphabet},
        )
        payload = store.get(key, kind="explicit-lts")
        if payload is not None:
            lts = lts_from_dict(payload)
            if lts.num_states() > max_states:
                raise VerificationError(
                    "state space exceeds {} states; "
                    "is the design finite-state?".format(max_states)
                )
            lts.stats["store"] = "hit"
            lts.stats["elapsed"] = 0.0
            lts.stats["workers"] = workers or 1
            return lts
    t0 = time.perf_counter()
    if workers is not None and workers > 1:
        if oracle is not None:
            raise VerificationError(
                "workers>1 cannot ship a clock oracle to worker processes; "
                "run sequentially or fix the free clocks"
            )
        lts = _compile_parallel(comp, alphabet, max_states, memo, workers)
    else:
        lts = _compile_sequential(comp, alphabet, max_states, oracle, memo)
    elapsed = time.perf_counter() - t0
    lts.stats["elapsed"] = elapsed
    lts.stats["workers"] = workers or 1
    if memo is not None:
        lts.stats["memo"] = memo.stats()
    PERF.add_time("mc.explore", elapsed)
    PERF.incr("mc.reactions", int(lts.stats.get("reactions", 0)))
    if memo is not None:
        PERF.incr("mc.memo_hits", int(lts.stats.get("memo_hits", 0)))
        PERF.incr("mc.memo_misses", int(lts.stats.get("memo_misses", 0)))
    if key is not None:
        from repro.mc.lts import lts_to_dict

        store.put(key, "explicit-lts", lts_to_dict(lts))
        lts.stats["store"] = "miss"
    return lts


def _plan_and_initial(comp):
    """Type-check ``comp``; its shared plan and initial memory."""
    check_component(comp)
    plan = shared_plan(comp)
    return plan, tuple(node.init for node in plan.pre_nodes)


def _record_plan_work(lts: LTS, plan, delta: Mapping[str, int]) -> None:
    """Put one exploration's executor counters into ``lts.stats`` and
    :data:`PERF` (under ``mc.<plan kind>.*``, as ``simulate()`` uses
    ``sim.<plan kind>.*``)."""
    lts.stats.update(delta)
    PERF.merge(delta, prefix="mc." + plan.kind)


def _compile_sequential(comp, alphabet, max_states, oracle, memo) -> LTS:
    plan, initial = _plan_and_initial(comp)
    base = plan.counters_snapshot()
    react = plan.react_frozen
    letters = [(letter, freeze_letter(letter)) for letter in alphabet]
    table = memo.table if memo is not None else None
    lts = LTS(initial)
    frontier = [lts.initial]
    explored = set()
    reactions = 0
    hits = 0
    instant = 0
    while frontier:
        sid = frontier.pop()
        if sid in explored:
            continue
        explored.add(sid)
        state = lts.state_data(sid)
        for letter, frozen in letters:
            if table is not None:
                key = (state, frozen)
                outcome = table.get(key, _MISS)
            else:
                outcome = _MISS
            if outcome is _MISS:
                reactions += 1
                try:
                    outcome = react(letter, state, oracle, instant, ABSENT)
                except NonDeterministicClockError as exc:
                    raise VerificationError(
                        "design has free clocks; fix them or supply an oracle: "
                        "{}".format(exc)
                    )
                except SimulationError:
                    outcome = None
                instant += 1
                if table is not None:
                    table[key] = outcome
                    memo.misses += 1
            else:
                hits += 1
                if memo is not None:
                    memo.hits += 1
            if outcome is None:
                lts.mark_invalid_frozen(sid, frozen)
                continue
            if outcome[0] == "free":  # memoized by a parallel run
                raise VerificationError(
                    "design has free clocks; fix them or supply an oracle: "
                    "{}".format(outcome[1])
                )
            foutputs, target_state = outcome
            target = lts.add_transition_frozen(sid, frozen, foutputs, target_state)
            if target not in explored:
                frontier.append(target)
            if lts.num_states() > max_states:
                raise VerificationError(
                    "state space exceeds {} states; "
                    "is the design finite-state?".format(max_states)
                )
    _record_plan_work(lts, plan, plan.counters_since(base))
    lts.stats["reactions"] = reactions
    lts.stats["memo_hits"] = hits
    lts.stats["memo_misses"] = reactions if memo is not None else 0
    return lts


class _Miss:
    def __repr__(self) -> str:
        return "MISS"


_MISS = _Miss()


# -- parallel frontier expansion ---------------------------------------------
#
# Level-synchronous BFS: the unexplored frontier is chunked across worker
# processes; each worker takes the shared plan once per process (a forked
# worker inherits the coordinator's compiled plan from the cache) and
# returns reaction outcomes for its chunk plus the chunk's executor
# counters, which the coordinator folds into the LTS in submission order
# (making the result deterministic for a given chunking).

_W_PLAN = None
_W_LETTERS = None


def _worker_init(comp, alphabet):
    global _W_PLAN, _W_LETTERS
    _W_PLAN = shared_plan(comp)
    _W_LETTERS = list(alphabet)


def _worker_expand(states):
    """Outcomes for every (state, letter) of a chunk of frontier states,
    and the executor counters the chunk cost."""
    out = []
    plan = _W_PLAN
    base = plan.counters_snapshot()
    for state in states:
        row = []
        for letter in _W_LETTERS:
            try:
                row.append(plan.react_frozen(letter, state, None, 0, ABSENT))
            except NonDeterministicClockError as exc:
                row.append(("free", str(exc)))
            except SimulationError:
                row.append(None)
        out.append(row)
    return out, plan.counters_since(base)


def _compile_parallel(comp, alphabet, max_states, memo, workers) -> LTS:
    from concurrent.futures import ProcessPoolExecutor

    letters = [(letter, freeze_letter(letter)) for letter in alphabet]
    table = memo.table if memo is not None else None
    # validates the design in-process first, and fills the plan cache
    # that forked workers inherit
    plan, initial = _plan_and_initial(comp)
    work: Dict[str, int] = {}
    lts = LTS(initial)
    explored = set()
    frontier = [lts.initial]
    reactions = 0
    hits = 0
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(comp, alphabet)
    ) as pool:
        while frontier:
            level = []
            for sid in frontier:
                if sid not in explored:
                    explored.add(sid)
                    level.append(sid)
            frontier = []
            if not level:
                break
            # memoized states never reach the pool
            todo = []
            outcomes = {}
            for sid in level:
                state = lts.state_data(sid)
                if table is not None:
                    row = [table.get((state, frozen), _MISS) for _, frozen in letters]
                    if _MISS not in row:
                        outcomes[sid] = row
                        hits += len(row)
                        memo.hits += len(row)
                        continue
                todo.append(sid)
            chunk_size = max(1, (len(todo) + workers * 4 - 1) // (workers * 4))
            chunks = [
                todo[i : i + chunk_size] for i in range(0, len(todo), chunk_size)
            ]
            futures = [
                pool.submit(_worker_expand, [lts.state_data(sid) for sid in chunk])
                for chunk in chunks
            ]
            for chunk, fut in zip(chunks, futures):
                rows, delta = fut.result()
                for key, value in delta.items():
                    work[key] = work.get(key, 0) + value
                for sid, row in zip(chunk, rows):
                    reactions += len(row)
                    outcomes[sid] = row
                    if table is not None:
                        state = lts.state_data(sid)
                        memo.misses += len(row)
                        for (_, frozen), outcome in zip(letters, row):
                            table[(state, frozen)] = outcome
            for sid in level:
                for (letter, frozen), outcome in zip(letters, outcomes[sid]):
                    if outcome is None:
                        lts.mark_invalid_frozen(sid, frozen)
                        continue
                    if outcome[0] == "free":
                        raise VerificationError(
                            "design has free clocks; fix them or supply an "
                            "oracle: {}".format(outcome[1])
                        )
                    foutputs, target_state = outcome
                    target = lts.add_transition_frozen(
                        sid, frozen, foutputs, target_state
                    )
                    if target not in explored:
                        frontier.append(target)
                    if lts.num_states() > max_states:
                        raise VerificationError(
                            "state space exceeds {} states; "
                            "is the design finite-state?".format(max_states)
                        )
    _record_plan_work(lts, plan, work)
    lts.stats["reactions"] = reactions
    lts.stats["memo_hits"] = hits
    lts.stats["memo_misses"] = reactions if memo is not None else 0
    return lts
