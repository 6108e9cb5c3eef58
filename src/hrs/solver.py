"""Round-based solver: deferred acceptance over an ordered agent partition.

The solver walks the partition classes in order. For class k it restricts the
graph to the class agents and runs agent-proposing deferred acceptance there
on each hospital's residual capacity (capacity minus occupancy accumulated so
far); because all agents in a class share one size s, a hospital with residual
capacity r behaves exactly like a classic hospital with floor(r / s) slots.
Round matchings accumulate by union into the final result.

Every entry point runs one kernel, ``_Kernel``: its per-hospital and per-agent
state is allocated once per call, and a round resets only the hospitals its
agents proposed to, so a round costs time in proportion to its class's agents
and their edges. ``solve_occupancy`` runs the size classes, largest first, on
that kernel over one assignment and one residual-capacity vector, with no
trace: time linear in the edges, up to the accepted heaps' log factor.

Run with the size-descending partition, the final matching is always
occupancy-stable and its total size is within a factor 3 of the best
occupancy-stable matching. Run with any partition the hospital lists follow
(a generalized master list), the final matching is stable outright.

``solve`` returns the trace: each round's agents, residual capacities and
matching, stored once. Everything else is derived from the rounds: the final
matching is the union of the round matchings, and a round's subgraph is every
edge of its agents, so round subgraphs are disjoint because the validated
partition's classes are. ``trace_to_json`` writes the same facts once each
(format ``hrs-trace 2``), in space linear in the agents plus the edges. The
audit checks that each round runs its class on the capacities left by the
rounds before and has no blocking pair within its subgraph and capacities.
One round's audit costs time proportional to its edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappush, heapreplace
from typing import Sequence

from .model import (
    UNMATCHED,
    HrsInstance,
    Matching,
    ValidationReport,
    _require_indices,
    matching_to_json,
)
from .partition import OrderedPartition, _size_classes, validate_ordered_partition
from .verify import _residual_caps, find_blocking_pairs_residual


@dataclass(frozen=True)
class SolveRound:
    index: int                      # 1-based round number
    agents: tuple[int, ...]         # the class processed this round
    residual_caps: tuple[int, ...]
    matching: Matching              # pairs added this round


@dataclass(frozen=True, init=False)
class SolveTrace:
    """The rounds of one solve, in order. ``final`` is the union of the round
    matchings, built on first read. Passing ``final`` to the constructor (or
    to ``dataclasses.replace``) reports that matching instead, so a test can
    plant a fault in it; ``check_trace`` audits the rounds only."""

    partition: OrderedPartition
    rounds: tuple[SolveRound, ...]

    def __init__(self, partition: OrderedPartition, rounds: tuple[SolveRound, ...],
                 final: Matching | None = None):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "rounds", rounds)
        if final is not None:
            self.__dict__["final"] = final

    @cached_property
    def final(self) -> Matching:
        assign = [UNMATCHED] * (len(self.rounds[0].matching.assign) if self.rounds else 0)
        for rnd in self.rounds:  # each round adds the pairs of its own agents
            matched = rnd.matching.assign
            for a in rnd.agents:
                if matched[a] != UNMATCHED:
                    assign[a] = matched[a]
        return Matching(assign)


class _Kernel:
    """Agent-proposing deferred acceptance, one size class per round, on the
    residual capacities in ``room``, which each round lowers by what it fills.

    ``slots[h]`` is h's free whole slots this round, -1 until h's first
    proposal; ``accepted[h]`` is a heap of (negated rank, agent) whose top is
    the worst. Both are reset after a round for the hospitals it proposed to
    only, and ``ptr[a]`` (a's next list position) is never reset, so the
    classes of one kernel must be disjoint."""

    __slots__ = ("prefs", "ranks", "room", "slots", "accepted", "ptr")

    def __init__(self, inst: HrsInstance, room: list[int]):
        self.prefs = inst.agent_prefs
        self.ranks = inst.agent_pref_hranks_neg
        self.room = room
        self.slots = [-1] * inst.n_hospitals
        self.accepted: list[list[tuple[int, int]]] = [[] for _ in range(inst.n_hospitals)]
        self.ptr = [0] * inst.n_agents

    def round(self, agents: Sequence[int], s: int, assign: list[int]) -> None:
        """Run the class ``agents``, all of size ``s``, and write each matched
        agent's hospital into ``assign``. A hospital with no whole slot left
        is skipped rather than removed, so ``room`` never goes negative."""
        prefs, ranks, room = self.prefs, self.ranks, self.room
        slots, accepted, ptr = self.slots, self.accepted, self.ptr
        proposed: list[int] = []
        mark = proposed.append
        queue = deque(agents)
        pop = queue.popleft
        push_back = queue.append
        while queue:
            a = pop()
            lst = prefs[a]
            rk = ranks[a]
            end = len(lst)
            i = ptr[a]
            while i < end:
                h = lst[i]
                i += 1
                free = slots[h]
                if not free:  # full, or no whole slot
                    heap = accepted[h]
                    if heap:  # a displaces the worst if h ranks a higher
                        neg_rank = rk[i - 1]
                        top = heap[0]
                        if neg_rank > top[0]:
                            heapreplace(heap, (neg_rank, a))
                            push_back(top[1])
                            break
                    continue
                if free < 0:  # h's first proposal this round
                    free = room[h] // s
                    mark(h)
                    if not free:
                        slots[h] = 0
                        continue
                heappush(accepted[h], (rk[i - 1], a))
                slots[h] = free - 1
                break
            ptr[a] = i
        for h in proposed:
            heap = accepted[h]
            if heap:
                for _, a in heap:
                    assign[a] = h
                room[h] -= s * len(heap)
                heap.clear()
            slots[h] = -1


def uniform_gs(
    inst: HrsInstance, class_agents: Sequence[int], residual_caps: Sequence[int]
) -> Matching:
    """Agent-proposing deferred acceptance for one size-homogeneous class under
    residual capacities. Returns the class-agent-optimal matching with no
    blocking pair inside the class subgraph.

    A hospital with residual capacity r offers floor(r / s) slots to agents of
    size s; hospitals with no whole slot are skipped rather than removed.
    ``class_agents`` must be distinct agents, in range, of one size.
    """
    room = list(_residual_caps(inst, residual_caps))
    assign = [UNMATCHED] * inst.n_agents
    class_agents = tuple(class_agents)  # read twice: validated, then run
    seen: set[int] = set()
    for a in class_agents:
        if not (isinstance(a, int) and 0 <= a < inst.n_agents):
            raise ValueError(f"class agent index {a!r} out of range")
        if a in seen:
            raise ValueError(f"class repeats agent {inst.agent_labels[a]}")
        seen.add(a)
    if seen:
        sizes = {inst.sizes[a] for a in seen}
        if len(sizes) != 1:
            raise ValueError(f"class mixes sizes {sorted(sizes)}")
        _Kernel(inst, room).round(class_agents, sizes.pop(), assign)
    return Matching(assign)


def _check_partition(inst: HrsInstance, partition: OrderedPartition) -> None:
    report = validate_ordered_partition(inst, partition)
    if not report.ok:
        raise ValueError(f"invalid partition: {report.summary()}")


def solve(inst: HrsInstance, partition: OrderedPartition) -> SolveTrace:
    """Run all rounds of the partition in order and return the trace."""
    _check_partition(inst, partition)
    room = list(inst.caps)
    kernel = _Kernel(inst, room)
    rounds: list[SolveRound] = []
    for k, cls in enumerate(partition.classes, start=1):
        residual = tuple(room)
        assign = [UNMATCHED] * inst.n_agents
        kernel.round(cls, inst.sizes[cls[0]], assign)  # a valid class is nonempty
        rounds.append(SolveRound(k, cls, residual, Matching(assign)))
    return SolveTrace(partition, tuple(rounds))


def _final(inst: HrsInstance, classes: Sequence[Sequence[int]]) -> Matching:
    """The rounds of a valid partition's ``classes``, with no trace."""
    assign = [UNMATCHED] * inst.n_agents
    kernel = _Kernel(inst, list(inst.caps))
    for cls in classes:
        kernel.round(cls, inst.sizes[cls[0]], assign)
    return Matching(assign)


def solve_matching(inst: HrsInstance, partition: OrderedPartition) -> Matching:
    """``solve(inst, partition).final``: the same check and rounds, no trace."""
    _check_partition(inst, partition)
    return _final(inst, partition.classes)


def solve_occupancy(inst: HrsInstance) -> Matching:
    """Occupancy-stable matching: the rounds of the size-descending partition
    (largest agents first) with no trace, in time linear in the edges up to
    the heaps' log factor. The size classes are a disjoint cover with one
    size each by construction, so there is no partition to validate; the
    result equals ``solve(inst, size_descending_partition(inst)).final``."""
    return _final(inst, _size_classes(inst))


def check_trace(inst: HrsInstance, trace: SolveTrace) -> ValidationReport:
    """Audit a trace's rounds against the round invariants; empty report on
    success.

    Each round must run its partition class on the capacities minus what its
    agents' pairs in earlier rounds occupy, and ``find_blocking_pairs_residual``
    must find no blocking pair within its subgraph and residual capacities;
    that scan also rejects a pair outside the round's agents and their lists,
    or over the residual capacities. The final matching is the union of the
    round matchings, so it needs no audit of its own, and occupancy needs no
    pass to show it never decreases: the rounds match disjoint classes, and
    each only adds pairs of its own class. A round's checks visit its own
    agents and edges, plus C-speed passes over the capacity and assignment
    vectors."""
    report = ValidationReport()
    for issue in validate_ordered_partition(inst, trace.partition).issues:
        report.add(issue.severity, issue.location, issue.message)
    if len(trace.rounds) != len(trace.partition.classes):
        report.add("error", "trace", "round count differs from class count")
        return report
    sizes = inst.sizes
    n_agents, n_hospitals = inst.n_agents, inst.n_hospitals
    room = list(inst.caps)
    for rnd, cls in zip(trace.rounds, trace.partition.classes):
        loc = f"round {rnd.index}"
        if sorted(rnd.agents) != sorted(cls):
            report.add("error", loc, "round agents differ from partition class")
        if list(rnd.residual_caps) != room:
            report.add(
                "error", loc, "residual capacities differ from capacities minus earlier occupancy"
            )
        try:
            blocking = find_blocking_pairs_residual(
                inst, rnd.matching, rnd.residual_caps, rnd.agents
            )
        except ValueError as exc:
            report.add("error", loc, str(exc))
            blocking = []
        for w in blocking:
            report.add(
                "error", loc,
                f"round blocking pair ({inst.agent_labels[w.agent]}, "
                f"{inst.hospital_labels[w.hospital]})",
            )
        matched = rnd.matching.assign
        end = min(n_agents, len(matched))
        for a in rnd.agents:  # the guards skip a faulty round's out-of-range pairs
            if 0 <= a < end and 0 <= matched[a] < n_hospitals:
                room[matched[a]] -= sizes[a]
    return report


def trace_to_json(inst: HrsInstance, trace: SolveTrace) -> dict:
    """The trace as JSON, format ``hrs-trace 2``: the partition and its
    provenance, per round its agents' pairs and the residual capacities of
    the hospitals they list, and the final matching. Each fact is written
    once (a round's agents are its class, its subgraph their lists), so the
    file grows with the agents plus the edges.

    Raises ValueError on a trace of another instance: a partition or round
    entry that is no agent index in range, or a round or final matching not
    as long as the agents, or residual capacities not as long as the
    hospitals."""
    n_agents, n_hospitals = inst.n_agents, inst.n_hospitals
    for cls in trace.partition.classes:
        _require_indices(cls, n_agents, "partition entry")
    for rnd in trace.rounds:
        _require_indices(rnd.agents, n_agents, f"round {rnd.index} agent")
        if len(rnd.matching.assign) != n_agents:
            raise ValueError(f"round {rnd.index} matching has {len(rnd.matching.assign)} "
                             f"entries for {n_agents} agents")
        if len(rnd.residual_caps) != n_hospitals:
            raise ValueError(f"round {rnd.index} has {len(rnd.residual_caps)} residual "
                             f"capacities for {n_hospitals} hospitals")
    if len(trace.final.assign) != n_agents:
        raise ValueError(f"final matching has {len(trace.final.assign)} entries for {n_agents} agents")
    al, hl, prefs = inst.agent_labels, inst.hospital_labels, inst.agent_prefs
    rounds = []
    for rnd in trace.rounds:
        matched, residual = rnd.matching.assign, rnd.residual_caps
        rounds.append({
            "matched": {al[a]: hl[matched[a]] for a in rnd.agents if matched[a] != UNMATCHED},
            "residual_caps": {hl[h]: residual[h] for a in rnd.agents for h in prefs[a]},
        })
    return {
        "format": "hrs-trace 2",
        "partition": [[al[a] for a in cls] for cls in trace.partition.classes],
        "provenance": trace.partition.provenance,
        "rounds": rounds,
        "final": matching_to_json(inst, trace.final),
    }
