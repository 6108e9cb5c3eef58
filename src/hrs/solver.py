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

``solve`` returns the full trace (per-round agents, residual capacities, round
and cumulative matchings) so the round invariants can be audited. It holds no
edge sets: a round's subgraph is every edge of its agents, so round subgraphs
are disjoint because the validated partition's classes are. The audit checks
that each round runs its class on the capacities left by the rounds before,
that the final matching is exactly the union of the round matchings, that
occupancy never decreases, and that no round has a blocking pair within its
subgraph and capacities. One round's audit costs time proportional to its edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush, heapreplace
from operator import sub
from typing import Sequence

from .model import (
    UNMATCHED,
    HrsInstance,
    Matching,
    ValidationReport,
    matching_to_json,
    occupancies,
)
from .partition import OrderedPartition, _size_classes, validate_ordered_partition
from .verify import _agent_lists, _residual_pairs


@dataclass(frozen=True)
class SolveRound:
    index: int                      # 1-based round number
    agents: tuple[int, ...]         # the class processed this round
    residual_caps: tuple[int, ...]
    matching: Matching              # pairs added this round


@dataclass(frozen=True)
class SolveTrace:
    partition: OrderedPartition
    rounds: tuple[SolveRound, ...]
    cumulative: tuple[Matching, ...]
    final: Matching


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
    room = list(residual_caps)
    if len(room) != inst.n_hospitals:
        raise ValueError("residual capacity vector has wrong length")
    if any(r < 0 for r in room):
        raise ValueError("negative residual capacity")
    assign = [UNMATCHED] * inst.n_agents
    seen: set[int] = set()
    for a in class_agents:
        if not 0 <= a < inst.n_agents:
            raise ValueError(f"class agent index {a} out of range")
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
    """Run all rounds of the partition in order and return the full trace."""
    _check_partition(inst, partition)
    room = list(inst.caps)
    kernel = _Kernel(inst, room)
    cum_assign = [UNMATCHED] * inst.n_agents
    rounds: list[SolveRound] = []
    cumulative: list[Matching] = []
    for k, cls in enumerate(partition.classes, start=1):
        residual = tuple(room)
        round_assign = [UNMATCHED] * inst.n_agents
        kernel.round(cls, inst.sizes[cls[0]], round_assign)  # a valid class is nonempty
        for a in cls:
            h = round_assign[a]
            if h != UNMATCHED:
                cum_assign[a] = h
        rounds.append(SolveRound(k, cls, residual, Matching(round_assign)))
        cumulative.append(Matching(cum_assign))
    final = cumulative[-1] if cumulative else Matching.empty(inst)
    return SolveTrace(partition, tuple(rounds), tuple(cumulative), final)


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
    """Audit a trace against the round invariants; empty report on success.

    A round's checks visit only its own agents and edges; the whole instance
    is walked only to locate a fault that has already been detected."""
    report = ValidationReport()
    part_report = validate_ordered_partition(inst, trace.partition)
    for issue in part_report.issues:
        report.add(issue.severity, issue.location, issue.message)
    if len(trace.rounds) != len(trace.partition.classes):
        report.add("error", "trace", "round count differs from class count")
        return report
    if len(trace.cumulative) != len(trace.rounds):
        report.add("error", "trace", "cumulative count differs from round count")
        return report

    # rounds must use exactly their class; each round's own blocking audit
    # runs here too and is reported last. round_matched[k] lists the agents
    # round k matched, ascending
    n_agents = inst.n_agents
    agent_prefs = inst.agent_prefs
    round_matched: list[list[int]] = []
    blocking_issues: list[tuple[str, str]] = []
    for rnd, cls in zip(trace.rounds, trace.partition.classes):
        loc = f"round {rnd.index}"
        if tuple(sorted(rnd.agents)) != tuple(sorted(cls)):
            report.add("error", loc, "round agents differ from partition class")
        assign = rnd.matching.assign
        agent_set, agents, matched = _agent_lists(n_agents, assign, rnd.agents)
        round_matched.append(matched)
        for a in matched:
            h = assign[a]
            if a not in agent_set:
                report.add("error", loc, f"matched agent {inst.agent_labels[a]} outside class")
            if a not in agent_set or h not in agent_prefs[a]:
                report.add("error", loc, f"matched pair ({a}, {h}) outside round edges")
        try:
            # find_blocking_pairs_residual on the agent lists built above
            blocking = _residual_pairs(
                inst, assign, rnd.residual_caps, agent_set, agents, matched
            )
        except ValueError as exc:
            blocking_issues.append((loc, str(exc)))
            continue
        for w in blocking:
            blocking_issues.append((
                loc,
                f"round blocking pair ({inst.agent_labels[w.agent]}, "
                f"{inst.hospital_labels[w.hospital]})",
            ))

    # cumulative[k] must equal cumulative[k-1] plus this round's pairs, and
    # the final matching exactly the union of round matchings. Both are
    # checked on assignment vectors; an agent given two hospitals cannot be
    # part of any matching, so it fails the comparison
    prev_assign = (UNMATCHED,) * n_agents
    union = [UNMATCHED] * n_agents
    union_ok = True
    consistent: list[bool] = []
    for rnd, cum, matched in zip(trace.rounds, trace.cumulative, round_matched):
        assign = rnd.matching.assign
        expected = list(prev_assign)
        ok = True
        for a in matched:
            h = assign[a]
            ok = ok and expected[a] in (UNMATCHED, h)
            union_ok = union_ok and union[a] in (UNMATCHED, h)
            expected[a] = union[a] = h
        ok = ok and tuple(expected) == cum.assign
        if not ok:
            report.add("error", f"round {rnd.index}", "cumulative matching is not the union so far")
        consistent.append(ok)
        prev_assign = cum.assign
    if not (union_ok and tuple(union) == trace.final.assign):
        report.add("error", "final", "final matching differs from union of rounds")

    # a round's residual capacities are what the cumulative matching before it
    # leaves, and occupancy never decreases; a cumulative matching that adds
    # exactly its round's pairs cannot lower one, so only the others are recounted
    sizes = inst.sizes
    prev_occ = [0] * inst.n_hospitals
    prev_assign = (UNMATCHED,) * n_agents
    for rnd, cum, matched, ok in zip(trace.rounds, trace.cumulative, round_matched, consistent):
        if list(map(sub, inst.caps, prev_occ)) != list(rnd.residual_caps):
            report.add(
                "error", f"round {rnd.index}",
                "residual capacities differ from capacities minus earlier occupancy",
            )
        if ok:
            occ = prev_occ[:]
            for a in matched:
                if prev_assign[a] == UNMATCHED:
                    occ[cum.assign[a]] += sizes[a]
        else:
            occ = occupancies(inst, cum)
            for h in range(inst.n_hospitals):
                if occ[h] < prev_occ[h]:
                    report.add(
                        "error", f"round {rnd.index}",
                        f"occupancy of {inst.hospital_labels[h]} decreased",
                    )
        prev_occ = occ
        prev_assign = cum.assign

    for loc, message in blocking_issues:
        report.add("error", loc, message)
    return report


def trace_to_json(inst: HrsInstance, trace: SolveTrace) -> dict:
    return {
        "partition": [
            [inst.agent_labels[a] for a in cls] for cls in trace.partition.classes
        ],
        "provenance": trace.partition.provenance,
        "rounds": [
            {
                "k": rnd.index,
                "agents": [inst.agent_labels[a] for a in rnd.agents],
                "edges": [
                    [inst.agent_labels[a], inst.hospital_labels[h]]
                    for a in rnd.agents
                    for h in inst.agent_prefs[a]
                ],
                "residual_caps": {
                    inst.hospital_labels[h]: rnd.residual_caps[h]
                    for h in range(inst.n_hospitals)
                },
                "matching": matching_to_json(inst, rnd.matching),
            }
            for rnd in trace.rounds
        ],
        "cumulative": [matching_to_json(inst, m) for m in trace.cumulative],
        "final": matching_to_json(inst, trace.final),
    }
