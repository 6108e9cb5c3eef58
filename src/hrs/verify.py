"""Blocking-pair detection and stability predicates.

Two notions are checked. A pair (a, h) not in the matching *blocks* it in the
classic sense when a prefers h to its assignment and h can fit a after
evicting some set X of strictly lower-preferred residents. The *occupancy*
variant additionally requires the eviction set to free at most s(a) positions,
so the hospital never loses occupancy by the swap. A matching is stable
(resp. occupancy-stable) when no pair of that kind blocks it.

Every verifier runs one scan. It first builds an eviction table per hospital
with residents: the residents sorted by the hospital's rank, and over each
suffix of that order (worst-ranked upward) the evictable size total and the
reachable subset sums as an integer bitset masked to the largest agent size.
Building costs O(sum_h |M(h)| log |M(h)|). A candidate pair (a, h) then costs
one bisect for a's rank, O(log |M(h)|), and one comparison (classic: total >=
the size that must be freed) or one shift and mask (occupancy: a reachable sum
between that size and s(a)).

Witnesses are rebuilt only for pairs that block: they take the smallest
achievable eviction total and, among those, the lexicographically smallest
agent set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .model import (
    UNMATCHED,
    HrsInstance,
    Matching,
    is_feasible,
)

CLASSIC = "classic"
OCCUPANCY = "occupancy"


@dataclass(frozen=True)
class BlockingWitness:
    """One blocking pair together with a concrete eviction set."""

    agent: int
    hospital: int
    displaced: tuple[int, ...]
    kind: str

    def to_json(self, inst: HrsInstance) -> dict:
        return {
            "agent": inst.agent_labels[self.agent],
            "hospital": inst.hospital_labels[self.hospital],
            "displaced": [inst.agent_labels[b] for b in self.displaced],
            "kind": self.kind,
        }


def _suffix_reachable(sizes: Sequence[int], limit: int) -> list[int]:
    # suffix[i] = bitset of subset sums of sizes[i:], truncated to <= limit
    mask = (1 << (limit + 1)) - 1
    suffix = [0] * (len(sizes) + 1)
    suffix[len(sizes)] = 1
    for i in range(len(sizes) - 1, -1, -1):
        b = suffix[i + 1]
        suffix[i] = (b | (b << sizes[i])) & mask
    return suffix


def _min_sum_eviction(
    members: Sequence[int], sizes: Sequence[int], lo: int, hi: int
) -> tuple[int, ...] | None:
    """Subset of members with size-sum in [lo, hi], minimizing the sum and then
    lexicographic on (index-sorted) members; None when no subset qualifies."""
    if lo <= 0:
        return ()
    if hi < lo:
        return None
    suffix = _suffix_reachable(sizes, hi)
    reachable = suffix[0]
    target = next((t for t in range(lo, hi + 1) if (reachable >> t) & 1), None)
    if target is None:
        return None
    chosen = []
    need = target
    for i, s in enumerate(sizes):
        if need == 0:
            break
        if s <= need and (suffix[i + 1] >> (need - s)) & 1:
            chosen.append(members[i])
            need -= s
    return tuple(chosen)


def _eviction_table(
    members: Sequence[int], rank: dict[int, int], sizes: Sequence[int], limit: int | None
) -> tuple[list[int], list[int], list[int]]:
    """One hospital's residents sorted by rank, their ranks, and over each
    suffix of that order (the worst-ranked residents) what evicting some of
    them can free: the total size when ``limit`` is None, otherwise the bitset
    of reachable subset sums masked by ``limit``."""
    order = sorted(members, key=rank.__getitem__)
    if limit is not None:
        suffix = [1]
        for b in reversed(order):
            bits = suffix[-1]
            suffix.append((bits | (bits << sizes[b])) & limit)
    else:
        suffix = list(accumulate([sizes[b] for b in reversed(order)], initial=0))
    suffix.reverse()
    return order, [rank[b] for b in order], suffix


def _scan_pairs(
    inst: HrsInstance,
    assign: Sequence[int],
    kind: str,
    caps: Sequence[int],
    agents: Iterable[int],
    collect: bool,
    out: list[BlockingWitness] | None,
) -> bool:
    """Walk candidate pairs of ``agents`` (ascending) in canonical order (agent
    index, then that agent's preference order). Only those agents' assignments
    count as residents. Returns True if any pair blocks; fills ``out`` with
    all witnesses when collecting.

    A hospital's eviction table is built on its first pair that needs an
    eviction; each such pair is then a bisect on rank plus one comparison
    (classic) or one shift and mask (occupancy).
    """
    sizes = inst.sizes
    hospital_rank = inst.hospital_rank
    occupancy = kind == OCCUPANCY
    free = list(caps)
    residents: dict[int, list[int]] = {}
    for a in agents:
        h = assign[a]
        if h != UNMATCHED:
            free[h] -= sizes[a]
            if h in residents:
                residents[h].append(a)
            else:
                residents[h] = [a]
    tables: list[tuple[list[int], list[int], list[int]] | None] = [None] * len(free)
    # occupancy evicts at most s(a) <= the largest size, so longer sums never matter
    limit = (1 << (max(sizes, default=0) + 1)) - 1 if occupancy else None
    agent_prefs = inst.agent_prefs
    edge_ranks = inst.agent_pref_hranks_neg
    found = False
    for a in agents:
        cur = assign[a]
        s_a = sizes[a]
        for h, neg_rank in zip(agent_prefs[a], edge_ranks[a]):
            if h == cur:
                break  # remaining hospitals are not preferred to the assignment
            need = s_a - free[h]
            if need > 0:
                table = tables[h]
                if table is None:
                    table = tables[h] = _eviction_table(
                        residents.get(h, ()), hospital_rank[h], sizes, limit
                    )
                order, ranks, evictable = table
                i = bisect_right(ranks, -neg_rank)
                # free[h] >= 0 on a feasible matching, so need <= s(a) here
                if occupancy:
                    if not (evictable[i] >> need) & ((1 << (free[h] + 1)) - 1):
                        continue
                elif evictable[i] < need:
                    continue
            found = True
            if not collect:
                return True
            if need <= 0:
                witness: tuple[int, ...] = ()
            else:
                lower = sorted(order[i:])  # index order fixes the tie-break
                lower_sizes = [sizes[b] for b in lower]
                hi = s_a if occupancy else sum(lower_sizes)
                witness = _min_sum_eviction(lower, lower_sizes, need, hi)
            out.append(BlockingWitness(a, h, witness, kind))
    return found


def _require_feasible(inst: HrsInstance, matching: Matching) -> None:
    ok, msg = is_feasible(inst, matching)
    if not ok:
        raise ValueError(f"infeasible matching: {msg}")


def _scan_all(inst: HrsInstance, matching: Matching, kind: str, collect: bool,
              out: list[BlockingWitness] | None) -> bool:
    _require_feasible(inst, matching)
    return _scan_pairs(
        inst, matching.assign, kind, inst.caps, range(inst.n_agents), collect, out
    )


def find_blocking_pairs(inst: HrsInstance, matching: Matching) -> list[BlockingWitness]:
    """All classic blocking pairs, each with one valid eviction set."""
    out: list[BlockingWitness] = []
    _scan_all(inst, matching, CLASSIC, True, out)
    return out


def find_occupancy_blocking_pairs(inst: HrsInstance, matching: Matching) -> list[BlockingWitness]:
    """All occupancy-blocking pairs (eviction total bounded by the incoming size)."""
    out: list[BlockingWitness] = []
    _scan_all(inst, matching, OCCUPANCY, True, out)
    return out


def find_blocking_pairs_residual(
    inst: HrsInstance,
    matching: Matching,
    residual_caps: Sequence[int],
    agents: Iterable[int],
) -> list[BlockingWitness]:
    """Classic blocking pairs among the given agents under substitute
    capacities; used to audit one solver round at a time.

    The subgraph is every edge of the given agents; out-of-range indices are
    ignored. The matching must match only those agents, along their lists,
    within the residual capacities. Work is proportional to the agents' edges
    plus C-speed passes over the capacity and assignment vectors, so auditing
    every round of a solve costs about one full scan.
    """
    residual_caps = list(residual_caps)
    if len(residual_caps) != inst.n_hospitals:
        raise ValueError("residual capacity vector has wrong length")
    if residual_caps and min(residual_caps) < 0:
        raise ValueError("negative residual capacity")
    n_agents = inst.n_agents
    agent_set = {a for a in agents if 0 <= a < n_agents}
    agents = sorted(agent_set)
    assign = matching.assign
    matched = [a for a in agents if assign[a] != UNMATCHED]
    if len(matched) != len(assign) - assign.count(UNMATCHED):
        # some matched agent lies outside the given ones: check every agent so
        # the report names the same first fault as a full scan would
        matched = [a for a, h in enumerate(assign) if h != UNMATCHED]
    sizes = inst.sizes
    occ: dict[int, int] = {}
    for a in matched:
        h = assign[a]
        occ[h] = occ.get(h, 0) + sizes[a]
    for h in sorted(occ):
        if occ[h] > residual_caps[h]:
            raise ValueError(
                f"matching infeasible under residual capacities at {inst.hospital_labels[h]}"
            )
    for a in matched:
        h = assign[a]
        if a not in agent_set or h not in inst.agent_rank[a]:
            raise ValueError(
                f"matched pair ({inst.agent_labels[a]}, {inst.hospital_labels[h]}) "
                "outside the given subgraph"
            )
    out: list[BlockingWitness] = []
    _scan_pairs(inst, assign, CLASSIC, residual_caps, agents, True, out)
    return out


def is_stable(inst: HrsInstance, matching: Matching) -> bool:
    return not _scan_all(inst, matching, CLASSIC, False, None)


def is_occupancy_stable(inst: HrsInstance, matching: Matching) -> bool:
    return not _scan_all(inst, matching, OCCUPANCY, False, None)


def is_a_perfect(inst: HrsInstance, matching: Matching) -> bool:
    """True when every agent is matched."""
    _require_feasible(inst, matching)
    return UNMATCHED not in matching.assign


def make_blocking_tester(
    inst: HrsInstance, kind: str = CLASSIC
) -> Callable[[Sequence[int], Sequence[int]], bool]:
    """Fast existence-only test over raw (assign, occupancy) arrays, for use in
    enumeration inner loops. Assumes the assignment is feasible."""
    if kind not in (CLASSIC, OCCUPANCY):
        raise ValueError(f"unknown blocking kind {kind!r}")
    n_agents = inst.n_agents
    n_hospitals = inst.n_hospitals
    sizes = inst.sizes
    caps = inst.caps
    agent_prefs = inst.agent_prefs
    edge_ranks = inst.agent_pref_hranks_neg
    hospital_rank = inst.hospital_rank
    occupancy_kind = kind == OCCUPANCY

    def has_blocking(assign: Sequence[int], occ: Sequence[int]) -> bool:
        matched_at: list[list[int]] = [[] for _ in range(n_hospitals)]
        for a in range(n_agents):
            h = assign[a]
            if h >= 0:
                matched_at[h].append(a)
        for a in range(n_agents):
            cur = assign[a]
            s_a = sizes[a]
            for h, neg_rank in zip(agent_prefs[a], edge_ranks[a]):
                if h == cur:
                    break
                need = occ[h] + s_a - caps[h]
                if need <= 0:
                    return True
                ranks = hospital_rank[h]
                rank_a = -neg_rank
                if occupancy_kind:
                    if need > s_a:
                        continue
                    bits = 1
                    for b in matched_at[h]:
                        if ranks[b] > rank_a:
                            bits |= bits << sizes[b]
                    if (bits >> need) & ((1 << (s_a - need + 1)) - 1):
                        return True
                else:
                    removable = 0
                    for b in matched_at[h]:
                        if ranks[b] > rank_a:
                            removable += sizes[b]
                    if removable >= need:
                        return True
        return False

    return has_blocking
