"""Blocking-pair detection and stability predicates.

Two notions are checked. A pair (a, h) not in the matching *blocks* it in the
classic sense when a prefers h to its assignment and h can fit a after
evicting some set X of strictly lower-preferred residents. The *occupancy*
variant additionally requires the eviction set to free at most s(a) positions,
so the hospital never loses occupancy by the swap. A matching is stable
(resp. occupancy-stable) when no pair of that kind blocks it.

Every verifier runs one scan, ``_scan_pairs``. It first places the matching
with ``_placed``, one pass that also checks the feasibility rule (listed pairs
of the allowed agents within capacity); on a fault it raises ValueError with
``model._feasibility_fault``'s message, as ``is_feasible`` reports it. The
residual finder scans one round's agents under its capacities.

In the scan, a hospital's eviction table is built on its first candidate
pair that needs an eviction: its residents sorted by its rank (read off each
resident's own list as the matching is placed), and over each suffix of that
order (worst-ranked upward) the evictable size total and the reachable subset
sums as an integer bitset masked to the largest agent size. Building costs
O(|M(h)| log |M(h)|).

The pair test is written once, in ``_frees``: for an agent that needs more
room than h has free, can evicting residents h ranks below it free enough?
What those residents can free only grows as the agent's rank improves, so in
the scan whether a pair blocks comes down to the agent's rank beating a limit
that depends on h and the agent's size alone, found by a binary search over
the table (``_rank_bound``) on first use. The scan keeps one list of these
limits per agent size, indexed by hospital: a candidate pair costs one list
index and one comparison. The oracle's close check, ``_hospital_blocks``,
tests one hospital's pairs in one walk up its list.

Witnesses are rebuilt only for pairs that block: they take the smallest
achievable eviction total and, among those, the lexicographically smallest
agent set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .model import UNMATCHED, HrsInstance, Matching, _feasibility_fault

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


def _suffix_reachable(sizes: Sequence[int], mask: int | None) -> list[int]:
    """Over each suffix ``sizes[i:]``, what evicting some of those agents can
    free: the total when ``mask`` is None, otherwise the bitset of reachable
    subset sums masked by ``mask``. Index len(sizes) is the empty suffix."""
    if mask is None:
        return list(accumulate(reversed(sizes), initial=0))[::-1]
    suffix = [1]
    for s in reversed(sizes):
        bits = suffix[-1]
        suffix.append((bits | (bits << s)) & mask)
    suffix.reverse()
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
    suffix = _suffix_reachable(sizes, (1 << (hi + 1)) - 1)
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


def _eviction_mask(sizes: Sequence[int], kind: str) -> int | None:
    """The eviction sums a pair test of ``kind`` needs: any total for classic
    (None); for occupancy at most the incoming size, so the largest size."""
    return (1 << (max(sizes, default=0) + 1)) - 1 if kind == OCCUPANCY else None


def _frees(reach: int, need: int, room: int, occupancy: bool) -> bool:
    """The pair test, for an agent that needs ``need`` more than its
    hospital's free ``room``: can evicting some of the residents ranked below
    it, whose reachable sums are ``reach`` (as in ``_suffix_reachable``), free
    at least ``need``, and for occupancy at most ``need + room``, its size?"""
    if occupancy:
        return reach & (((1 << (room + 1)) - 1) << need) != 0
    return reach >= need


def _rank_bound(
    order: list[int], evictable: list[int], rank: Sequence[int],
    need: int, room: int, occupancy: bool,
) -> int:
    """An agent that needs ``need`` more than the hospital's free ``room``
    passes ``_frees`` exactly when the hospital ranks it better than the
    returned rank. What the worst-ranked residents can free only grows as
    the agent's rank improves, so a binary search over the hospital's
    eviction table (``order`` and its ``evictable`` suffixes) finds it."""
    lo, hi = 0, len(order)  # the empty suffix frees nothing
    while lo < hi:
        mid = (lo + hi) // 2
        if _frees(evictable[mid], need, room, occupancy):
            lo = mid + 1
        else:
            hi = mid
    # the residents from position lo on cannot free enough
    return rank[order[lo - 1]] if lo else 0


def _scan_pairs(
    inst: HrsInstance,
    matching: Matching,
    kind: str,
    out: list[BlockingWitness] | None = None,
    caps: Sequence[int] | None = None,
    agents: Sequence[int] | None = None,
) -> bool:
    """Place the matching with ``_placed`` (same ``caps`` and ``agents``),
    then walk candidate pairs of ``agents`` (ascending; all when None) in
    canonical order (agent index, then that agent's preference order).
    Returns True if any pair blocks; fills ``out``, when given, with all
    witnesses.

    A pair blocks exactly when its negated hospital-side rank is above its
    hospital's entry in the limit list of the agent's size. Entries start at
    ``unset``, below every negated rank, so a first test falls through to
    ``_rank_bound``; a hospital with room for the agent keeps ``unset``.
    """
    free, residents, held = _placed(inst, matching, caps, agents)
    assign = matching.assign
    sizes = inst.sizes
    occupancy = kind == OCCUPANCY
    # per hospital: residents in rank order and their suffixes' evictable sums
    n_h = len(free)
    tables: list[tuple[list[int], list[int]] | None] = [None] * n_h
    unset = -len(sizes)  # below every negated rank
    limits: dict[int, list[int]] = {}  # agent size -> negated rank limit per hospital
    mask = 0  # _eviction_mask(sizes, kind), set by the first table
    agent_prefs = inst.agent_prefs
    edge_ranks = inst.agent_pref_hranks_neg
    found = False
    for a in range(len(sizes)) if agents is None else agents:
        cur = assign[a]
        prefs = agent_prefs[a]
        if not prefs or prefs[0] == cur:
            continue  # no hospital preferred to the assignment
        s_a = sizes[a]
        limit = limits.get(s_a)
        if limit is None:
            limit = limits[s_a] = [unset] * n_h
        for h, neg_rank in zip(prefs, edge_ranks[a]):
            if h == cur:
                break  # remaining hospitals are not preferred to the assignment
            if neg_rank <= limit[h]:
                continue
            need = s_a - free[h]
            if need > 0 and limit[h] == unset:
                table = tables[h]
                if table is None:
                    if mask == 0:
                        mask = _eviction_mask(sizes, kind)
                    order = sorted(residents.get(h, ()), key=held.__getitem__)
                    table = tables[h] = (order, _suffix_reachable([sizes[b] for b in order], mask))
                order, evictable = table
                bound = limit[h] = -_rank_bound(order, evictable, held, need, free[h], occupancy)
                if neg_rank <= bound:
                    continue
            found = True
            if out is None:
                return True
            if need <= 0:
                witness: tuple[int, ...] = ()
            else:
                order = tables[h][0]
                below = bisect_right(order, -neg_rank, key=held.__getitem__)
                lower = sorted(order[below:])  # index order fixes the tie-break
                lower_sizes = [sizes[b] for b in lower]
                hi = s_a if occupancy else sum(lower_sizes)
                witness = _min_sum_eviction(lower, lower_sizes, need, hi)
            out.append(BlockingWitness(a, h, witness, kind))
    return found


def _hospital_blocks(
    inst: HrsInstance, mask: int | None, assign: Sequence[int], occ: Sequence[int],
    h: int, agent: int | None,
) -> bool:
    """Whether some agent on h's list (only ``agent``, when given) blocks with
    h: the oracle's close check, once every agent that could still be placed
    at h is placed. ``mask`` is ``_eviction_mask`` of the blocking kind,
    ``assign`` holds every agent's hospital and ``occ`` every hospital's
    occupancy. One walk up h's list from its worst-ranked agent adds each
    resident to what evicting the residents so far can free, so each other
    agent meets ``_frees`` with exactly the residents ranked below it."""
    sizes = inst.sizes
    agent_prefs = inst.agent_prefs
    room = inst.caps[h] - occ[h]
    occupancy = mask is not None
    reach = 1 if occupancy else 0  # evicting nobody
    for b in reversed(inst.hospital_prefs[h]):
        cur = assign[b]
        if cur == h:
            s = sizes[b]
            reach = (reach | (reach << s)) & mask if occupancy else reach + s
        elif agent is None or b == agent:
            if cur != UNMATCHED and agent_prefs[b].index(cur) < agent_prefs[b].index(h):
                continue  # b prefers where it is
            need = sizes[b] - room
            if need <= 0 or _frees(reach, need, room, occupancy):
                return True
    return False


def _placed(inst: HrsInstance, matching: Matching, caps: Sequence[int] | None = None,
            agents: Sequence[int] | None = None) -> tuple[list, dict, list]:
    """Each hospital's free capacity and residents (ascending), and each
    resident's rank at its hospital, from one pass over the given ``agents``
    (distinct, ascending, in range; all when None) under ``caps`` (the
    instance's when None) that also checks the feasibility rule; that no other
    agent is matched is one count over the whole assignment. A fault raises
    ValueError with ``model._feasibility_fault``'s message."""
    assign = matching.assign
    free = list(inst.caps if caps is None else caps)
    residents: dict[int, list[int]] = {}
    held = [0] * len(assign)
    ok = len(assign) == inst.n_agents
    placed: Iterable[tuple[int, int]] = enumerate(assign)
    if ok and agents is not None:
        try:
            hs = list(map(assign.__getitem__, agents))
        except TypeError:  # an agent that is no int index
            ok = False
        else:
            ok = len(hs) - hs.count(UNMATCHED) == len(assign) - assign.count(UNMATCHED)
            placed = zip(agents, hs)
    if ok:
        sizes = inst.sizes
        agent_prefs = inst.agent_prefs
        edge_ranks = inst.agent_pref_hranks_neg
        for a, h in placed:
            if h == UNMATCHED:
                continue
            try:
                held[a] = -edge_ranks[a][agent_prefs[a].index(h)]
                free[h] -= sizes[a]
            except (ValueError, TypeError):  # not on a's list, or a float equal to an index on it
                break
            if h in residents:
                residents[h].append(a)
            else:
                residents[h] = [a]
        else:  # only a resident's hospital went down from a capacity >= 0
            if min(map(free.__getitem__, residents), default=0) >= 0:
                return free, residents, held
    msg = _feasibility_fault(inst, matching, caps, agents)
    raise ValueError(f"infeasible matching: {msg}")


def _residual_caps(inst: HrsInstance, residual_caps: Iterable[int]) -> tuple[int, ...]:
    """The capacities, read once, after checking that they give each
    hospital a non-negative residual capacity; ValueError otherwise."""
    caps = tuple(residual_caps)
    if len(caps) != inst.n_hospitals:
        raise ValueError("residual capacity vector has wrong length")
    if caps and min(caps) < 0:
        raise ValueError("negative residual capacity")
    return caps


def find_blocking_pairs(inst: HrsInstance, matching: Matching) -> list[BlockingWitness]:
    """All classic blocking pairs, each with one valid eviction set."""
    out: list[BlockingWitness] = []
    _scan_pairs(inst, matching, CLASSIC, out)
    return out


def find_occupancy_blocking_pairs(inst: HrsInstance, matching: Matching) -> list[BlockingWitness]:
    """All occupancy-blocking pairs (eviction total bounded by the incoming size)."""
    out: list[BlockingWitness] = []
    _scan_pairs(inst, matching, OCCUPANCY, out)
    return out


def find_blocking_pairs_residual(
    inst: HrsInstance,
    matching: Matching,
    residual_caps: Iterable[int],
    agents: Iterable[int],
) -> list[BlockingWitness]:
    """Classic blocking pairs among the given agents under substitute
    capacities; used to audit one solver round at a time.

    The subgraph is every edge of the given agents; out-of-range indices are
    ignored, and an entry that is no int index raises ValueError. The matching
    must match only those agents, along their lists, within the residual
    capacities; ``_placed`` raises ValueError if not. Work is proportional to
    the agents' edges plus C-speed passes over the capacity and assignment
    vectors, so auditing every round of a solve costs about one full scan.
    """
    residual_caps = _residual_caps(inst, residual_caps)
    given = set(agents)
    try:
        ordered = sorted(given)
        if ordered and (ordered[0] < 0 or ordered[-1] >= inst.n_agents):
            ordered = [a for a in ordered if 0 <= a < inst.n_agents]
    except TypeError:  # an entry that no int compares with, which _placed names
        ordered = [a for a in given if not isinstance(a, int) or 0 <= a < inst.n_agents]
    out: list[BlockingWitness] = []
    _scan_pairs(inst, matching, CLASSIC, out, residual_caps, ordered)
    return out


def is_stable(inst: HrsInstance, matching: Matching) -> bool:
    return not _scan_pairs(inst, matching, CLASSIC)


def is_occupancy_stable(inst: HrsInstance, matching: Matching) -> bool:
    return not _scan_pairs(inst, matching, OCCUPANCY)


def is_a_perfect(inst: HrsInstance, matching: Matching) -> bool:
    """True when every agent is matched."""
    _placed(inst, matching)
    return UNMATCHED not in matching.assign
