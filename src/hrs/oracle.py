"""Exact brute-force ground truth on small instances.

Every query is a loop over one explicit-stack search, ``_search``. It places
agents one position at a time, each on a hospital of its list with enough
residual capacity or nowhere (tried last), and counts one node per descent.
Whether a pair (b, h) blocks depends only on b's hospital and h's residents,
so it is final once b and every agent that may still be placed at h are
placed. At each position a close check tests the pairs that have just become
final, through ``verify._hospital_blocks``, and cuts the branch when one
blocks, so every leaf is unblocked. Every bound in the budget (node count,
wall clock, solution cap) stops the query with an explicit
``budget_exhausted`` verdict and the matchings it has built so far.

Canonical order compares matchings agent by agent, by each agent's hospital's
position on that agent's list, unmatched last: the order in which a search
that places agents by index finds them. The optimisation queries run that
search (``_stable_leaves``), testing a hospital at its last listing agent.
``max-occ`` also cuts a branch once its matched size plus the sizes of all
agents still to come cannot beat the best value found. ``a-perfect`` is that
search started one below the total size, which cuts every unmatched branch.

Both enumeration queries, ``stable`` and ``occ-stable``, run one component
search (``_component_matchings``), given the notion. It searches each
connected component of the instance alone, and places its agents in a
closing order (``_closing_order``): next is the agent that closes the most
hospitals, so their pairs become final early. Classic stability also makes a
pair (b, h) final as soon as b and the agents h ranks above b are placed, and
the search tests it there (``_closer``). The matchings are the product of the
components' unblocked assignments, sorted in canonical order, and a component
with none settles the query at once. Every component finds one assignment
before any runs in full, so a bound that trips after that still leaves a
witness. Each leaf found pays for one matching of the product, and every
matching past those costs a node.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .model import UNMATCHED, HrsError, HrsInstance, Matching
from .reduce import SmtiInstance, SmtiMatching, is_weakly_stable
from . import verify

COMPLETE = "complete"
EXHAUSTED = "budget_exhausted"

_ZEROS = itertools.repeat(0)  # map(d.get, keys, _ZEROS) reads 0 for a missing key


class BudgetExhausted(HrsError):
    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


@dataclass
class SearchBudget:
    """Bounds for one oracle call. ``deadline`` is seconds of wall clock."""

    max_nodes: int = 10_000_000
    max_solutions: int | None = None
    deadline: float | None = None

    def __post_init__(self):
        if self.max_nodes < 0 or (self.max_solutions is not None and self.max_solutions < 0):
            raise ValueError("search budget bounds must be non-negative")


@dataclass
class OracleResult:
    verdict: str
    matchings: list[Matching]
    value: int | None
    nodes: int

    @property
    def complete(self) -> bool:
        return self.verdict == COMPLETE

    def to_json(self, inst: HrsInstance) -> dict:
        from .model import matching_to_json

        witness = self.matchings[0] if self.matchings else None
        return {
            "verdict": self.verdict,
            "count": len(self.matchings),
            "value": self.value,
            "witness": matching_to_json(inst, witness) if witness is not None else None,
            "nodes": self.nodes,
        }


class _Ticker:
    """Shared node counter enforcing max_nodes and the deadline."""

    __slots__ = ("nodes", "limit", "t_end")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.max_nodes
        self.t_end = time.monotonic() + budget.deadline if budget.deadline is not None else None

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExhausted(self.nodes)
        if self.t_end is not None and (self.nodes & 2047) == 0 and time.monotonic() > self.t_end:
            raise BudgetExhausted(self.nodes)


def _search(
    sizes: Sequence[int],
    caps: Sequence[int],
    prefs: Sequence[Sequence[int]],
    ticker: _Ticker,
    floor: list[int] | None = None,
    close: Sequence[Sequence[tuple[int, int | None]]] | None = None,
    blocks: Callable[..., bool] | None = None,
    order: Sequence[int] | None = None,
    assign: list[int] | None = None,
    occ: list[int] | None = None,
) -> Iterator[tuple[list[int], int]]:
    """Depth-first sweep over feasible assignments, in canonical order: the
    agents of ``order`` (default: all, by index), each first to every hospital
    of ``prefs[a]`` with room, in list order, then to nothing. The others keep
    their hospital in the starting ``assign``, whose occupancies ``occ`` holds
    (both or neither; default: nobody matched); a sweep that runs through
    every branch leaves both as it found them. Yields the live
    ``(assign, size placed)`` at each leaf; the caller copies what it keeps.
    Each descent ticks once.

    Once the first k agents are placed, and before the k-th descent ticks,
    ``blocks(assign, occ, h, agent)`` runs on each (h, agent) of ``close[k]``
    and asks whether a pair that has just become final blocks; True cuts the
    branch (for k = 0, everything). A branch is also cut when its placed size
    plus the sizes of all later agents with a nonempty list is at most
    ``floor[0]``, which the caller may raise between leaves; a floor no branch
    can beat ends the sweep there. The stack is explicit, so the agent count
    is not bounded by the recursion limit."""
    order = range(len(sizes)) if order is None else order
    n = len(order)
    floor = floor if floor is not None else [-1]
    if assign is None:
        assign, occ = [UNMATCHED] * len(sizes), [0] * len(caps)
    close = close or [()] * (n + 1)
    test = partial(blocks, assign, occ) if blocks else None
    sizes_at = list(map(sizes.__getitem__, order))
    options_at = list(map(prefs.__getitem__, order))
    widths = list(map(len, options_at))
    # rest[p]: the most that positions p.. can still add to the matched size
    rest = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        rest[p] = rest[p + 1] + (sizes_at[p] if widths[p] else 0)
    if rest[0] <= floor[0] or any(test(h, b) for h, b in close[0]):
        return
    # choice[p]: position in the options of p's next branch; widths[p] is the
    # unmatched branch, anything past it means p's branches are exhausted
    choice = [0] * (n + 1)
    tick = ticker.tick
    lo = floor[0]
    value = 0
    p = 0
    while p >= 0:
        if p == n:
            yield assign, value
            lo = floor[0]  # the caller may have raised it
            if lo >= rest[0]:
                return  # no branch can beat it
            p -= 1
            continue
        b = order[p]
        s = sizes_at[p]
        h = assign[b]
        if h != UNMATCHED:  # back from the branch b -> h
            assign[b] = UNMATCHED
            occ[h] -= s
            value -= s
            # a descent keeps value + rest[p] above the floor, which rises
            # only at a leaf: only a branch taken back can fall to it
            if value + rest[p] <= lo:
                p -= 1
                continue
        i = choice[p]
        width = widths[p]
        options = options_at[p]
        while i < width:
            h = options[i]
            i += 1
            if occ[h] + s <= caps[h]:
                assign[b] = h
                occ[h] += s
                value += s
                break
        else:
            if i > width or value + rest[p + 1] <= lo:
                p -= 1
                continue
            i += 1  # the unmatched branch
        choice[p] = i
        for hospital, agent in close[p + 1]:
            if test(hospital, agent):
                break  # the next pass takes this branch back and tries the next
        else:
            tick()
            p += 1
            choice[p] = 0


def _closer(
    inst: HrsInstance, order: Sequence[int], hospitals: Iterable[int], kind: str
) -> list[list[tuple[int, int | None]]]:
    """The close checks of a ``_search`` over ``order`` for notion ``kind``:
    the k-th list holds the (hospital, agent) tests of the pairs final once
    the first k agents are placed. Agents outside ``order`` count as placed
    from the start. A hospital's pairs are all final at its last listing
    agent: one test (h, None). A classic pair (b, h) is also final once b and
    every agent h ranks above b are placed: whether it blocks depends on b's
    hospital and h's residents above b alone, since a resident below b adds as
    much to what evicting can free as it takes from h's room. It is tested
    there, (h, b), when that comes earlier."""
    placed = dict(zip(order, itertools.count(1)))
    final: list[list[tuple[int, int | None]]] = [[] for _ in range(len(order) + 1)]
    for h in hospitals:
        listed = inst.hospital_prefs[h]
        if listed:
            reach = list(itertools.accumulate(map(placed.get, listed, _ZEROS), max))
            last = reach[-1]
            if kind == verify.CLASSIC:
                for b, k in zip(listed, reach):
                    if k == last:
                        break
                    final[k].append((h, b))
            final[last].append((h, None))
    return final


def enumerate_feasible(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once, in canonical search order.
    Raises BudgetExhausted when a bound trips."""
    budget = budget or SearchBudget()
    ticker = _Ticker(budget)
    for yielded, (assign, _) in enumerate(_search(inst.sizes, inst.caps, inst.agent_prefs, ticker), 1):
        yield Matching(assign)
        if budget.max_solutions is not None and yielded >= budget.max_solutions:
            raise BudgetExhausted(ticker.nodes)


def _stable_leaves(
    inst: HrsInstance, kind: str, ticker: _Ticker, floor: list[int] | None = None
) -> Iterator[tuple[list[int], int]]:
    """The index-order search with the close check of ``kind``: it cuts every
    branch with a blocking pair, so each leaf is a matching with none, and
    the leaves come in canonical order."""
    # agents are placed in index order, so a hospital's pairs are all final
    # once its highest listing agent is placed: one test (h, None) there
    close: list[list[tuple[int, int | None]]] = [[] for _ in range(inst.n_agents + 1)]
    for h, listed in enumerate(inst.hospital_prefs):
        if listed:
            close[max(listed) + 1].append((h, None))
    test = partial(verify._hospital_blocks, inst, verify._eviction_mask(inst.sizes, kind))
    return _search(inst.sizes, inst.caps, inst.agent_prefs, ticker, floor, close, test)


def stable_matchings(
    inst: HrsInstance,
    budget: SearchBudget | None = None,
    strategy: str | None = None,
    interfaces: Sequence[int] | None = None,
) -> OracleResult:
    """All stable matchings, in canonical order, from the component search of
    the module docstring. ``strategy`` and ``interfaces`` are accepted and
    ignored, for callers of the retired strategy switch and interface
    sweep."""
    return _component_matchings(inst, budget, verify.CLASSIC)


def occupancy_stable_matchings(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> OracleResult:
    """All occupancy-stable matchings, in canonical order, from the component
    search of the module docstring; nonempty whenever the search
    completes."""
    return _component_matchings(inst, budget, verify.OCCUPANCY)


def _component_matchings(inst: HrsInstance, budget: SearchBudget | None, kind: str) -> OracleResult:
    """The matchings with no blocking pair of ``kind``. Under a
    ``max_solutions`` cap of k the search returns the first k matchings it
    finds, in canonical order; they need not be the first k of the uncapped
    list."""
    budget = budget or SearchBudget()
    ticker = _Ticker(budget)
    # a component with this many solutions lets the product reach the cap
    limit = None if budget.max_solutions is None else max(budget.max_solutions, 1)
    test = partial(verify._hospital_blocks, inst, verify._eviction_mask(inst.sizes, kind))
    position = {a: p for p, a in enumerate(_closing_order(inst))}
    # components share no agent or hospital, so their searches share one
    # assign and occ, though each may be paused at a leaf or stopped at the cap
    assign, occ = [UNMATCHED] * inst.n_agents, [0] * inst.n_hospitals
    comps = _components(inst)
    searches = []
    for agents, hospitals in comps:
        order = sorted(agents, key=position.__getitem__)
        searches.append(_search(
            inst.sizes, inst.caps, inst.agent_prefs, ticker, close=_closer(inst, order, hospitals, kind),
            blocks=test, order=order, assign=assign, occ=occ,
        ))
    solutions: list[list[tuple[int, ...]]] = [[] for _ in comps]
    found: list[Matching] = []
    out = [UNMATCHED] * inst.n_agents
    verdict = COMPLETE
    try:
        # one solution of every component first, then the rest; at least one
        # matching of the product is paid for, even with no component
        for cap in (1, limit):
            for (agents, _), leaves, sols in zip(comps, searches, solutions):
                more = None if cap is None else cap - len(sols)
                sols += (tuple(leaf[a] for a in agents) for leaf, _ in itertools.islice(leaves, more))
                if not sols:
                    return OracleResult(COMPLETE, [], None, ticker.nodes)
            paid = max(sum(map(len, solutions)), 1)
            for combo in itertools.islice(itertools.product(*solutions), len(found), cap):
                if len(found) >= paid:
                    ticker.tick()
                for (agents, _), sol in zip(comps, combo):
                    for a, h in zip(agents, sol):
                        out[a] = h
                found.append(Matching(out))
    except BudgetExhausted:
        verdict = EXHAUSTED
    # each agent's rank of its hospital; unmatched, found past the list, sorts last
    ranked = [prefs + (UNMATCHED,) for prefs in inst.agent_prefs]
    found.sort(key=lambda m: list(map(tuple.index, ranked, m.assign)))
    if limit is not None and len(found) >= budget.max_solutions:
        verdict = EXHAUSTED
    return OracleResult(verdict, found, None, ticker.nodes)


def _max_stable(inst: HrsInstance, budget: SearchBudget | None, floor: int) -> OracleResult:
    """The first occupancy-stable matching of maximum total size above
    ``floor`` in search order, with its value; complete and empty when none
    is above it. A branch and bound: the floor rises to each leaf's value, so
    only a strictly larger leaf replaces the incumbent."""
    ticker = _Ticker(budget or SearchBudget())
    best: list[Matching] = []
    bound = [floor]
    verdict = COMPLETE
    try:
        for assign, value in _stable_leaves(inst, verify.OCCUPANCY, ticker, bound):
            bound[0] = value  # the cut let the leaf through: value > bound[0]
            best[:] = [Matching(assign)]
    except BudgetExhausted:
        verdict = EXHAUSTED
    return OracleResult(verdict, best, bound[0] if best else None, ticker.nodes)


def max_occupancy_stable(inst: HrsInstance, budget: SearchBudget | None = None) -> OracleResult:
    """An occupancy-stable matching of maximum total size, with its value."""
    return _max_stable(inst, budget, -1)


def exists_a_perfect_occupancy_stable(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> OracleResult:
    """Decision: is there an occupancy-stable matching with every agent
    matched? The maximum search started one below the total size: complete
    with a witness when yes, complete and empty when none reaches it."""
    return _max_stable(inst, budget, sum(inst.sizes) - 1)


def smti_complete_stable(smti: SmtiInstance) -> SmtiMatching | None:
    """First complete weakly stable matching in enumeration order (men by
    index, women in each man's list order), or None. Exhaustive; sides of at
    most 7 only."""
    if smti.n_men > 7 or smti.n_women > 7:
        raise ValueError("exhaustive marriage search limited to 7 per side")
    if smti.n_men != smti.n_women:
        return None
    n = smti.n_men
    choices = [[w for group in smti.men_prefs[m] for w in group] for m in range(n)]
    # at most 7! complete assignments: the default node budget never trips;
    # the floor n - 1 cuts every branch that leaves a man unmatched
    ticker = _Ticker(SearchBudget())
    for assign, _ in _search([1] * n, [1] * smti.n_women, choices, ticker, [n - 1]):
        candidate = SmtiMatching(assign)
        if is_weakly_stable(smti, candidate):
            return candidate
    return None


# --- components and closing order -------------------------------------------


def _components(inst: HrsInstance) -> list[tuple[list[int], list[int]]]:
    """The connected components (agents, hospitals) of the instance, each
    side sorted; every agent is in exactly one, a hospital no agent lists in
    none."""
    n_a, n_h = inst.n_agents, inst.n_hospitals
    seen_a = [False] * n_a
    seen_h = [False] * n_h
    comps: list[tuple[list[int], list[int]]] = []
    for start in range(n_a):
        if seen_a[start]:
            continue
        seen_a[start] = True
        agents, hospitals, stack = [start], [], [start]
        while stack:
            for h in inst.agent_prefs[stack.pop()]:
                if not seen_h[h]:
                    seen_h[h] = True
                    hospitals.append(h)
                    for a in inst.hospital_prefs[h]:
                        if not seen_a[a]:
                            seen_a[a] = True
                            agents.append(a)
                            stack.append(a)
        comps.append((sorted(agents), sorted(hospitals)))
    return comps


def _closing_order(inst: HrsInstance) -> list[int]:
    """Every agent, in a closing order: next is the agent that closes the most
    hospitals (it is the last unplaced agent on their lists), ties going to
    the one that opens the fewest (hospitals no placed agent lists), then to
    the lowest index. Placing an agent only raises the closes and lowers the
    opens of others, so their keys only fall, and a heap that skips stale
    keys builds the order in O(E log E). An agent's key depends only on its
    own component, so the order restricted to a component is that
    component's closing order."""
    prefs, lists = inst.agent_prefs, inst.hospital_prefs
    left = [len(listed) for listed in lists]  # each list's unplaced agents
    closes = [sum(left[h] == 1 for h in hs) for hs in prefs]
    opens = [len(hs) for hs in prefs]
    heap = [(-c, o, a) for a, (c, o) in enumerate(zip(closes, opens))]
    heapq.heapify(heap)
    done = [False] * inst.n_agents
    order = []
    while heap:
        c, o, a = heapq.heappop(heap)
        if done[a] or -c != closes[a] or o != opens[a]:
            continue
        done[a] = True
        order.append(a)
        for h in prefs[a]:
            left[h] -= 1
            closed = left[h] == 1  # one agent left: placing it closes h
            opened = left[h] + 1 == len(lists[h])  # a is the first placed
            if closed or opened:
                for b in lists[h]:
                    if not done[b]:
                        closes[b] += closed
                        opens[b] -= opened
                        heapq.heappush(heap, (-closes[b], opens[b], b))
    return order


def auto_interfaces(inst: HrsInstance, max_block_agents: int = 12) -> list[int]:
    """Always ``[]``. Kept for callers of the retired interface sweep:
    ``stable_matchings`` accepts ``interfaces=`` and ignores it."""
    return []
