"""Exact brute-force ground truth on small instances.

Every plain query is a loop over one explicit-stack search, ``_search``. It
assigns agents in index order, each to a hospital on its list that lists it
back and has enough residual capacity, or to nothing (tried last, and not at
all for ``a-perfect``), and counts one node per descent. The enumeration
queries prune on capacity only; ``max-occ`` also cuts a branch once its
matched size plus the sizes of all agents still to come cannot beat the best
stable value found. Stability predicates are evaluated at the leaves because
blocking-pair absence is not prefix-monotone. Every bound in the budget (node
count, wall clock, solution cap) aborts the sweep with an explicit
``budget_exhausted`` verdict rather than truncating silently.

The ``decompose`` strategy for the stable-matching query splits the instance
into blocks that touch each other only through a set of interface hospitals.
It enumerates, per interface hospital, every feasible set of residents it
could hold; given one combined interface state the blocks are independent, so
each block is searched on its own (with blocking pairs against the fixed
interface state checked as soon as they are decided) and the per-block
solutions are multiplied out. Distinct interface states yield distinct
matchings, so the union over states is exact. This makes the gadget-chain
instances produced by the stable-target reduction tractable.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import UNMATCHED, HrsError, HrsInstance, Matching, matching_size
from .reduce import SmtiInstance, SmtiMatching, is_weakly_stable
from . import verify

COMPLETE = "complete"
EXHAUSTED = "budget_exhausted"

PLAIN = "plain"
DECOMPOSE = "decompose"


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


class _SolutionCap(Exception):
    pass


class _Ticker:
    """Shared node counter enforcing max_nodes and the deadline."""

    __slots__ = ("nodes", "limit", "t_end")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.max_nodes
        self.t_end = (
            time.monotonic() + budget.deadline if budget.deadline is not None else None
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise BudgetExhausted(self.nodes)
        if self.t_end is not None and (self.nodes & 2047) == 0:
            if time.monotonic() > self.t_end:
                raise BudgetExhausted(self.nodes)


def _search(
    sizes: Sequence[int],
    caps: Sequence[int],
    prefs: Sequence[Sequence[int]],
    ticker: _Ticker,
    perfect: bool = False,
    floor: list[int] | None = None,
) -> Iterator[tuple[list[int], list[int], int]]:
    """Depth-first sweep over feasible assignments, in canonical order: agents
    by index, each first to every hospital of ``prefs[a]`` with room, in list
    order, then to nothing (skipped when ``perfect``). Yields the live
    ``(assign, occ, matched size)`` at each leaf; the caller copies what it
    keeps. Each descent ticks once.

    A branch is cut when its matched size plus the sizes of all later agents
    with a nonempty list is at most ``floor[0]``; the caller may raise
    ``floor[0]`` between leaves. The default floor of -1 cuts nothing. The
    stack is explicit, so the agent count is not bounded by the recursion
    limit."""
    n = len(sizes)
    floor = floor if floor is not None else [-1]
    widths = [len(options) for options in prefs]
    # rest[a]: the most that agents a.. can still add to the matched size
    rest = [0] * (n + 1)
    for a in range(n - 1, -1, -1):
        rest[a] = rest[a + 1] + (sizes[a] if widths[a] else 0)
    assign = [UNMATCHED] * n
    occ = [0] * len(caps)
    # choice[a]: position in prefs[a] of a's next branch; widths[a] is the
    # unmatched branch, anything past it means a's branches are exhausted
    choice = [0] * (n + 1)
    tick = ticker.tick
    lo = floor[0]
    value = 0
    a = 0
    while a >= 0:
        if a == n:
            yield assign, occ, value
            lo = floor[0]  # the caller may have raised it
            a -= 1
            continue
        s = sizes[a]
        h = assign[a]
        if h != UNMATCHED:  # back from the branch a -> h
            assign[a] = UNMATCHED
            occ[h] -= s
            value -= s
        if value + rest[a] <= lo:
            a -= 1
            continue
        i = choice[a]
        width = widths[a]
        options = prefs[a]
        while i < width:
            h = options[i]
            i += 1
            if occ[h] + s <= caps[h]:
                assign[a] = h
                occ[h] += s
                value += s
                break
        else:
            if i > width or perfect or value + rest[a + 1] <= lo:
                a -= 1
                continue
            i += 1  # the unmatched branch
        tick()
        choice[a] = i
        a += 1
        choice[a] = 0


def enumerate_feasible(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once, in canonical search order.
    Raises BudgetExhausted when a bound trips."""
    budget = budget or SearchBudget()
    ticker = _Ticker(budget)
    yielded = 0
    for assign, _, _ in _search(inst.sizes, inst.caps, inst.agent_prefs, ticker):
        yield Matching(assign)
        yielded += 1
        if budget.max_solutions is not None and yielded >= budget.max_solutions:
            raise BudgetExhausted(ticker.nodes)


def _unblocked(
    inst: HrsInstance, ticker: _Ticker, mode: str, perfect: bool = False
) -> Iterator[Matching]:
    """The feasible matchings with no blocking pair under ``mode``, in search
    order."""
    tester = verify.make_blocking_tester(inst, mode)
    for assign, occ, _ in _search(inst.sizes, inst.caps, inst.agent_prefs, ticker, perfect):
        if not tester(assign, occ):
            yield Matching(assign)


def _all_unblocked(inst: HrsInstance, budget: SearchBudget, mode: str) -> OracleResult:
    ticker = _Ticker(budget)
    found: list[Matching] = []
    try:
        for m in _unblocked(inst, ticker, mode):
            found.append(m)
            if budget.max_solutions is not None and len(found) >= budget.max_solutions:
                return OracleResult(EXHAUSTED, found, None, ticker.nodes)
    except BudgetExhausted:
        return OracleResult(EXHAUSTED, found, None, ticker.nodes)
    return OracleResult(COMPLETE, found, None, ticker.nodes)


def stable_matchings(
    inst: HrsInstance,
    budget: SearchBudget | None = None,
    strategy: str = PLAIN,
    interfaces: Sequence[int] | None = None,
) -> OracleResult:
    """All stable matchings (canonical order). ``strategy=decompose`` answers
    the same query block-wise; ``interfaces`` optionally pins the interface
    hospitals instead of auto-detection."""
    budget = budget or SearchBudget()
    if strategy == DECOMPOSE:
        return _stable_decomposed(inst, budget, interfaces)
    if strategy != PLAIN:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _all_unblocked(inst, budget, verify.CLASSIC)


def occupancy_stable_matchings(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> OracleResult:
    """All occupancy-stable matchings; nonempty whenever the sweep completes."""
    return _all_unblocked(inst, budget or SearchBudget(), verify.OCCUPANCY)


def max_occupancy_stable(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> OracleResult:
    """An occupancy-stable matching of maximum total size, with its value.

    Branch and bound over the common search: the floor is the best stable
    value so far, so a branch is cut when its matched size plus the sizes of
    every later agent with a nonempty list cannot exceed it. A leaf replaces
    the incumbent only when strictly larger, so the cut never changes the
    answer: the first maximum in search order."""
    budget = budget or SearchBudget()
    tester = verify.make_blocking_tester(inst, verify.OCCUPANCY)
    ticker = _Ticker(budget)
    best: list[Matching] = []
    floor = [-1]
    verdict = COMPLETE
    try:
        for assign, occ, value in _search(
            inst.sizes, inst.caps, inst.agent_prefs, ticker, floor=floor
        ):
            # the cut let this leaf through, so value > floor[0]
            if not tester(assign, occ):
                floor[0] = value
                best[:] = [Matching(assign)]
    except BudgetExhausted:
        verdict = EXHAUSTED
    return OracleResult(verdict, best, floor[0] if best else None, ticker.nodes)


def exists_a_perfect_occupancy_stable(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> OracleResult:
    """Decision: is there an occupancy-stable matching with every agent
    matched? Complete with a witness when yes; complete and empty when the
    full sweep finds none."""
    ticker = _Ticker(budget or SearchBudget())
    try:
        witness = next(_unblocked(inst, ticker, verify.OCCUPANCY, perfect=True), None)
    except BudgetExhausted:
        return OracleResult(EXHAUSTED, [], None, ticker.nodes)
    if witness is None:
        return OracleResult(COMPLETE, [], None, ticker.nodes)
    return OracleResult(COMPLETE, [witness], matching_size(inst, witness), ticker.nodes)


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
    # at most 7! complete assignments: the default node budget never trips
    ticker = _Ticker(SearchBudget())
    for assign, _, _ in _search([1] * n, [1] * smti.n_women, choices, ticker, perfect=True):
        candidate = SmtiMatching(assign)
        if is_weakly_stable(smti, candidate):
            return candidate
    return None


# --- decomposition strategy ---------------------------------------------------


def _components(
    inst: HrsInstance, removed: set[int]
) -> list[tuple[list[int], list[int]]]:
    """Connected components (agents, hospitals) after deleting the removed
    hospitals; every vertex appears in exactly one component."""
    n_a, n_h = inst.n_agents, inst.n_hospitals
    seen_a = [False] * n_a
    seen_h = [False] * n_h
    comps: list[tuple[list[int], list[int]]] = []
    for start in range(n_a):
        if seen_a[start]:
            continue
        agents = [start]
        hospitals: list[int] = []
        seen_a[start] = True
        stack = [("a", start)]
        while stack:
            kind, v = stack.pop()
            if kind == "a":
                for h in inst.agent_prefs[v]:
                    if h not in removed and not seen_h[h]:
                        seen_h[h] = True
                        hospitals.append(h)
                        stack.append(("h", h))
            else:
                for a in inst.hospital_prefs[v]:
                    if not seen_a[a]:
                        seen_a[a] = True
                        agents.append(a)
                        stack.append(("a", a))
        comps.append((sorted(agents), sorted(hospitals)))
    for h in range(n_h):
        if not seen_h[h] and h not in removed:
            comps.append(([], [h]))
    return comps


def _split(
    parts: list[tuple[int, int]], h: int, neighbours: list[int], agent_bits: list[int],
    limit: int | None = None,
) -> list[tuple[int, int]] | None:
    """The parts (hospital bitset, agent count) of a block once hospital h is
    cut as well: only the part holding h changes, into the components of its
    other hospitals, found by a BFS over hospital bitsets. Returns None as
    soon as a new part is seen to hold more than ``limit`` agents."""
    bit = 1 << h
    out = []
    for part in parts:
        if not part[0] & bit:
            out.append(part)
            continue
        left = part[0] ^ bit
        while left:
            comp = frontier = left & -left
            agents = 0
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    i = low.bit_length() - 1
                    grow |= neighbours[i]
                    agents |= agent_bits[i]
                    frontier ^= low
                frontier = grow & left & ~comp
                comp |= frontier
                if limit is not None and agents.bit_count() > limit:
                    return None
            out.append((comp, agents.bit_count()))
            left ^= comp
    return out


def auto_interfaces(inst: HrsInstance, max_block_agents: int = 12) -> list[int]:
    """Greedy interface choice: while some block holds more agents than the
    cap, remove the hospital set (up to three at a time) that most shrinks the
    largest block, ties going to the smallest sorted set. Any choice is sound;
    this one keeps the state product small on gadget-chain instances.

    Cost: cutting hospitals of the largest block leaves every other block as
    it is, so each round finds the blocks once and then scores cuts on the
    largest block alone. Each hospital keeps its neighbouring hospitals (those
    sharing an agent) and its agents as int bitsets. A cut's parts, as
    (hospital bitset, agent count) pairs, come from the parts of the cut one
    hospital smaller by splitting only the part that holds the newly cut
    hospital. The parts of one- and two-hospital cuts are kept until the round
    ends. Three-hospital cuts are only scored, and a split stops as soon as
    one of its parts is too large to beat the best cut so far. An agent whose
    hospitals are all cut is a block of one."""
    agent_bits = [0] * inst.n_hospitals
    neighbours = [0] * inst.n_hospitals
    for a, hs in enumerate(inst.agent_prefs):
        mask = sum(1 << h for h in hs)
        for h in hs:
            agent_bits[h] |= 1 << a
            neighbours[h] |= mask
    interfaces: set[int] = set()
    while True:
        comps = _components(inst, interfaces)
        counts = [len(ags) for ags, _ in comps]
        worst = max(counts, default=0)
        if worst <= max_block_agents:
            break
        big = counts.index(worst)
        others = max(counts[:big] + counts[big + 1:], default=0)
        if others >= worst:
            break  # an equally large block stays whole under any cut
        big_hospitals = comps[big][1]
        candidates = [h for h in big_hospitals if len(inst.hospital_prefs[h]) >= 2]
        candidates.sort(key=lambda h: -len(inst.hospital_prefs[h]))
        candidates = candidates[:24]
        best: tuple[int, tuple[int, ...]] | None = None
        # cuts of the previous size, as candidate positions, with their parts
        level = [((), [(sum(1 << h for h in big_hospitals), worst)])]
        for r in (1, 2, 3):
            deeper = []
            for cut, parts in level:
                for k in range(cut[-1] + 1 if cut else 0, len(candidates)):
                    h = candidates[k]
                    subset = tuple(sorted([candidates[j] for j in cut] + [h]))
                    limit = None
                    if r == 3:
                        # only scored: drop the cut once a part is too large
                        # for (w, subset) to beat the best key
                        limit = best[0] if subset < best[1] else best[0] - 1
                        if others > limit or any(n > limit for m, n in parts if not m >> h & 1):
                            continue
                    split = _split(parts, h, neighbours, agent_bits, limit)
                    if split is None:
                        continue
                    key = (max(others, max((n for _, n in split), default=1)), subset)
                    if best is None or key < best:
                        best = key
                    if r < 3:
                        deeper.append((cut + (k,), split))
            level = deeper
            if best is not None and best[0] <= max_block_agents:
                break
        if best is None or best[0] >= worst:
            break  # no hospital set helps; give up splitting further
        interfaces.update(best[1])
    return sorted(interfaces)


def _interface_states(inst: HrsInstance, h: int) -> list[tuple[int, ...]]:
    """Every subset of the agents that h lists whose sizes fit its capacity,
    the empty set first; these are the possible resident sets of h."""
    neighbors = sorted(inst.hospital_prefs[h])
    if len(neighbors) > 16:
        raise ValueError(
            f"interface hospital {inst.hospital_labels[h]} lists {len(neighbors)} "
            "agents; too wide to enumerate"
        )
    cap = inst.caps[h]
    sizes = inst.sizes
    out: list[tuple[int, ...]] = []
    for mask in range(1 << len(neighbors)):
        members = [neighbors[i] for i in range(len(neighbors)) if (mask >> i) & 1]
        if sum(sizes[a] for a in members) <= cap:
            out.append(tuple(members))
    out.sort(key=lambda s: (len(s), s))
    return out


def _block_solutions(
    inst: HrsInstance,
    block_agents: Sequence[int],
    block_hospitals: Sequence[int],
    iface_state: dict[int, tuple[int, ...]],
    ticker: _Ticker,
) -> list[tuple[int, ...]]:
    """All assignments of the block agents (as tuples aligned with
    block_agents; UNMATCHED allowed) that are feasible, consistent with the
    interface state, and free of blocking pairs involving block agents.

    Interface pairs are checked the moment the agent is assigned; pairs at an
    internal hospital are checked once its last listed agent is assigned.
    """
    sizes, caps, prefs = inst.sizes, inst.caps, inst.agent_prefs
    hospital_rank, agent_rank = inst.hospital_rank, inst.agent_rank
    agents = list(block_agents)
    internal = set(block_hospitals)
    pos = {a: i for i, a in enumerate(agents)}
    forced: dict[int, int] = {}
    for h, members in iface_state.items():
        for a in members:
            if a in pos:
                forced[a] = h
    iface_occ = {
        h: sum(sizes[a] for a in members) for h, members in iface_state.items()
    }
    # an internal hospital closes at the largest position among its residents
    close_at: dict[int, list[int]] = {}
    for h in internal:
        listed = [a for a in inst.hospital_prefs[h] if a in pos]
        if listed:
            close_at.setdefault(max(pos[a] for a in listed), []).append(h)

    assign: dict[int, int] = {}
    occ = {h: 0 for h in internal}
    members_at: dict[int, list[int]] = {h: [] for h in internal}
    solutions: list[tuple[int, ...]] = []

    def iface_blocks(a: int, chosen: int) -> bool:
        # does a form a blocking pair with an interface hospital it prefers?
        s_a = sizes[a]
        for h in prefs[a]:
            if h == chosen:
                return False
            if h not in iface_state:
                continue
            need = iface_occ[h] + s_a - caps[h]
            if need <= 0:
                return True
            ranks = hospital_rank[h]
            removable = sum(
                sizes[b] for b in iface_state[h] if ranks[b] > ranks[a]
            )
            if removable >= need:
                return True
        return False

    def internal_blocks(h: int) -> bool:
        # with M(h) final, does any listed block agent prefer in?
        ranks = hospital_rank[h]
        o = occ[h]
        cap = caps[h]
        residents = members_at[h]
        for b in inst.hospital_prefs[h]:
            if b not in pos or assign.get(b) == h:
                continue
            cur = assign[b]
            # does b prefer h to its assignment?
            if cur != UNMATCHED and agent_rank[b][h] >= agent_rank[b][cur]:
                continue
            need = o + sizes[b] - cap
            if need <= 0:
                return True
            rb = ranks[b]
            removable = sum(sizes[c] for c in residents if ranks[c] > rb)
            if removable >= need:
                return True
        return False

    def rec(i: int) -> None:
        if i == len(agents):
            solutions.append(tuple(assign[a] for a in agents))
            return
        a = agents[i]
        s_a = sizes[a]
        if a in forced:
            candidates: list[int] = [forced[a]]
            allow_unmatched = False
        else:
            candidates = [
                h for h in prefs[a]
                if h in internal and occ[h] + s_a <= caps[h]
            ]
            allow_unmatched = True
        for h in candidates:
            ticker.tick()
            if iface_blocks(a, h):
                continue
            assign[a] = h
            is_internal = h in internal
            if is_internal:
                occ[h] += s_a
                members_at[h].append(a)
            if not any(internal_blocks(hh) for hh in close_at.get(i, ())):
                rec(i + 1)
            if is_internal:
                occ[h] -= s_a
                members_at[h].pop()
        if allow_unmatched:
            ticker.tick()
            assign[a] = UNMATCHED
            if not iface_blocks(a, UNMATCHED):
                if not any(internal_blocks(hh) for hh in close_at.get(i, ())):
                    rec(i + 1)
        assign.pop(a, None)

    if not agents:
        # hospital-only block: nothing to assign, nothing can block
        return [()]
    rec(0)
    return solutions


def _stable_decomposed(
    inst: HrsInstance,
    budget: SearchBudget,
    interfaces: Sequence[int] | None,
) -> OracleResult:
    ticker = _Ticker(budget)
    iface_list = sorted(set(interfaces)) if interfaces is not None else auto_interfaces(inst)
    iface_set = set(iface_list)
    blocks = _components(inst, iface_set)
    states = {h: _interface_states(inst, h) for h in iface_list}
    owner: dict[int, int] = {}
    for bi, (ags, _) in enumerate(blocks):
        for a in ags:
            owner[a] = bi
    relevant: list[list[int]] = [[] for _ in blocks]
    for h in iface_list:
        touched = sorted({owner[a] for a in inst.hospital_prefs[h]})
        for bi in touched:
            relevant[bi].append(h)
    memo: dict[tuple, list[tuple[int, ...]]] = {}
    found: list[Matching] = []

    def block_key(bi: int, state: dict[int, tuple[int, ...]]) -> tuple:
        return (bi,) + tuple((h, state[h]) for h in relevant[bi])

    def solve_block(bi: int, state: dict[int, tuple[int, ...]]) -> list[tuple[int, ...]]:
        key = block_key(bi, state)
        if key not in memo:
            sub_state = {h: state[h] for h in relevant[bi]}
            memo[key] = _block_solutions(inst, blocks[bi][0], blocks[bi][1], sub_state, ticker)
        return memo[key]

    def emit(state: dict[int, tuple[int, ...]]) -> None:
        per_block = []
        for bi in range(len(blocks)):
            sols = solve_block(bi, state)
            if not sols:
                return
            per_block.append(sols)

        # the blocks cover every agent, so each combination rewrites all of assign
        assign = [UNMATCHED] * inst.n_agents
        for combo in itertools.product(*per_block):
            for (agents, _), sol in zip(blocks, combo):
                for a, h in zip(agents, sol):
                    assign[a] = h
            found.append(Matching(assign))
            if budget.max_solutions is not None and len(found) >= budget.max_solutions:
                raise _SolutionCap

    state: dict[int, tuple[int, ...]] = {}
    claimed: set[int] = set()

    def sweep(i: int) -> None:
        if i == len(iface_list):
            emit(state)
            return
        h = iface_list[i]
        for st in states[h]:
            if any(a in claimed for a in st):
                continue
            ticker.tick()
            state[h] = st
            claimed.update(st)
            sweep(i + 1)
            claimed.difference_update(st)
        del state[h]

    try:
        sweep(0)
        verdict = COMPLETE
    except BudgetExhausted as exc:
        return OracleResult(EXHAUSTED, sorted(found, key=lambda m: m.assign), None, exc.nodes)
    except _SolutionCap:
        verdict = EXHAUSTED
    found.sort(key=lambda m: m.assign)
    return OracleResult(verdict, found, None, ticker.nodes)
