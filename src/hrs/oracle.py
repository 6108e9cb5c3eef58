"""Exact brute-force ground truth on small instances.

Every query is a loop over one explicit-stack search, ``_search``. It places
agents one position at a time, each on a hospital of its list with enough
residual capacity or nowhere (tried last, and not at all for ``a-perfect``),
and counts one node per descent. Whether a pair (b, h) blocks depends only on
b's hospital and h's residents, so it is final once b and every agent that may
still be placed at h are placed: in the plain search, at h's last listing
agent. At each position a close check tests the pairs that have just become
final, through ``verify._hospital_blocks``, and cuts the branch when one
blocks, so every leaf is unblocked. ``max-occ`` also cuts a branch once its
matched size plus the sizes of all agents still to come cannot beat the best
value found. Every bound in the budget (node count, wall clock, solution cap)
aborts the sweep with an explicit ``budget_exhausted`` verdict.

The ``decompose`` strategy for the stable-matching query splits the instance
into blocks that touch each other only through interface hospitals. It sweeps
over every feasible resident set (state) of each interface hospital in turn.
A block depends only on the states of the interface hospitals its agents
list, and it is one ``_search`` over the agents those states leave free, with
their residents fixed from the start. The sweep solves a block as soon as the
last of these hospitals has a state, and cuts that state when the block has
no solution, before any later hospital is placed; a block that lists no
interface hospital is solved once. The block solutions of each full
combination of states are multiplied out; distinct states yield distinct
matchings, so the union over states is exact.
"""

from __future__ import annotations

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

PLAIN = "plain"
DECOMPOSE = "decompose"

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
    close: Sequence[Sequence[tuple[int, int | None]]] | None = None,
    blocks: Callable[..., bool] | None = None,
    order: Sequence[int] | None = None,
    assign: list[int] | None = None,
    occ: list[int] | None = None,
) -> Iterator[tuple[list[int], int]]:
    """Depth-first sweep over feasible assignments, in canonical order: the
    agents of ``order`` (default: all, by index), each first to every
    hospital of ``prefs[a]`` with room, in list order, then to nothing
    (skipped when ``perfect``). The others keep their hospital in the starting
    ``assign``, whose occupancies ``occ`` holds (both or neither; default:
    nobody matched); a sweep that runs to its end leaves both as it found
    them. Yields the live ``(assign, size placed)`` at each leaf; the caller
    copies what it keeps. Each descent ticks once.

    Once the first k agents are placed, and before the k-th descent ticks,
    ``blocks(assign, occ, h, agent)`` runs on each (h, agent) of ``close[k]``
    and asks whether a pair that has just become final blocks; True cuts the
    branch (for k = 0, everything). A branch is also cut when its placed size
    plus the sizes of all later agents with a nonempty list is at most
    ``floor[0]``, which the caller may raise between leaves. The stack is
    explicit, so the agent count is not bounded by the recursion limit."""
    order = range(len(sizes)) if order is None else order
    n = len(order)
    floor = floor if floor is not None else [-1]
    if assign is None:
        assign, occ = [UNMATCHED] * len(sizes), [0] * len(caps)
    close = close or [()] * (n + 1)
    test = partial(blocks, assign, occ) if blocks else None
    if any(test(h, b) for h, b in close[0]):
        return
    sizes_at = [sizes[b] for b in order]
    options_at = [prefs[b] for b in order]
    widths = [len(options) for options in options_at]
    # rest[p]: the most that positions p.. can still add to the matched size
    rest = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        rest[p] = rest[p + 1] + (sizes_at[p] if widths[p] else 0)
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
            p -= 1
            continue
        b = order[p]
        s = sizes_at[p]
        h = assign[b]
        if h != UNMATCHED:  # back from the branch b -> h
            assign[b] = UNMATCHED
            occ[h] -= s
            value -= s
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
            if i > width or perfect or value + rest[p + 1] <= lo:
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
    inst: HrsInstance,
    order: Sequence[int],
    hospitals: Iterable[int],
    fixed_pairs: Iterable[tuple[int, int]] = (),
) -> list[list[tuple[int, int | None]]]:
    """The close checks of a ``_search`` over ``order``: the k-th list holds
    the (hospital, agent) tests of the pairs final once the first k agents
    are placed. A pair (b, h) is final once b and every agent that may still
    be placed at h are placed; agents outside ``order`` count as placed from
    the start. Any agent listing one of ``hospitals`` may be placed there, so
    its pairs are final at its last listing agent: one test (h, None).
    ``fixed_pairs`` (b, h) have hospitals with fixed residents: (h, b) at b."""
    placed = dict(zip(order, itertools.count(1)))
    final: list[list[tuple[int, int | None]]] = [[] for _ in range(len(order) + 1)]
    for h in hospitals:
        listed = inst.hospital_prefs[h]
        if listed:
            final[max(map(placed.get, listed, _ZEROS))].append((h, None))
    for b, h in fixed_pairs:
        final[placed.get(b, 0)].append((h, b))
    return final


def enumerate_feasible(
    inst: HrsInstance, budget: SearchBudget | None = None
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once, in canonical search order.
    Raises BudgetExhausted when a bound trips."""
    budget = budget or SearchBudget()
    ticker = _Ticker(budget)
    yielded = 0
    for assign, _ in _search(inst.sizes, inst.caps, inst.agent_prefs, ticker):
        yield Matching(assign)
        yielded += 1
        if budget.max_solutions is not None and yielded >= budget.max_solutions:
            raise BudgetExhausted(ticker.nodes)


def _stable_leaves(
    inst: HrsInstance, kind: str, ticker: _Ticker, perfect: bool = False,
    floor: list[int] | None = None,
) -> Iterator[tuple[list[int], int]]:
    """The plain search with the close check of ``kind``: it cuts every
    branch with a blocking pair, so each leaf is a matching with none."""
    close = _closer(inst, range(inst.n_agents), range(inst.n_hospitals))
    test = partial(verify._hospital_blocks, inst, verify._eviction_mask(inst.sizes, kind))
    return _search(inst.sizes, inst.caps, inst.agent_prefs, ticker, perfect, floor, close, test)


def _all_unblocked(inst: HrsInstance, budget: SearchBudget, kind: str) -> OracleResult:
    ticker = _Ticker(budget)
    found: list[Matching] = []
    verdict = COMPLETE
    try:
        for assign, _ in _stable_leaves(inst, kind, ticker):
            found.append(Matching(assign))
            if budget.max_solutions is not None and len(found) >= budget.max_solutions:
                verdict = EXHAUSTED
                break
    except BudgetExhausted:
        verdict = EXHAUSTED
    return OracleResult(verdict, found, None, ticker.nodes)


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
    ticker = _Ticker(budget or SearchBudget())
    best: list[Matching] = []
    floor = [-1]
    verdict = COMPLETE
    try:
        for assign, value in _stable_leaves(inst, verify.OCCUPANCY, ticker, floor=floor):
            # every leaf is stable, and the cut let it through, so value > floor[0]
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
        leaf = next(_stable_leaves(inst, verify.OCCUPANCY, ticker, perfect=True), None)
    except BudgetExhausted:
        return OracleResult(EXHAUSTED, [], None, ticker.nodes)
    if leaf is None:
        return OracleResult(COMPLETE, [], None, ticker.nodes)
    return OracleResult(COMPLETE, [Matching(leaf[0])], leaf[1], ticker.nodes)


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
    for assign, _ in _search([1] * n, [1] * smti.n_women, choices, ticker, perfect=True):
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
        seen_a[start] = True
        agents, hospitals, stack = [start], [], [start]
        while stack:
            for h in inst.agent_prefs[stack.pop()]:
                if h not in removed and not seen_h[h]:
                    seen_h[h] = True
                    hospitals.append(h)
                    for a in inst.hospital_prefs[h]:
                        if not seen_a[a]:
                            seen_a[a] = True
                            agents.append(a)
                            stack.append(a)
        comps.append((sorted(agents), sorted(hospitals)))
    for h in range(n_h):
        if not seen_h[h] and h not in removed:
            comps.append(([], [h]))
    return comps


def _split(
    parts: list[tuple[int, int]], h: int, neighbours: list[int], agent_bits: list[int],
    limit: int | None = None,
) -> list[tuple[int, int]] | tuple[int, int]:
    """The parts (hospital bitset, agent count) of a block once hospital h is
    cut as well: only the part holding h changes, into the components of its
    other hospitals, found by a BFS over hospital bitsets. As soon as the
    hospitals grown so far for a new part hold more than ``limit`` agents,
    returns instead that witness: those connected hospitals and their agent
    count, as one (hospital bitset, agent count) pair."""
    bit = 1 << h
    out = []
    for part in parts:
        if not part[0] & bit:
            out.append(part)
            continue
        left = part[0] ^ bit
        while left:
            comp = frontier = left & -left
            agents = grown = 0
            while frontier:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    i = low.bit_length() - 1
                    grow |= neighbours[i]
                    agents |= agent_bits[i]
                    grown |= low
                    frontier ^= low
                    if limit is not None and agents.bit_count() > limit:
                        return grown, agents.bit_count()
                frontier = grow & left & ~comp
                comp |= frontier
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
    hospital. Single cuts are split in full and set the best key. Pair and
    triple cuts are only scored: a split stops as soon as the hospitals it has
    grown for one part hold more agents than the best count, and those
    connected hospitals are a witness. The best key only falls during a
    round, so the witness stays valid until the round ends: a cut that misses
    all of its hospitals leaves it inside one block and cannot win. Each
    candidate keeps a bitset of the witnesses that hold it, and a cut is
    split only when its candidates' bitsets cover every witness. A pair's
    parts are split, and kept for the round, only when a triple that extends
    it passes this test. An agent whose hospitals are all cut is a block of
    one."""
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
        whole = [(sum(1 << h for h in big_hospitals), worst)]
        singles = [_split(whole, h, neighbours, agent_bits) for h in candidates]
        best = min(
            ((max(others, max((n for _, n in parts), default=1)), (h,))
             for h, parts in zip(candidates, singles)),
            default=None,
        )
        cover = [0] * len(candidates)  # per candidate, the witnesses holding it
        hit = 0  # every witness so far

        def score(parts: list[tuple[int, int]], h: int, subset: tuple[int, ...]):
            """Split parts by h unless the cut cannot beat the best key; keep
            its key if it does, and learn the witness if the split stops."""
            nonlocal best, hit
            limit = best[0] if subset < best[1] else best[0] - 1
            if others > limit or any(n > limit for m, n in parts if not m >> h & 1):
                return None
            # stopping above the best count, not above limit, keeps every
            # witness valid for the rest of the round
            split = _split(parts, h, neighbours, agent_bits, best[0])
            if type(split) is tuple:
                bit = hit + 1
                hit |= bit
                for k, c in enumerate(candidates):
                    if split[0] >> c & 1:
                        cover[k] |= bit
                return None
            key = (max(others, max((n for _, n in split), default=1)), subset)
            if key < best:
                best = key
            return split

        pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
        if best is not None and best[0] > max_block_agents:
            for i, j in itertools.combinations(range(len(candidates)), 2):
                if cover[i] | cover[j] == hit:
                    hi, hj = candidates[i], candidates[j]
                    split = score(singles[i], hj, (hi, hj) if hi < hj else (hj, hi))
                    if split is not None:
                        pairs[i, j] = split
        if best is not None and best[0] > max_block_agents:
            for i, j, k in itertools.combinations(range(len(candidates)), 3):
                if cover[i] | cover[j] | cover[k] != hit:
                    continue
                parts = pairs.get((i, j))
                if parts is None:
                    parts = pairs[i, j] = _split(singles[i], candidates[j], neighbours, agent_bits)
                score(parts, candidates[k], tuple(sorted((candidates[i], candidates[j], candidates[k]))))
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
    sizes, cap = inst.sizes, inst.caps[h]
    # combinations of a sorted list come sorted within each size
    return [
        members
        for r in range(len(neighbors) + 1)
        for members in itertools.combinations(neighbors, r)
        if sum(sizes[a] for a in members) <= cap
    ]


def _stable_decomposed(
    inst: HrsInstance,
    budget: SearchBudget,
    interfaces: Sequence[int] | None,
) -> OracleResult:
    ticker = _Ticker(budget)
    iface_list = sorted(set(interfaces)) if interfaces is not None else auto_interfaces(inst)
    # depth[h]: how many interface hospitals have a state once h has one
    depth = {h: i for i, h in enumerate(iface_list, 1)}
    blocks = _components(inst, set(depth))
    states = [_interface_states(inst, h) for h in iface_list]
    prefs = inst.agent_prefs
    # an agent outside every interface state stays in its block
    options = [tuple(h for h in hs if h not in depth) for hs in prefs]
    test = partial(verify._hospital_blocks, inst, verify._eviction_mask(inst.sizes, verify.CLASSIC))
    # per block: its agents' pairs with interface hospitals, and those hospitals
    iface_pairs = [[(a, h) for a in agents for h in prefs[a] if h in depth] for agents, _ in blocks]
    relevant = [sorted({h for _, h in pairs}) for pairs in iface_pairs]
    # due[i]: the blocks whose last interface hospital is the i-th placed
    due: list[list[int]] = [[] for _ in range(len(iface_list) + 1)]
    for bi, hs in enumerate(relevant):
        due[max((depth[h] for h in hs), default=0)].append(bi)
    # the placed states' residents; every other agent is unmatched between
    # block searches, which restore assign and occ when run to their end
    assign = [UNMATCHED] * inst.n_agents
    occ = [0] * inst.n_hospitals
    state: dict[int, tuple[int, ...]] = {}
    memo: dict[tuple, list[tuple[int, ...]]] = {}
    chosen: list[list[tuple[int, ...]]] = [[] for _ in blocks]  # per block, under the state
    found: list[Matching] = []

    def solve(i: int) -> bool:
        # the due blocks' assignments that fit the state and leave none of
        # their agents blocking; False as soon as a block has none
        for bi in due[i]:
            key = (bi,) + tuple(state[h] for h in relevant[bi])
            sols = memo.get(key)
            if sols is None:
                agents, hospitals = blocks[bi]
                free = [a for a in agents if assign[a] == UNMATCHED]
                close = _closer(inst, free, hospitals, iface_pairs[bi])
                sols = memo[key] = [
                    tuple(leaf[a] for a in agents)
                    for leaf, _ in _search(
                        inst.sizes, inst.caps, options, ticker, close=close, blocks=test,
                        order=free, assign=assign, occ=occ,
                    )
                ]
            if not sols:
                return False
            chosen[bi] = sols
        return True

    def emit() -> None:
        # the blocks cover every agent, so each combination rewrites all of out
        out = [UNMATCHED] * inst.n_agents
        for combo in itertools.product(*chosen):
            for (agents, _), sol in zip(blocks, combo):
                for a, h in zip(agents, sol):
                    out[a] = h
            found.append(Matching(out))
            if budget.max_solutions is not None and len(found) >= budget.max_solutions:
                raise _SolutionCap

    def sweep() -> None:
        # every combination of disjoint states, one state iterator per placed
        # hospital; a state that leaves a due block without a solution is cut
        if not solve(0):
            return
        if not iface_list:
            emit()
            return
        stack = [iter(states[0])]
        while stack:
            i = len(stack)
            h = iface_list[i - 1]
            if h in state:  # back from h's previous state
                for a in state.pop(h):
                    assign[a] = UNMATCHED
                occ[h] = 0
            st = next((st for st in stack[-1] if all(assign[a] == UNMATCHED for a in st)), None)
            if st is None:
                stack.pop()
                continue
            ticker.tick()
            state[h] = st
            for a in st:
                assign[a] = h
                occ[h] += inst.sizes[a]
            if not solve(i):
                continue
            if i == len(iface_list):
                emit()
            else:
                stack.append(iter(states[i]))

    try:
        sweep()
        verdict = COMPLETE
    except (BudgetExhausted, _SolutionCap):
        verdict = EXHAUSTED
    found.sort(key=lambda m: m.assign)
    return OracleResult(verdict, found, None, ticker.nodes)
