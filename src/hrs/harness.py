"""Seeded generators, property suites, and approximation-ratio experiments.

All generation is a pure function of the parameters: the same params (seed
included) reproduce the same instance byte for byte. Experiment trials derive
their seeds as ``seed XOR trial-index`` so runs are reproducible and trials
independent. Property suites shrink any failing instance to a local minimum
(no single agent, hospital or edge can be dropped while keeping the failure)
before reporting it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from multiprocessing import get_context
from typing import Callable, Iterator

from .model import HrsInstance, induced_subinstance, matching_size, serialize_instance
from .oracle import (
    COMPLETE,
    EXHAUSTED,
    BudgetExhausted,
    SearchBudget,
    enumerate_feasible,
    max_occupancy_stable,
)
from .partition import detect_generalized_master_list
from .reduce import SmtiInstance
from .solver import solve_matching, solve_occupancy
from .verify import (
    find_blocking_pairs,
    find_occupancy_blocking_pairs,
    is_occupancy_stable,
    is_stable,
)


@dataclass(frozen=True)
class GenParams:
    """Generator knobs. For the marriage family, ``n_agents`` is the side size
    and ``n_ties`` the number of tied men (None: coin flip per man)."""

    n_agents: int
    n_hospitals: int
    size_range: tuple[int, int] = (1, 3)
    cap_range: tuple[int, int] = (1, 6)
    density: float = 1.0
    seed: int = 0
    n_ties: int | None = None

    def check(self) -> None:
        """Raises ValueError on a count, range end or seed that is no int (a
        bool counts as one) and on a value out of its range."""
        (s_lo, s_hi), (c_lo, c_hi) = self.size_range, self.cap_range
        if not (
            isinstance(self.n_agents, int) and isinstance(self.n_hospitals, int)
            and isinstance(s_lo, int) and isinstance(s_hi, int)
            and isinstance(c_lo, int) and isinstance(c_hi, int)
            and isinstance(self.seed, int) and isinstance(self.n_ties, (int, type(None)))
        ):
            raise ValueError("counts, ranges and seed must be ints")
        if self.n_agents < 0 or self.n_hospitals < 0:
            raise ValueError("negative counts")
        if s_lo < 1 or s_hi < s_lo or c_lo < 1 or c_hi < c_lo:
            raise ValueError("empty or non-positive range")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must lie in [0, 1]")


def gen_random(params: GenParams) -> HrsInstance:
    """Uniform random instance: sizes and capacities from the given ranges,
    each edge present with the given density, both sides' lists uniformly
    shuffled. Agents with empty lists are allowed (trivially unmatched)."""
    return _generate(params, lambda sizes, rng: [0] * len(sizes))


def gen_master_list(params: GenParams) -> HrsInstance:
    """Random instance whose hospital lists all follow one ordered partition
    of the agents into size classes, so an ordering is always detectable:
    hospital lists are built class by class in a common random class order."""

    def size_class_rank(sizes: list[int], rng: random.Random) -> list[int]:
        distinct = sorted(set(sizes))
        rng.shuffle(distinct)
        rank = {s: i for i, s in enumerate(distinct)}
        return [rank[s] for s in sizes]

    return _generate(params, size_class_rank)


def _generate(
    params: GenParams, class_rank: Callable[[list[int], random.Random], list[int]]
) -> HrsInstance:
    """Random instance: each edge present with the given density, agent lists
    uniformly shuffled, and hospital lists ranking agents class by class in
    the order of ``class_rank(sizes, rng)`` (one rank per agent), shuffled
    within each class. Agents with empty lists are allowed."""
    params.check()
    rng = random.Random(params.seed)
    n_agents, n_hospitals = params.n_agents, params.n_hospitals
    sizes = [rng.randint(*params.size_range) for _ in range(n_agents)]
    caps = [rng.randint(*params.cap_range) for _ in range(n_hospitals)]
    if params.density >= 1.0:
        agent_lists = [list(range(n_hospitals)) for _ in range(n_agents)]
    else:
        agent_lists = [
            [h for h in range(n_hospitals) if rng.random() < params.density]
            for _ in range(n_agents)
        ]
    rank = class_rank(sizes, rng)
    by_class: list[dict[int, list[int]]] = [{} for _ in range(n_hospitals)]
    for a, hs in enumerate(agent_lists):
        for h in hs:
            by_class[h].setdefault(rank[a], []).append(a)
    for prefs in agent_lists:
        rng.shuffle(prefs)
    hospital_lists = []
    for groups in by_class:
        prefs = []
        for c in sorted(groups):
            rng.shuffle(groups[c])
            prefs.extend(groups[c])
        hospital_lists.append(prefs)
    return HrsInstance(
        [f"a{a}" for a in range(1, n_agents + 1)], sizes, agent_lists,
        [f"h{h}" for h in range(1, n_hospitals + 1)], caps, hospital_lists,
    )


def gen_csmti(params: GenParams) -> SmtiInstance:
    """Random restricted marriage instance: ``n_agents`` men and women, tied
    men choosing two women, strict men exactly three, every woman listed by at
    most three men. Strict men require at least three women."""
    params.check()
    n = params.n_agents
    rng = random.Random(params.seed)
    if params.n_ties is None:
        tied = [rng.random() < 0.5 for _ in range(n)]
    else:
        if not 0 <= params.n_ties <= n:
            raise ValueError("tie count out of range")
        picks = set(rng.sample(range(n), params.n_ties))
        tied = [m in picks for m in range(n)]
    if any(not t for t in tied) and n < 3:
        raise ValueError("strict men need three women; use at least 3 per side")
    if any(tied) and n < 2:
        raise ValueError("tied men need two women")
    for _attempt in range(200):
        room = [3] * n
        chosen: list[list[int]] = []
        ok = True
        for m in range(n):
            need = 2 if tied[m] else 3
            avail = [w for w in range(n) if room[w] > 0]
            if len(avail) < need:
                ok = False
                break
            ws = rng.sample(avail, need)
            for w in ws:
                room[w] -= 1
            chosen.append(ws)
        if ok:
            break
    else:
        raise ValueError("could not satisfy per-woman list caps; try another seed")
    suitors: list[list[int]] = [[] for _ in range(n)]
    for m, ws in enumerate(chosen):
        for w in ws:
            suitors[w].append(m)
    for lst in suitors:
        rng.shuffle(lst)
    return SmtiInstance(
        [f"m{m + 1}" for m in range(n)],
        [[ws] if t else [[w] for w in ws] for t, ws in zip(tied, chosen)],
        [f"w{w + 1}" for w in range(n)], suitors,
    )


# --- pinned example instances --------------------------------------------------


def no_stable_example() -> HrsInstance:
    """Three agents, two hospitals, no stable matching at all; yet
    {(a1, h1), (a3, h2)} is occupancy-stable."""
    return HrsInstance.build(
        agents=[
            ("a1", 1, ["h2", "h1"]),
            ("a2", 1, ["h1", "h2"]),
            ("a3", 2, ["h2"]),
        ],
        hospitals=[
            ("h1", 1, ["a1", "a2"]),
            ("h2", 2, ["a2", "a3", "a1"]),
        ],
    )


def approx_gap_example() -> HrsInstance:
    """Instance where the size-descending solver returns total size 3 while
    the best occupancy-stable matching has total size 7, so the solver's
    ratio exceeds 2 here."""
    return HrsInstance.build(
        agents=[
            ("a1", 3, ["h1", "h2"]),
            ("a2", 2, ["h1"]),
            ("a3", 2, ["h1"]),
        ],
        hospitals=[
            ("h1", 4, ["a2", "a3", "a1"]),
            ("h2", 3, ["a1"]),
        ],
    )


def master_list_example() -> HrsInstance:
    """Five agents in three size classes whose hospital lists all follow the
    class order <{a1, a2}, {a3}, {a4, a5}>."""
    return HrsInstance.build(
        agents=[
            ("a1", 1, ["h1", "h2"]),
            ("a2", 1, ["h2", "h1"]),
            ("a3", 2, ["h2"]),
            ("a4", 3, ["h1", "h3"]),
            ("a5", 3, ["h3"]),
        ],
        hospitals=[
            ("h1", 3, ["a2", "a1", "a4"]),
            ("h2", 3, ["a1", "a2", "a3"]),
            ("h3", 3, ["a5", "a4"]),
        ],
    )


# --- instance shrinking ---------------------------------------------------------


def _without_edge(inst: HrsInstance, edge: tuple[int, int]) -> HrsInstance:
    return HrsInstance(
        inst.agent_labels, inst.sizes,
        [[h for h in p if (a, h) != edge] for a, p in enumerate(inst.agent_prefs)],
        inst.hospital_labels, inst.caps,
        [[a for a in p if (a, h) != edge] for h, p in enumerate(inst.hospital_prefs)],
    )


def _one_smaller(inst: HrsInstance) -> Iterator[HrsInstance]:
    """The instance without one agent, then one hospital, then one edge."""
    agents, hospitals = range(inst.n_agents), range(inst.n_hospitals)
    for a in agents:
        yield induced_subinstance(inst, [b for b in agents if b != a], hospitals)
    for h in hospitals:
        yield induced_subinstance(inst, agents, [g for g in hospitals if g != h])
    for edge in inst.edges():
        yield _without_edge(inst, edge)


def shrink_instance(
    inst: HrsInstance, still_fails: Callable[[HrsInstance], bool]
) -> HrsInstance:
    """Greedy local minimization: repeatedly drop one agent, hospital or edge
    while the predicate keeps failing; the result admits no further single
    removal."""
    while True:
        smaller = next((c for c in _one_smaller(inst) if _fails(c, still_fails)), None)
        if smaller is None:
            return inst
        inst = smaller


def _fails(candidate: HrsInstance, still_fails) -> bool:
    try:
        return still_fails(candidate)
    except BudgetExhausted:
        return False


# --- ratio experiment -----------------------------------------------------------


@dataclass(frozen=True)
class RatioRow:
    seed: int
    m: int
    n_agents: int
    s_alg: int
    s_best: int | None
    ratio: float | None
    verdict: str


@dataclass
class RatioReport:
    rows: list[RatioRow] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["seed,m,n_agents,sM,sMstar,ratio,verdict"]
        for r in self.rows:
            best = "" if r.s_best is None else str(r.s_best)
            ratio = "" if r.ratio is None else f"{r.ratio:.6f}"
            lines.append(f"{r.seed},{r.m},{r.n_agents},{r.s_alg},{best},{ratio},{r.verdict}")
        return "\n".join(lines) + "\n"


def _ratio_trial(template: GenParams, trial: int, budget: SearchBudget) -> RatioRow:
    inst = _trial_instance(template, trial, gen_random)
    return _measure_ratio(inst, template.seed ^ trial, budget)


def _measure_ratio(inst: HrsInstance, seed: int, budget: SearchBudget) -> RatioRow:
    alg = solve_occupancy(inst)
    s_alg = matching_size(inst, alg)
    result = max_occupancy_stable(inst, budget)
    if not result.complete:
        return RatioRow(seed, inst.n_edges, inst.n_agents, s_alg, result.value, None, EXHAUSTED)
    s_best = result.value if result.value is not None else 0
    ratio = (s_best / s_alg) if s_alg > 0 else 1.0
    return RatioRow(seed, inst.n_edges, inst.n_agents, s_alg, s_best, ratio, COMPLETE)


def run_ratio_experiment(
    params: GenParams,
    trials: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> RatioReport:
    """Solver size vs. exact best occupancy-stable size over random trials.
    The template's counts act as upper bounds; each trial draws its own shape
    from its derived seed. The first row is the pinned known-gap example
    (seed -1, ratio 7/3)."""
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    budget = budget or SearchBudget()
    rows = [_measure_ratio(approx_gap_example(), -1, budget)]
    work = [(params, t, budget) for t in range(trials)]
    if jobs > 1:
        with get_context("fork").Pool(jobs) as pool:
            rows.extend(pool.starmap(_ratio_trial, work))
    else:
        rows.extend(_ratio_trial(*w) for w in work)
    complete = [r for r in rows if r.verdict == COMPLETE]
    violations = [
        r for r in complete
        if (r.s_alg == 0 and r.s_best != 0) or (r.s_alg > 0 and 3 * r.s_alg <= r.s_best)
    ]
    ratios = [r.ratio for r in complete if r.ratio is not None]
    report = RatioReport(rows)
    report.aggregates = {
        "trials": len(rows),
        "complete": len(complete),
        "budget_exhausted": len(rows) - len(complete),
        "max_ratio": max(ratios) if ratios else None,
        "mean_ratio": (sum(ratios) / len(ratios)) if ratios else None,
        "violations": len(violations),
    }
    return report


# --- property suites -------------------------------------------------------------


@dataclass
class SuiteReport:
    suite: str
    trials: int
    exhausted: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "exhausted": self.exhausted,
            "violations": self.violations,
            "passed": self.passed,
        }


_SMALL = GenParams(n_agents=6, n_hospitals=4, size_range=(1, 3), cap_range=(1, 6), density=0.7)


def _occ_output_blocked(inst: HrsInstance, budget: SearchBudget) -> bool:
    return bool(find_occupancy_blocking_pairs(inst, solve_occupancy(inst)))


def _ml_output_blocked(inst: HrsInstance, budget: SearchBudget) -> bool:
    partition = detect_generalized_master_list(inst)
    if partition is None:
        return True
    return bool(find_blocking_pairs(inst, solve_matching(inst, partition)))


def _stable_not_occ(inst: HrsInstance, budget: SearchBudget) -> bool:
    for matching in enumerate_feasible(inst, budget):
        if is_stable(inst, matching) and not is_occupancy_stable(inst, matching):
            return True
    return False


# suite name -> (default template, generator, failure predicate, violation message)
_SUITES: dict[str, tuple[GenParams, Callable, Callable, str]] = {
    "occ-stable-always": (
        _SMALL, gen_random, _occ_output_blocked,
        "solver output admits an occupancy-blocking pair",
    ),
    "gen-ml-stable": (
        _SMALL, gen_master_list, _ml_output_blocked,
        "solver output under a detected ordering admits a blocking pair",
    ),
    "stable-implies-occ": (
        replace(_SMALL, n_agents=4), gen_random, _stable_not_occ,
        "stable matching that is not occupancy-stable",
    ),
}
SUITES = tuple(_SUITES)


def _trial_instance(template: GenParams, trial: int, gen) -> HrsInstance:
    trial_seed = template.seed ^ trial
    rng = random.Random(trial_seed)
    n_a = rng.randint(1, max(1, template.n_agents))
    n_h = rng.randint(1, max(1, template.n_hospitals))
    return gen(replace(template, n_agents=n_a, n_hospitals=n_h, seed=trial_seed))


def run_property_suite(
    suite: str,
    trials: int,
    budget: SearchBudget | None = None,
    params: GenParams | None = None,
) -> SuiteReport:
    """Run one named invariant family over seeded random trials; violations
    come back with a shrunken instance attached. A trial whose search runs out
    of budget counts as exhausted, not as a violation."""
    if trials < 0:
        raise ValueError(f"negative trial count {trials}")
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    template, gen, predicate, message = _SUITES[suite]
    template = params or template
    budget = budget or SearchBudget()
    report = SuiteReport(suite, trials)
    fails = partial(predicate, budget=budget)
    for t in range(trials):
        inst = _trial_instance(template, t, gen)
        try:
            if fails(inst):
                small = shrink_instance(inst, fails)
                report.violations.append({
                    "seed": template.seed ^ t,
                    "message": message,
                    "instance": serialize_instance(small),
                })
        except BudgetExhausted:
            report.exhausted += 1
    return report
