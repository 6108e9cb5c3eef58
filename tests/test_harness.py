from dataclasses import replace

import pytest

from hrs.model import serialize_instance
from hrs.oracle import SearchBudget
from hrs.partition import detect_generalized_master_list, validate_ordered_partition
from hrs.reduce import serialize_smti, validate_csmti
from hrs.harness import (
    GenParams,
    _measure_ratio,
    _trial_instance,
    approx_gap_example,
    gen_csmti,
    gen_master_list,
    gen_random,
    run_property_suite,
    run_ratio_experiment,
    shrink_instance,
)


def test_gen_random_deterministic():
    params = GenParams(n_agents=3, n_hospitals=2, size_range=(1, 3),
                       cap_range=(1, 4), density=1.0, seed=7)
    a = gen_random(params)
    b = gen_random(params)
    assert serialize_instance(a) == serialize_instance(b)
    assert a.validate().ok
    assert all(len(p) == 2 for p in a.agent_prefs)  # full density


def test_gen_random_zero_density_gives_isolated_agents():
    inst = gen_random(GenParams(n_agents=4, n_hospitals=3, density=0.0, seed=1))
    assert all(p == () for p in inst.agent_prefs)
    assert inst.validate().ok


def test_gen_random_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random(GenParams(n_agents=3, n_hospitals=2, density=1.5))
    with pytest.raises(ValueError):
        gen_random(GenParams(n_agents=3, n_hospitals=2, size_range=(0, 2)))
    with pytest.raises(ValueError):
        gen_random(GenParams(n_agents=-1, n_hospitals=2))


@pytest.mark.parametrize("field,value", [
    ("n_agents", 2.5), ("n_hospitals", "2"), ("size_range", (1.0, 2)), ("cap_range", (1, None)),
    ("seed", 1.5), ("seed", "1"), ("n_ties", 1.5),
])
def test_gen_params_reject_a_non_int(field, value):
    # gen_random(GenParams(2.5, 2)) used to raise TypeError from range()
    params = replace(GenParams(n_agents=3, n_hospitals=2), **{field: value})
    with pytest.raises(ValueError, match="counts, ranges and seed must be ints"):
        params.check()


def test_gen_params_take_a_bool_as_the_int_it_equals():
    as_bool = gen_random(GenParams(n_agents=True, n_hospitals=2, seed=False))
    assert serialize_instance(as_bool) == serialize_instance(gen_random(GenParams(1, 2, seed=0)))


def test_gen_master_list_always_detectable():
    for seed in range(40):
        inst = gen_master_list(GenParams(n_agents=7, n_hospitals=4, density=0.6, seed=seed))
        p = detect_generalized_master_list(inst)
        assert p is not None
        assert validate_ordered_partition(inst, p, require_gen_ml=True).ok


def test_gen_master_list_single_class_unconstrained():
    inst = gen_master_list(GenParams(n_agents=5, n_hospitals=3, size_range=(2, 2), seed=3))
    assert detect_generalized_master_list(inst) is not None


def test_gen_csmti_valid_and_deterministic():
    params = GenParams(n_agents=3, n_hospitals=3, n_ties=1, seed=11)
    a = gen_csmti(params)
    b = gen_csmti(params)
    assert serialize_smti(a) == serialize_smti(b)
    assert validate_csmti(a).ok


def test_gen_csmti_coinflip_ties_valid():
    for seed in range(20):
        smti = gen_csmti(GenParams(n_agents=4, n_hospitals=4, seed=seed))
        assert validate_csmti(smti).ok


def test_gen_csmti_small_n_with_strict_rejected():
    with pytest.raises(ValueError):
        gen_csmti(GenParams(n_agents=2, n_hospitals=2, n_ties=1, seed=0))
    # all tied at n=2 is fine
    smti = gen_csmti(GenParams(n_agents=2, n_hospitals=2, n_ties=2, seed=0))
    assert validate_csmti(smti).ok


def test_ratio_experiment_report():
    params = GenParams(n_agents=5, n_hospitals=3, density=0.7, seed=1)
    report = run_ratio_experiment(params, trials=25, budget=SearchBudget())
    assert len(report.rows) == 26
    pinned = report.rows[0]
    assert pinned.seed == -1 and pinned.s_alg == 3 and pinned.s_best == 7
    assert pinned.ratio == pytest.approx(7 / 3)
    agg = report.aggregates
    assert agg["violations"] == 0
    assert agg["max_ratio"] < 3
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "seed,m,n_agents,sM,sMstar,ratio,verdict"
    assert len(csv_text.splitlines()) == 27
    # byte-identical reruns
    again = run_ratio_experiment(params, trials=25, budget=SearchBudget())
    assert again.to_csv() == csv_text


def test_ratio_experiment_parallel_matches_serial():
    params = GenParams(n_agents=4, n_hospitals=3, density=0.7, seed=5)
    serial = run_ratio_experiment(params, trials=8, jobs=1)
    parallel = run_ratio_experiment(params, trials=8, jobs=2)
    assert serial.to_csv() == parallel.to_csv()


def test_ratio_experiment_keeps_the_budget_deadline():
    # a deadline of 0 s stops a search at its first clock check, node 2,048,
    # so a trial's verdict does not depend on the machine's speed
    params = GenParams(n_agents=22, n_hospitals=6, density=0.6, seed=11)
    budget = SearchBudget(deadline=0.0)
    direct = [_measure_ratio(approx_gap_example(), -1, budget)] + [
        _measure_ratio(_trial_instance(params, t, gen_random), params.seed ^ t, budget)
        for t in range(4)
    ]
    assert {row.verdict for row in direct} == {"complete", "budget_exhausted"}
    for jobs in (1, 2):
        report = run_ratio_experiment(params, trials=4, budget=budget, jobs=jobs)
        assert report.rows == direct


@pytest.mark.parametrize("suite", ["occ-stable-always", "gen-ml-stable", "stable-implies-occ"])
def test_property_suites_pass(suite):
    report = run_property_suite(suite, trials=60, budget=SearchBudget())
    assert report.passed, report.to_json()


def test_property_suite_unknown():
    with pytest.raises(ValueError):
        run_property_suite("nope", trials=1)


def test_shrink_instance():
    inst = gen_random(GenParams(n_agents=6, n_hospitals=4, density=1.0, seed=2))

    def fails(candidate):
        return any(s >= 2 for s in candidate.sizes) and candidate.n_hospitals >= 1

    small = shrink_instance(inst, fails)
    assert fails(small)
    # locally minimal: one agent of size >= 2, one hospital, no edges left
    assert small.n_agents == 1 and small.n_hospitals == 1
    assert small.n_edges == 0
