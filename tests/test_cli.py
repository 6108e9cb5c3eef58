import json
import os

import pytest

from hrs.cli import main
from hrs.model import HrsInstance, parse_instance, serialize_instance, matching_to_json, Matching
from hrs.harness import (
    GenParams, approx_gap_example, gen_master_list, gen_random, no_stable_example,
)
from hrs.partition import (
    OrderedPartition,
    detect_generalized_master_list,
    serialize_partition,
    size_descending_partition,
)
from hrs.solver import solve


@pytest.fixture
def example_files(tmp_path):
    no_stable = tmp_path / "no_stable.hrs"
    no_stable.write_text(serialize_instance(no_stable_example()))
    gap = tmp_path / "gap.hrs"
    gap.write_text(serialize_instance(approx_gap_example()))
    return {"no_stable": str(no_stable), "gap": str(gap), "dir": tmp_path}


# `hrs solve --trace` on the README's example instance, byte for byte, in
# format hrs-trace 2: each round holds its agents' pairs and the residual
# capacities of the hospitals they list; the final matching is their union
NO_STABLE_TRACE = (
    '{"final": {"matched": {"a1": "h1", "a3": "h2"}, "occupancy": {"h1": 1, "h2": 2}, '
    '"size": 3, "unmatched": ["a2"]}, "format": "hrs-trace 2", "partition": [["a3"], '
    '["a1", "a2"]], "provenance": "size_descending", "rounds": [{"matched": {"a3": "h2"}, '
    '"residual_caps": {"h2": 2}}, {"matched": {"a1": "h1"}, "residual_caps": {"h1": 1, '
    '"h2": 0}}]}\n'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_gap(capsys, example_files):
    code, out, _ = run(capsys, "solve", example_files["gap"], "--ordering", "size-desc")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 3
    assert data["matched"] == {"a1": "h1"}


def test_solve_writes_trace_only_with_flag(capsys, example_files, tmp_path):
    before = set(os.listdir(example_files["dir"]))
    code, _, _ = run(capsys, "solve", example_files["no_stable"])
    assert code == 0
    assert set(os.listdir(example_files["dir"])) == before
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(capsys, "solve", example_files["no_stable"], "--trace", str(trace_path))
    assert code == 0
    assert trace_path.read_text() == NO_STABLE_TRACE


def test_solve_detect_fails_cleanly(capsys, example_files):
    code, _, err = run(capsys, "solve", example_files["no_stable"], "--ordering", "detect")
    assert code == 1
    assert "no generalized master list" in err


def test_solve_detect_success(capsys, tmp_path):
    from hrs.harness import master_list_example

    path = tmp_path / "ml.hrs"
    path.write_text(serialize_instance(master_list_example()))
    code, out, _ = run(capsys, "solve", str(path), "--ordering", "detect")
    assert code == 0
    assert json.loads(out)["size"] >= 1


def test_solve_with_partition_file(capsys, example_files, tmp_path):
    part = tmp_path / "p.txt"
    part.write_text("a3\na1 a2\n")
    code, out, _ = run(capsys, "solve", example_files["no_stable"], "--ordering", f"file:{part}")
    assert code == 0
    assert json.loads(out)["matched"] == {"a1": "h1", "a3": "h2"}


@pytest.mark.parametrize("ordering", ["size-desc", "detect", "file"])
def test_solve_prints_the_final_matching_with_or_without_trace(capsys, tmp_path, ordering):
    # without --trace no trace is built; stdout is still solve(...).final
    inst = gen_master_list(GenParams(n_agents=40, n_hospitals=6, size_range=(1, 4), seed=3))
    path = tmp_path / "ml.hrs"
    path.write_text(serialize_instance(inst))
    if ordering == "size-desc":
        partition = size_descending_partition(inst)
    elif ordering == "detect":
        partition = detect_generalized_master_list(inst)
    else:
        partition = OrderedPartition(tuple((a,) for a in range(inst.n_agents)), "user")
        (tmp_path / "p.txt").write_text(serialize_partition(inst, partition))
        ordering = f"file:{tmp_path / 'p.txt'}"
    expected = json.dumps(matching_to_json(inst, solve(inst, partition).final), sort_keys=True)
    argv = ["solve", str(path), "--ordering", ordering]
    assert run(capsys, *argv) == (0, expected + "\n", "")
    assert run(capsys, *argv, "--trace", str(tmp_path / "t.json")) == (0, expected + "\n", "")


def test_solve_rejects_a_bad_partition_file_with_or_without_trace(capsys, example_files, tmp_path):
    part = tmp_path / "p.txt"
    part.write_text("a3\na1\n")  # a2 in no class
    argv = ["solve", example_files["no_stable"], "--ordering", f"file:{part}"]
    untraced = run(capsys, *argv)
    assert untraced[0] == 2 and untraced[1] == ""
    assert untraced[2].startswith("hrs: invalid partition: ")
    assert run(capsys, *argv, "--trace", str(tmp_path / "t.json")) == untraced
    assert not (tmp_path / "t.json").exists()


def test_verify_exit_codes(capsys, example_files, tmp_path):
    inst = no_stable_example()
    n = Matching.from_labeled_pairs(inst, [("a1", "h1"), ("a3", "h2")])
    mfile = tmp_path / "n.json"
    mfile.write_text(json.dumps(matching_to_json(inst, n)))
    code, out, _ = run(capsys, "verify", example_files["no_stable"],
                       "--matching", str(mfile), "--notion", "occupancy")
    assert code == 0 and json.loads(out) == []
    code, out, _ = run(capsys, "verify", example_files["no_stable"],
                       "--matching", str(mfile), "--notion", "classic")
    assert code == 1
    assert json.loads(out)[0]["agent"] == "a2"


def test_verify_infeasible(capsys, example_files, tmp_path):
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps({"matched": {"a1": "h2", "a2": "h2", "a3": "h2"}}))
    code, out, err = run(capsys, "verify", example_files["no_stable"], "--matching", str(mfile))
    assert (code, out) == (1, "")
    assert err == "hrs verify: infeasible matching: hospital h2 over capacity: 4 > 2\n"


def test_verify_unknown_agent_is_input_error(capsys, example_files, tmp_path):
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps({"matched": {"zz": "h1"}}))
    code, _, err = run(capsys, "verify", example_files["no_stable"], "--matching", str(mfile))
    assert code == 4 and "unknown agent" in err


def test_verify_non_string_hospital_is_input_error(capsys, example_files, tmp_path):
    # an unhashable label must not escape as TypeError (a traceback, exit 1)
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps({"matched": {"a1": ["h1"]}}))
    code, out, err = run(capsys, "verify", example_files["no_stable"], "--matching", str(mfile))
    assert (code, out) == (4, "")
    assert err == "hrs: hospital of agent 'a1' is not a label: ['h1']\n"


def test_oracle_stable_count_zero(capsys, example_files):
    code, out, _ = run(capsys, "oracle", example_files["no_stable"], "--query", "stable")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0 and data["verdict"] == "complete"


def test_oracle_max_occ(capsys, example_files):
    code, out, _ = run(capsys, "oracle", example_files["gap"], "--query", "max-occ")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 7 and data["witness"]["size"] == 7


@pytest.mark.parametrize("options, value", [
    (["--query", "stable"], None),
    (["--query", "occ-stable"], None),
    (["--query", "max-occ"], 0),
    (["--query", "a-perfect"], None),
], ids=["stable", "occ-stable", "max-occ", "a-perfect"])
def test_oracle_max_occ_many_agents(capsys, tmp_path, options, value):
    # far deeper than Python's recursion limit: the search keeps its own stack
    inst = HrsInstance.build([(f"a{i}", 1, []) for i in range(1500)], [("h1", 1, [])])
    path = tmp_path / "wide.hrs"
    path.write_text(serialize_instance(inst))
    code, out, err = run(capsys, "oracle", str(path), *options)
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["verdict"] == "complete" and data["value"] == value


def test_oracle_a_perfect(capsys, example_files):
    code, out, _ = run(capsys, "oracle", example_files["no_stable"], "--query", "a-perfect")
    assert code == 0
    assert json.loads(out)["exists"] is False


def test_oracle_budget_exit(capsys, example_files):
    code, out, _ = run(capsys, "oracle", example_files["no_stable"], "--query", "stable",
                       "--max-nodes", "2")
    assert code == 3
    assert json.loads(out)["verdict"] == "budget_exhausted"


def test_oracle_env_budget(capsys, example_files, monkeypatch):
    monkeypatch.setenv("HRS_MAX_NODES", "2")
    code, out, _ = run(capsys, "oracle", example_files["no_stable"], "--query", "stable")
    assert code == 3


def test_oracle_decompose_wide_hospital(capsys, tmp_path):
    # a hospital listing 20 agents once made the component search exit 2
    agents = [(f"a{i}", 1, ["hub", f"p{i}"]) for i in range(20)]
    hospitals = [("hub", 3, [f"a{i}" for i in range(20)])]
    hospitals += [(f"p{i}", 1, [f"a{i}"]) for i in range(20)]
    path = tmp_path / "star.hrs"
    path.write_text(serialize_instance(HrsInstance.build(agents, hospitals)))
    code, out, err = run(capsys, "oracle", str(path), "--query", "stable")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["verdict"] == "complete" and data["count"] == 1 and data["witness"] is not None


def test_oracle_stable_dense_instance(capsys, tmp_path):
    # every agent lists every hospital, so no hospital closes before the last
    # agent: an index-order search with hospital-level checks exhausts 300,000
    # nodes here, the component search with ranked pair checks takes 756
    inst = gen_random(GenParams(
        n_agents=9, n_hospitals=6, size_range=(1, 3), cap_range=(1, 6), density=1.0, seed=900159,
    ))
    path = tmp_path / "dense.hrs"
    path.write_text(serialize_instance(inst))
    code, out, err = run(capsys, "oracle", str(path), "--query", "stable", "--max-nodes", "5000")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["verdict"] == "complete" and data["count"] == 1
    # the component's first solution comes before its search runs out, so a
    # budget that trips later still reports it
    code, out, err = run(capsys, "oracle", str(path), "--query", "stable", "--max-nodes", "500")
    assert code == 3 and err == ""
    partial = json.loads(out)
    assert partial["verdict"] == "budget_exhausted" and partial["count"] == 1
    assert partial["witness"] == data["witness"] and partial["nodes"] == 501


def test_gen_deterministic_stdout(capsys):
    code, out1, _ = run(capsys, "gen", "--family", "uniform", "--agents", "4",
                        "--hospitals", "3", "--seed", "5")
    code2, out2, _ = run(capsys, "gen", "--family", "uniform", "--agents", "4",
                         "--hospitals", "3", "--seed", "5")
    assert code == code2 == 0 and out1 == out2
    inst = parse_instance(out1)
    assert inst.n_agents == 4


def test_gen_csmti_and_reduce_round_trip(capsys, tmp_path):
    code, smti_text, _ = run(capsys, "gen", "--family", "csmti", "--agents", "3",
                             "--seed", "9")
    assert code == 0
    src = tmp_path / "i.smti"
    src.write_text(smti_text)
    idx_path = tmp_path / "idx.json"
    code, out, _ = run(capsys, "reduce", str(src), "--target", "occ",
                       "--index", str(idx_path))
    assert code == 0
    reduced = parse_instance(out)
    assert reduced.validate().ok
    index = json.loads(idx_path.read_text())
    assert index["target"] == "occ" and len(index["women"]) == 3
    out_path = tmp_path / "r.hrs"
    code, silent, _ = run(capsys, "reduce", str(src), "--target", "stable",
                          "--out", str(out_path))
    assert code == 0 and silent == ""
    assert parse_instance(out_path.read_text()).validate().ok


def test_bench_ratio_stdout_and_files(capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "ratio", "--trials", "3", "--seed", "2",
                       "--agents", "4", "--hospitals", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,m,n_agents,sM,sMstar,ratio,verdict"
    assert len(lines) == 5  # header + pinned + 3 trials
    out_path = tmp_path / "r.csv"
    code, silent, _ = run(capsys, "bench", "ratio", "--trials", "3", "--seed", "2",
                          "--agents", "4", "--hospitals", "3", "--out", str(out_path))
    assert code == 0 and silent == ""
    assert out_path.read_text().splitlines()[0] == lines[0]
    agg = json.loads((tmp_path / "r.csv.json").read_text())
    assert agg["violations"] == 0


def test_test_subcommand(capsys):
    code, out, _ = run(capsys, "test", "--suite", "stable-implies-occ", "--trials", "20")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["trials"] == 20


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "x.hrs", "--query", "bogus"])
    assert err.value.code == 2


def test_missing_file_exit_four(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.hrs")
    assert code == 4


def test_bad_instance_exit_four(capsys, tmp_path):
    bad = tmp_path / "bad.hrs"
    bad.write_text("hrs v1\nagents:\na a1 0 : h1\nhospitals:\nh h1 1 : a1\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 4 and "non-positive size" in err


def test_stdout_idempotent(capsys, example_files):
    runs = [run(capsys, "oracle", example_files["gap"], "--query", "occ-stable") for _ in range(2)]
    assert runs[0] == runs[1]


def test_non_utf8_instance_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "latin1.hrs"
    bad.write_bytes("hrs v1\nagents:\na \xe91 1 :\nhospitals:\n".encode("latin-1"))
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 4 and "can't decode" in err and "Traceback" not in err


def test_oracle_negative_max_nodes_is_usage_error(capsys, example_files):
    code, out, err = run(capsys, "oracle", example_files["gap"], "--query", "max-occ",
                         "--max-nodes", "-1")
    assert code == 2 and out == "" and "non-negative" in err


def test_negative_trials_is_usage_error(capsys):
    code, out, err = run(capsys, "test", "--suite", "occ-stable-always", "--trials", "-1")
    assert code == 2 and out == "" and "negative trial count" in err
