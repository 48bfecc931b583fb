import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleint
from cycleint import intersect, transform
from cycleint.cli import main
from cycleint.extremal import stabilizer_family
from cycleint.intersect import PermFamily
from cycleint.perm import Permutation
from cycleint.report import FAIL, HYPOTHESIS_NOT_MET, PASS, VerificationReport


@pytest.fixture
def stab_family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(stabilizer_family((1, 2), 5).to_json_dict()))
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_transform_pipeline(tmp_path, stab_family_file):
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code = main(["transform", "--in", str(stab_family_file),
                 "--pipeline", "fix-closure,compress-closure",
                 "--trace", str(trace), "--out", str(out)])
    assert code == 0
    family = PermFamily.from_json_dict(read_json(out))
    assert len(family) == 6
    steps = read_json(trace)["steps"]
    assert [s["step"] for s in steps] == ["fix-closure", "compress-closure"]
    assert all(list(s) == ["step", "passes", "applications", "potential_before",
                           "potential_after", "pass_applications"] for s in steps)
    assert all(s["applications"] == 0 for s in steps)  # stabilizer is a fixpoint


def test_transform_maximalize_pipeline(tmp_path):
    seed = tmp_path / "seed.json"
    # cycle notation is accepted wherever a permutation row is
    seed.write_text(json.dumps({"n": 5, "perms": ["()"]}))
    out = tmp_path / "out.json"
    code = main(["transform", "--in", str(seed), "--t", "2",
                 "--pipeline", "maximalize,fix-closure,compress-closure",
                 "--out", str(out)])
    assert code == 0
    family = PermFamily.from_json_dict(read_json(out))
    assert len(family) == 6


def test_transform_maximalize_requires_t(tmp_path, stab_family_file):
    code = main(["transform", "--in", str(stab_family_file),
                 "--pipeline", "maximalize"])
    assert code == 2


def test_transform_unknown_step(tmp_path, stab_family_file):
    assert main(["transform", "--in", str(stab_family_file),
                 "--pipeline", "right-closure"]) == 2


def test_malformed_json_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "perms": [[1, 2, 3], [1, 1, 2]]}')
    assert main(["transform", "--in", str(bad)]) == 2
    assert "perms[1]" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["transform", "--in", str(broken)]) == 2
    assert "line" in capsys.readouterr().err


def test_file_that_is_not_utf8_names_its_path(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"n": 3, "perms": ["\xe9"]}')
    assert main(["transform", "--in", str(latin1)]) == 2
    assert capsys.readouterr().err == f"error: {latin1}: not UTF-8 at byte 20\n"


def test_missing_file_is_usage_error(tmp_path):
    assert main(["transform", "--in", str(tmp_path / "absent.json")]) == 2


def test_unknown_flag_and_subcommand_exit_2(stab_family_file):
    assert main(["search", "--n", "3", "--t", "1", "--frobnicate"]) == 2
    assert main(["no-such-command"]) == 2


def test_gensets_derive_and_checks(tmp_path, stab_family_file):
    out = tmp_path / "cert.json"
    code = main(["gensets", "--family", str(stab_family_file), "--t", "2",
                 "--derive", "--check", "all", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["certificate"]["family_size"] == 6
    assert payload["certificate"]["max_element"] == 2
    assert payload["certificate"]["system"]["sets"] == [[1, 2]]
    statuses = {r["check"]: r["status"] for r in payload["report"]["records"]}
    assert statuses == {"generating-set": "pass", "t-intersecting": "pass",
                        "pair-overlap": "pass", "disjoint-union": "pass"}


def test_gensets_check_requires_t(stab_family_file):
    assert main(["gensets", "--family", str(stab_family_file),
                 "--check", "all"]) == 2


@pytest.mark.parametrize("check", ["", ",", " , "])
def test_gensets_empty_check_is_a_usage_error(tmp_path, stab_family_file, check, capsys):
    out = tmp_path / "out.json"
    assert main(["gensets", "--family", str(stab_family_file), "--t", "2",
                 "--check", check, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: empty --check\n"
    assert captured.out == ""
    assert not out.exists()


def test_gensets_failing_check_exits_one(tmp_path):
    # the family fixing at least 2 of the first 3 points in S_4 derives the
    # left-compressed antichain of 2-subsets of [3], which violates the
    # pair-overlap conclusion at t = 2
    fam = PermFamily.from_images(4, [[1, 2, 3, 4], "(1 4)", "(2 4)", "(3 4)"])
    path = tmp_path / "family.json"
    path.write_text(json.dumps(fam.to_json_dict()))
    out = tmp_path / "out.json"
    code = main(["gensets", "--family", str(path), "--t", "2",
                 "--check", "pair-overlap", "--out", str(out)])
    assert code == 1
    records = read_json(out)["report"]["records"]
    assert records[0]["status"] == "fail"
    assert records[0]["witness"]["intersection_size"] == 2


def test_extremal_compare(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["extremal", "--n", "8", "--t", "4",
                 "--families", "F0,F1", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["sizes"] == {"F0": 24, "F1": 26}


def test_extremal_summary_separates_only_what_it_prints(tmp_path, capsys):
    # one family has no verdicts, so its sizes end the line
    out = str(tmp_path / "cmp.json")
    assert main(["extremal", "--n", "5", "--t", "1", "--families", "F1", "--out", out]) == 0
    assert capsys.readouterr().out == "(n=5, t=1): |F1|=14\n"
    assert main(["extremal", "--n", "7", "--t", "3", "--families", "F0,F1,F2",
                 "--out", out]) == 0
    assert capsys.readouterr().out == \
        "(n=7, t=3): |F0|=24 |F1|=22 |F2|=22; F0 > F1; F0 > F2; F1 = F2\n"


def test_extremal_cross_check_failure_exits_one(monkeypatch, capsys):
    from cycleint import extremal
    monkeypatch.setattr(extremal, "f_family_size", lambda n, t, i: 0)
    assert main(["extremal", "--n", "5", "--t", "2", "--families", "F0"]) == 1
    assert "cross-check failed" in capsys.readouterr().err


def test_extremal_refuses_a_count_too_long_to_print(capsys):
    assert main(["extremal", "--n", "2000", "--t", "1", "--families", "F0"]) == 2
    err = capsys.readouterr().err
    assert "|F0| at (n=2000, t=1) is at least (1999)!" in err
    assert "the interpreter's limit for printing an integer" in err


def test_extremal_rejects_unknown_family_name():
    assert main(["extremal", "--n", "6", "--t", "3", "--families", "G1"]) == 2


@pytest.mark.parametrize("name", ["F\u00b2", "F\u2082", "F"])
def test_extremal_rejects_family_names_that_are_not_decimal(name, capsys):
    assert main(["extremal", "--n", "6", "--t", "3", "--families", name]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown family name {name!r}; use F0, F1, F2, ...\n"


@pytest.mark.parametrize("families", ["", ",", " , "])
def test_extremal_empty_families_is_a_usage_error(tmp_path, families, capsys):
    # an empty list compares nothing, so it must not fall back to F0,F1
    out = tmp_path / "out.json"
    assert main(["extremal", "--n", "7", "--t", "3", "--families", families,
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: empty --families\n"
    assert captured.out == ""
    assert not out.exists()


def test_extremal_quad(tmp_path):
    out = tmp_path / "quad.json"
    code = main(["extremal", "quad", "--t-max", "10", "--n-span", "10",
                 "--out", str(out)])
    assert code == 0
    assert read_json(out)["passed"] is True


@pytest.mark.parametrize("flag,value", [("--t-max", "0"), ("--n-span", "-2")])
def test_extremal_quad_that_checks_nothing_is_a_usage_error(flag, value, capsys):
    assert main(["extremal", "quad", flag, value]) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1, got {value}" in captured.err
    assert captured.out == ""


def test_search_enumerate_all(tmp_path):
    out = tmp_path / "result.json"
    code = main(["search", "--n", "3", "--t", "1", "--enumerate-all",
                 "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["max_size"] == 2
    assert len(payload["witnesses"]) == 3
    assert payload["complete"] is True


def test_search_graph_export(tmp_path):
    out = tmp_path / "result.json"
    edges = tmp_path / "graph.txt"
    code = main(["search", "--n", "3", "--t", "1", "--out", str(out),
                 "--export-graph", str(edges)])
    assert code == 0
    lines = edges.read_text().splitlines()
    assert lines[0] == "p edge 6 3"


def test_search_exports_the_graph_it_searched(tmp_path, monkeypatch, capsys):
    from cycleint import cli, intersect, search

    builds = []
    build = intersect.build_intersection_graph

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    for module in (intersect, search, cli):
        monkeypatch.setattr(module, "build_intersection_graph", counted)
    edges = tmp_path / "graph.txt"
    assert main(["search", "--n", "4", "--t", "2", "--export-graph", str(edges)]) == 0
    assert len(builds) == 1
    assert edges.read_text().startswith("p edge 24 ")

    def refuse(n):
        raise AssertionError(f"walked S_{n}")

    monkeypatch.delenv(intersect.ENUMERATION_CAP_ENV, raising=False)
    monkeypatch.setattr(intersect, "_build_sn_table", refuse)
    capsys.readouterr()
    edges = tmp_path / "graph9.txt"
    assert main(["search", "--n", "9", "--t", "1", "--export-graph", str(edges)]) == 2
    assert capsys.readouterr().err == "error: degree 9 exceeds enumeration cap 7\n"
    assert not edges.exists()


def test_search_refuses_rows_beyond_physical_memory(monkeypatch, capsys):
    from cycleint import intersect

    def refuse(n):
        raise AssertionError(f"walked S_{n}")

    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "10")
    monkeypatch.setattr(intersect, "all_permutations", refuse)
    assert main(["search", "--n", "10", "--t", "1"]) == 2
    # rows and 1 112 083 per-cycle bitsets of 10! bits: about 2.15 TB
    need = (math.factorial(10) + 1_112_083) * math.factorial(10) // 8
    err = capsys.readouterr().err
    assert err.startswith(f"error: degree 10: the adjacency rows and the per-cycle "
                          f"bitsets need {need} bytes, ")
    assert err.endswith(" bytes this process may use\n")


def _refuse_to_build(monkeypatch):
    from cycleint import intersect

    def refuse(*args):
        raise AssertionError("built S_n or its bitsets past the memory check")

    monkeypatch.setattr(intersect, "_build_sn_table", refuse)
    monkeypatch.setattr(intersect._SnTable, "neighbours", refuse)


def test_search_refuses_rows_beyond_the_memory_limit(monkeypatch, capsys):
    # the limit reader sees the smaller of physical memory and a cgroup limit
    from cycleint import intersect

    need = (math.factorial(5) + 89) * math.factorial(5) // 8  # 3135: rows and cycles
    monkeypatch.setattr(intersect, "_memory_limit", lambda: need - 1)
    _refuse_to_build(monkeypatch)
    assert main(["search", "--n", "5", "--t", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: degree 5: the adjacency rows and the per-cycle bitsets need {need} "
        f"bytes, more than the {need - 1} bytes this process may use\n")


def test_graph_build_counts_the_per_cycle_bitsets(monkeypatch, capsys):
    # a limit that holds the 120 rows of 120 bits but not the 89 per-cycle
    # bitsets alive while the rows are built
    from cycleint import intersect

    rows = math.factorial(5) ** 2 // 8
    monkeypatch.setattr(intersect, "_memory_limit", lambda: rows)
    assert main(["search", "--n", "5", "--t", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: degree 5: the adjacency rows and the per-cycle bitsets need 3135 bytes, ")


def test_t_zero_counts_the_adjacency_rows_alone(monkeypatch, capsys):
    # a t = 0 walk builds no per-cycle bitsets, so the graph holds its 120 rows
    # of 120 bits and nothing more
    from cycleint import intersect

    rows = math.factorial(5) ** 2 // 8  # 1800
    monkeypatch.setattr(intersect, "_memory_limit", lambda: rows)
    assert main(["search", "--n", "5", "--t", "0"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(intersect, "_memory_limit", lambda: rows - 1)
    _refuse_to_build(monkeypatch)
    assert main(["search", "--n", "5", "--t", "0"]) == 2
    assert capsys.readouterr().err == (
        f"error: degree 5: the adjacency rows need {rows} bytes, "
        f"more than the {rows - 1} bytes this process may use\n")
    monkeypatch.undo()
    monkeypatch.setattr(intersect, "_memory_limit", lambda: 0)
    assert main(["verify", "--suite", "pipeline", "--n", "5", "--t", "0",
                 "--trials", "1", "--seed", "1"]) == 0


def test_pipeline_refuses_an_index_beyond_the_memory_limit(monkeypatch, capsys):
    # one n!-bit bitset per distinct cycle of S_n: 5 + 10 + 20 + 30 + 24 at n = 5
    from cycleint import intersect

    need = 89 * math.factorial(5) // 8
    monkeypatch.setattr(intersect, "_memory_limit", lambda: need - 1)
    _refuse_to_build(monkeypatch)
    argv = ["verify", "--suite", "pipeline", "--n", "5", "--t", "2", "--trials", "1",
            "--seed", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: degree 5: the per-cycle bitsets need {need} bytes, "
        f"more than the {need - 1} bytes this process may use\n")
    monkeypatch.undo()  # builds allowed again, and exactly enough memory
    monkeypatch.setattr(intersect, "_memory_limit", lambda: need)
    assert main(argv) == 0


def test_search_canonical_witnesses(tmp_path):
    out = tmp_path / "result.json"
    code = main(["search", "--n", "4", "--t", "1", "--enumerate-all",
                 "--canonical-witnesses", "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert len(payload["witnesses"]) == 4
    assert len(payload["conjugacy_representatives"]) == 1


def test_verify_theorem14(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "theorem14", "--n", "5", "--t", "2",
                 "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["suite"] == "theorem14"
    assert payload["passed"] is True
    assert all(set(r) >= {"check", "params", "status"}
               for r in payload["records"])


def test_verify_theorem14_hypothesis_not_met_still_exits_zero(tmp_path):
    code = main(["verify", "--suite", "theorem14", "--n", "4", "--t", "2"])
    assert code == 0


def test_verify_counterexample(tmp_path):
    assert main(["verify", "--suite", "counterexample",
                 "--n", "7", "--t", "4"]) == 0
    assert main(["verify", "--suite", "counterexample",
                 "--n", "9", "--t", "4"]) == 2


def test_counterexample_refuses_sizes_too_long_to_print(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "counterexample", "--n", "20000", "--t", "10000"]
    for extra in ([], ["--out", str(out)]):
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: |F0| at (n=20000, t=10000) is at least (10000)!, which has more than ")
        assert "the interpreter's limit for printing an integer" in captured.err
    assert not out.exists()


def test_verify_pipeline_requires_seed():
    assert main(["verify", "--suite", "pipeline", "--n", "5", "--t", "2",
                 "--trials", "5"]) == 2
    assert main(["verify", "--suite", "all"]) == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_pipeline_without_a_trial_is_a_usage_error(trials, capsys):
    assert main(["verify", "--suite", "pipeline", "--n", "5", "--t", "2",
                 "--trials", trials, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert f"trials must be at least 1, got {trials}" in captured.err
    assert "PASS" not in captured.out


def test_verify_refuses_a_negative_t(capsys):
    for argv in (["theorem14", "--n", "5"], ["theorem14", "--n", "7", "--budget", "3"],
                 ["pipeline", "--n", "5", "--trials", "1", "--seed", "1"]):
        assert main(["verify", "--suite", *argv, "--t", "-1"]) == 2, argv
        captured = capsys.readouterr()
        assert "t must be at least 0, got -1" in captured.err
        assert captured.out == ""
    assert main(["verify", "--suite", "theorem14", "--n", "3", "--t", "0"]) == 0


@pytest.mark.parametrize("argv", [
    ["search", "--n", "4", "--t", "-1"],
    ["search", "--n", "4", "--t", "-1", "--enumerate-all"],
    ["transform", "--in", "FAMILY", "--pipeline", "maximalize", "--t", "-1"],
    ["transform", "--in", "FAMILY", "--pipeline", "fix-closure,maximalize", "--t", "-1"],
    *(["gensets", "--family", "FAMILY", "--check", check, "--t", "-1"]
      for check in ("generating-set", "t-intersecting", "pair-overlap",
                    "disjoint-union", "all"))])
def test_every_command_refuses_a_negative_t(tmp_path, stab_family_file, capsys, argv):
    out = tmp_path / "out.json"
    argv = [str(stab_family_file) if a == "FAMILY" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: t must be at least 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_summary_counts_the_records_not_assessed(capsys):
    assert main(["verify", "--suite", "theorem14", "--n", "6", "--t", "2",
                 "--budget", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "suite theorem14: 3 checks, all passed, 2 not assessed"
    rep = VerificationReport("demo")
    rep.add("a", {}, PASS)
    assert rep.summary_lines()[-1] == "suite demo: 1 checks, all passed"
    rep.add("b", {}, FAIL)
    rep.add("c", {}, HYPOTHESIS_NOT_MET)
    assert rep.summary_lines()[-1] == "suite demo: 3 checks, 1 failed, 1 not assessed"


def test_verify_pipeline_runs(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "pipeline", "--n", "5", "--t", "2",
                 "--trials", "10", "--seed", "3", "--out", str(out)])
    assert code == 0
    assert read_json(out)["passed"] is True


def test_verify_pipeline_at_t_0_is_not_a_usage_error(capsys):
    assert main(["verify", "--suite", "pipeline", "--n", "4", "--t", "0",
                 "--trials", "30", "--seed", "1"]) == 0
    # every trial maximalizes to all of S_n, whose star generating set is {∅}
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "SKIP disjoint-union-decomposition" in captured.out
    assert captured.out.splitlines()[-1] == \
        "suite pipeline: 8 checks, all passed, 1 not assessed"


def test_verify_surgery():
    assert main(["verify", "--suite", "surgery"]) == 0


def test_verify_suite_all(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--n-max", "5", "--seed", "42",
                 "--out", str(out)])
    assert code == 0
    payload = read_json(out)
    assert payload["passed"] is True
    assert len(payload["records"]) >= 40


@pytest.mark.parametrize("argv", [
    ["search", "--n", "0", "--t", "1"],
    ["search", "--n", "-3", "--t", "1"],
    ["verify", "--suite", "theorem14", "--n", "0", "--t", "-1"],
    ["verify", "--suite", "theorem14", "--n", "0", "--t", "0"],
    ["verify", "--suite", "theorem14", "--n", "-5", "--t", "0"],
    ["verify", "--suite", "pipeline", "--n", "-1", "--t", "1", "--seed", "1"]])
def test_degree_below_one_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: degree must be at least 1\n" and not captured.out


def test_verify_suite_all_names_its_degree_flag(capsys):
    assert main(["verify", "--suite", "all", "--n-max", "0", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: --n-max must be at least 1, got 0\n"


def test_verify_suite_all_below_the_pipeline_threshold(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--n-max", "2", "--seed", "1",
                 "--out", str(out)]) == 0
    (pullback,) = [r for r in read_json(out)["records"]
                   if r["check"] == "stabilizer-pullback"]
    assert pullback["status"] == "hypothesis-not-met"
    assert pullback["detail"] == "n=2 < 2t+1=3"


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_search_budget_must_be_finite_and_not_negative(capsys, budget):
    # (3, 2) is below n = 2t+1, where theorem14 searches nothing
    for argv in (["search", "--n", "5", "--t", "1"],
                 ["verify", "--suite", "theorem14", "--n", "3", "--t", "2"]):
        assert main(argv + ["--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not captured.out


ENUMERATION_CAP_4 = (intersect.ENUMERATION_CAP_ENV, "4", "exceeds enumeration cap 4")


@pytest.mark.parametrize("env, value, message, argv", [
    (*ENUMERATION_CAP_4, ["transform", "--pipeline", "maximalize", "--t", "1"]),
    (*ENUMERATION_CAP_4, ["gensets", "--check", "disjoint-union", "--t", "2"]),
    (*ENUMERATION_CAP_4, ["verify", "--suite", "pipeline", "--n", "5", "--t", "2",
                          "--trials", "2", "--seed", "1"]),
    (*ENUMERATION_CAP_4, ["verify", "--suite", "surgery"]),
    (*ENUMERATION_CAP_4, ["verify", "--suite", "all", "--n-max", "5", "--seed", "1"]),
    (*ENUMERATION_CAP_4, ["search", "--n", "5", "--t", "1"]),
])
def test_cap_env_reaches_every_walk(monkeypatch, capsys, stab_family_file,
                                    env, value, message, argv):
    monkeypatch.setenv(env, value)
    family_flag = {"transform": "--in", "gensets": "--family"}.get(argv[0])
    if family_flag:
        argv = argv + [family_flag, str(stab_family_file)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_counterexample_cross_check_skipped_above_enumeration_cap(
        monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--suite", "counterexample", "--n", "7", "--t", "4",
            "--out", str(out)]
    assert main(argv) == 0
    names = [r["check"] for r in read_json(out)["records"]]
    assert "counting-mode-matches-enumeration" in names
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "4")
    assert main(argv) == 0
    names = [r["check"] for r in read_json(out)["records"]]
    assert "counting-mode-matches-enumeration" not in names


@pytest.mark.parametrize("argv", [
    ["transform", "--in", "family.json", "--enumeration-cap=8"],
    ["gensets", "--family", "family.json", "--enumeration-cap=8"],
    ["extremal", "--n", "5", "--t", "1", "--enumeration-cap=8"],
    ["verify", "--suite", "surgery", "--enumeration-cap=8"],
    ["search", "--n", "4", "--t", "1", "--search-cap=8"],
    ["verify", "--suite", "surgery", "--search-cap=8"],
])
def test_removed_cap_flags_exit_2(capsys, argv):
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_errors_exit_2(monkeypatch, capsys, error):
    from cycleint import search

    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(search, "max_family_search", exhausted)
    assert main(["search", "--n", "4", "--t", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error.__name__}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("perms, code", [
    (["()", "(11 12)"], 0),                        # the stabilizer of [10]
    (["(2 3 4 5 6 7 8 9 10 11 12)"], 1),           # fixes only the point 1
])
def test_gensets_generating_set_at_degree_12(tmp_path, monkeypatch, perms, code):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"n": 12, "perms": perms}))
    built = []
    original = Permutation.__init__

    def bounded_init(self, image):
        # a walk over S_12 or a coset of it would build millions of rows
        built.append(None)
        if len(built) > 50:
            raise RuntimeError("walked S_12")
        original(self, image)

    monkeypatch.setattr(Permutation, "__init__", bounded_init)
    assert main(["gensets", "--family", str(path), "--t", "1",
                 "--check", "generating-set"]) == code


# --- JSON fuzzing ------------------------------------------------------------

@st.composite
def families(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.permutations(range(1, n + 1)), max_size=6))
    return PermFamily(n, (Permutation(r) for r in rows))


@settings(max_examples=100, deadline=None)
@given(families())
def test_family_json_round_trip(family):
    text = json.dumps(family.to_json_dict())
    assert PermFamily.from_json_dict(json.loads(text)) == family
    cycles = {"n": family.n, "perms": ["".join(f"({' '.join(map(str, c))})"
                                               for c in p.cycles() if len(c) > 1)
                                       for p in family]}
    assert PermFamily.from_json_dict(json.loads(json.dumps(cycles))) == family


_NOT_INTEGERS = [None, "x", "1.5", "", [], [5], {}, {"n": 3}, math.inf, math.nan]


@st.composite
def malformed_families(draw):
    """A valid family JSON with exactly one fault put in."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
    data = {"n": n, "perms": [list(r) for r in rows]}
    fault = draw(st.sampled_from(["root", "no-n", "no-perms", "n", "degree",
                                  "perms", "entry", "repeat", "row"]))
    row = draw(st.integers(0, len(rows) - 1))
    if fault == "root":
        return draw(st.sampled_from([None, 3, "family", [data]]))
    if fault in ("no-n", "no-perms"):
        del data[fault[3:]]
    elif fault == "n":
        data["n"] = draw(st.sampled_from(_NOT_INTEGERS))
    elif fault == "degree":
        data["n"] = draw(st.sampled_from([-1, 0, n + 1]))
    elif fault == "perms":
        data["perms"] = draw(st.sampled_from([None, 7, "()", {"()": 1}]))
    elif fault == "entry":
        data["perms"][row][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([0, n + 1, -3, 10**6, None, "a", [1], 2.9, 2.0, True, "2"]))
    elif fault == "repeat" and n > 1:
        data["perms"][row][0] = data["perms"][row][1]
    else:  # a row too long for the degree, also for "repeat" at n = 1
        data["perms"][row] = data["perms"][row] + [n + 1]
    return data


@settings(max_examples=100, deadline=None)
@given(malformed_families())
def test_malformed_family_json_exits_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(json.dumps(data))
        for argv in (["transform", "--in", str(path)],
                     ["gensets", "--family", str(path), "--t", "1",
                      "--check", "all"]):
            out = Path(tmp) / "out.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(argv + ["--out", str(out)]) == 2, (argv, data)
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
            assert not out.exists()


@pytest.mark.parametrize("n,perms", [(2.9, [[2, 1]]), (True, [[1]]), (False, []),
                                     ("3", [[1, 2, 3]]), (3.0, [[1, 2, 3]])])
def test_family_json_degree_must_be_an_int(tmp_path, capsys, n, perms):
    data = {"n": n, "perms": perms}
    with pytest.raises(ValueError, match='"n" must be an integer'):
        PermFamily.from_json_dict(data)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    assert main(["transform", "--in", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("row", [[2.9, 1], ["2", True]])
def test_family_json_entries_must_be_ints(tmp_path, capsys, row):
    data = {"n": 2, "perms": [row]}
    with pytest.raises(ValueError, match="not an integer"):
        PermFamily.from_json_dict(data)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.json"
    for argv in (["transform", "--in", str(path)],
                 ["gensets", "--family", str(path), "--t", "1", "--check", "all"]):
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_transform_at_degree_400_sweeps_only_rows_a_member_moves(tmp_path, monkeypatch):
    n = 400

    def transposition(a, b):
        image = list(range(1, n + 1))
        image[a - 1], image[b - 1] = b, a
        return image

    calls = []
    rewrite_step = transform._rewrite_step
    monkeypatch.setattr(transform, "_rewrite_step",
                        lambda *args: calls.append(args) or rewrite_step(*args))
    family, out, trace = (tmp_path / name for name in ("in.json", "out.json", "trace.json"))
    argv = ["transform", "--in", str(family), "--out", str(out), "--trace", str(trace)]
    family.write_text(json.dumps({"n": n, "perms": []}))
    assert main(argv) == 0
    assert read_json(out) == {"n": n, "perms": []} and not calls
    family.write_text(json.dumps({"n": n, "perms": [transposition(1, 2),
                                                    transposition(399, 400)]}))
    assert main(argv) == 0
    assert read_json(out) == {"n": n, "perms": [list(range(1, n + 1)),
                                                transposition(399, 400)]}
    assert read_json(trace) == {"steps": [
        {"step": "fix-closure", "passes": 2, "applications": 1,
         "potential_before": 796, "potential_after": 798, "pass_applications": [1, 0]},
        {"step": "compress-closure", "passes": 1, "applications": 0,
         "potential_before": 159601, "potential_after": 159601,
         "pass_applications": [0]}]}
    # (1, 2), (399, 400) and (400, 399), then the last two again, when fixing;
    # nothing is offered when compressing. A sweep of every pair would take
    # 2 n(n-1) + n(n-1)/2 operator applications.
    assert len(calls) == 5
    calls.clear()
    family.write_text(json.dumps({"n": n, "perms": [transposition(1, 2),
                                                    transposition(3, 4)]}))
    assert main(argv) == 0
    assert read_json(out) == {"n": n, "perms": [list(range(1, n + 1)),
                                                transposition(399, 400)]}
    assert read_json(trace) == {"steps": [
        {"step": "fix-closure", "passes": 2, "applications": 1,
         "potential_before": 796, "potential_after": 798, "pass_applications": [1, 0]},
        {"step": "compress-closure", "passes": 2, "applications": 396,
         "potential_before": 160393, "potential_after": 159601,
         "pass_applications": [396, 0]}]}
    # fixing as above; compressing carries (3 4) down one row at a time, at
    # (i, i + 2) for rows 3 to 398, and the second pass finds nothing offered
    assert len(calls) == 5 + 396


def test_closures_of_the_empty_family_return_at_once(tmp_path, monkeypatch):
    walks = []
    iterate = PermFamily.__iter__

    def counted(family):
        walks.append(None)
        if len(walks) > 100:
            raise AssertionError("a closure walked the rows of the empty family")
        return iterate(family)

    monkeypatch.setattr(PermFamily, "__iter__", counted)
    family, out, trace = (tmp_path / name for name in ("in.json", "out.json", "trace.json"))
    family.write_text(json.dumps({"n": 10**12, "perms": []}))
    assert main(["transform", "--in", str(family), "--out", str(out),
                 "--trace", str(trace)]) == 0
    assert read_json(out) == {"n": 10**12, "perms": []}
    clean = {"passes": 1, "applications": 0, "potential_before": 0,
             "potential_after": 0, "pass_applications": [0]}
    assert read_json(trace) == {"steps": [{"step": "fix-closure", **clean},
                                          {"step": "compress-closure", **clean}]}


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    """``main`` reuses one parser in a process; a run of calls, a usage error
    among them, prints, exits and writes what fresh processes do."""
    argvs = [["search", "--n", "4", "--t", "2", "--enumerate-all"],
             ["verify", "--suite", "pipeline", "--n", "5", "--t", "2", "--trials", "4",
              "--seed", "1"],
             ["search", "--n", "four", "--t", "1"],
             ["extremal", "--n", "5", "--t", "2"],
             ["verify", "--suite", "counterexample", "--n", "7", "--t", "4"],
             ["search", "--n", "4", "--t", "1"]]

    def outputs(run):
        results = []
        for k, argv in enumerate(argvs):
            out = tmp_path / f"{k}.json"
            code, stdout, stderr = run(argv + ["--out", str(out)])
            payload = read_json(out) if out.exists() else None
            if payload and "stats" in payload:
                payload["stats"].pop("elapsed_seconds", None)
            results.append((code, stdout, stderr, payload))
            out.unlink(missing_ok=True)
        return results

    def in_process(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    src = str(Path(cycleint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "cycleint.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    got = outputs(in_process)
    assert [code for code, *_ in got] == [0, 0, 2, 0, 0, 0]
    assert got == outputs(fresh)
