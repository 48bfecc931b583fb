import itertools
import math

import pytest

from cycleint import config
from cycleint.extremal import stabilizer_family
from cycleint.intersect import (build_intersection_graph,
                                is_family_t_cycle_intersecting, is_maximal)
from cycleint.perm import identity
from cycleint.report import FAIL, HYPOTHESIS_NOT_MET, PASS
from cycleint.search import (ENUMERATE_ALL, conjugacy_representatives,
                             max_family_search,
                             naive_max_family_size, pipeline_roundtrip,
                             run_suite_all, verify_counterexample_regime,
                             verify_max_bound, verify_surgery_instances)


def test_branch_and_bound_agrees_with_naive_oracle():
    for n in (1, 2, 3, 4):
        for t in range(1, n + 1):
            assert (max_family_search(n, t).max_size
                    == naive_max_family_size(n, t)), (n, t)


def test_known_small_answers():
    # frozen from the naive oracle
    expected = {(1, 1): 1, (2, 1): 1, (2, 2): 1,
                (3, 1): 2, (3, 2): 1, (4, 1): 6, (4, 2): 2, (4, 3): 1, (4, 4): 1}
    for (n, t), size in expected.items():
        assert max_family_search(n, t).max_size == size


def naive_max_families(n, t):
    """Witness-level oracle: all maximum families by unpruned recursion."""
    from cycleint.perm import all_permutations
    from cycleint.intersect import is_t_cycle_intersecting_pair

    perms = list(all_permutations(n))
    best = [0]
    found = []

    def extend(chosen, candidates):
        if not candidates:
            if len(chosen) > best[0]:
                best[0] = len(chosen)
                found.clear()
                found.append(frozenset(chosen))
            elif len(chosen) == best[0]:
                found.append(frozenset(chosen))
            return
        for pos, v in enumerate(candidates):
            extend(chosen + [perms[v]],
                   [u for u in candidates[pos + 1:]
                    if is_t_cycle_intersecting_pair(perms[v], perms[u], t)])
        extend(chosen, [])

    extend([], list(range(len(perms))))
    return best[0], {w for w in found if len(w) == best[0]}


@pytest.mark.parametrize("n,t", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 2)])
def test_enumerate_all_matches_witness_level_oracle(n, t):
    size, families = naive_max_families(n, t)
    result = max_family_search(n, t, mode=ENUMERATE_ALL)
    assert result.max_size == size
    assert {frozenset(w.members) for w in result.witnesses} == families


def test_enumerate_all_at_5_2():
    result = max_family_search(5, 2, mode=ENUMERATE_ALL)
    assert result.max_size == 6 == math.factorial(3)
    assert len(result.witnesses) == 10
    expected = {stabilizer_family(pair, 5)
                for pair in itertools.combinations(range(1, 6), 2)}
    assert set(result.witnesses) == expected
    assert result.complete


def test_enumerate_all_at_3_1():
    result = max_family_search(3, 1, mode=ENUMERATE_ALL)
    assert result.max_size == 2
    assert set(result.witnesses) == {stabilizer_family((x,), 3) for x in (1, 2, 3)}


def test_witnesses_are_maximal_intersecting_families():
    result = max_family_search(4, 1, mode=ENUMERATE_ALL)
    assert len(result.witnesses) == 4
    for fam in result.witnesses:
        assert len(fam) == result.max_size
        assert is_family_t_cycle_intersecting(fam, 1)
        assert is_maximal(fam, 1)


def test_degenerate_t_equals_n():
    result = max_family_search(4, 4)
    assert result.max_size == 1
    assert result.witnesses[0].members == (identity(4),)


def test_search_determinism():
    a = max_family_search(5, 2, mode=ENUMERATE_ALL)
    b = max_family_search(5, 2, mode=ENUMERATE_ALL)
    assert a.max_size == b.max_size
    assert a.witnesses == b.witnesses


def test_search_accepts_prebuilt_graph():
    graph = build_intersection_graph(4, 2)
    result = max_family_search(4, 2, graph=graph)
    assert result.max_size == 2
    with pytest.raises(ValueError):
        max_family_search(4, 1, graph=graph)


def test_search_cap_rules():
    with pytest.raises(ValueError, match="cap"):
        max_family_search(8, 2)
    with pytest.raises(ValueError, match="budget"):
        max_family_search(7, 2)  # one above the cap needs a budget
    with pytest.raises(ValueError):
        max_family_search(5, 2, mode="fastest")


def test_budget_expiry_is_flagged_not_truncated():
    result = max_family_search(5, 1, time_budget=0.0)
    assert not result.complete
    assert result.max_size >= 0
    generous = max_family_search(5, 1, time_budget=600.0)
    assert generous.complete
    assert generous.max_size == 24


def test_search_result_json_shape():
    data = max_family_search(3, 1, mode=ENUMERATE_ALL).to_json_dict()
    assert data["max_size"] == 2
    assert data["complete"] is True
    assert len(data["witnesses"]) == 3
    assert {"nodes", "cutoffs", "elapsed_seconds"} <= set(data["stats"])


def test_conjugacy_representatives_collapse_stabilizers():
    result = max_family_search(5, 2, mode=ENUMERATE_ALL)
    reps = conjugacy_representatives(result.witnesses, 5)
    assert len(reps) == 1


def test_conjugacy_representatives_cap_refused(monkeypatch):
    monkeypatch.setenv(config.ENUMERATION_CAP_ENV, "4")
    with pytest.raises(ValueError, match="cap"):
        conjugacy_representatives([], 5)


def test_verify_max_bound_passes_at_small_instances():
    for n, t in ((3, 1), (4, 1), (5, 2)):
        rep = verify_max_bound(n, t)
        assert rep.passed
        assert all(r.status == PASS for r in rep.records)


def test_verify_max_bound_expired_search_is_not_a_failure():
    rep = verify_max_bound(5, 1, time_budget=0.0)
    assert rep.passed
    assert all(r.status != FAIL for r in rep.records)


def test_verify_max_bound_hypothesis_gate():
    rep = verify_max_bound(4, 2)
    assert rep.records[0].status == HYPOTHESIS_NOT_MET
    assert len(rep.records) == 1
    assert rep.passed  # nothing failed; the hypothesis simply is not met


def test_verify_counterexample_instances():
    rep = verify_counterexample_regime(7, 4)
    assert rep.passed and rep.stats["sizes"] == {"F0": 6, "F1": 7}
    rep = verify_counterexample_regime(6, 3)
    assert rep.passed and rep.stats["sizes"] == {"F0": 6, "F1": 6}
    rep = verify_counterexample_regime(8, 5)
    assert rep.passed and rep.stats["sizes"] == {"F0": 6, "F1": 8}


def test_verify_counterexample_rejects_out_of_regime():
    with pytest.raises(ValueError):
        verify_counterexample_regime(9, 4)  # n >= 2t+1
    with pytest.raises(ValueError):
        verify_counterexample_regime(6, 4)  # n < t+3


def test_pipeline_roundtrip_passes_and_is_deterministic():
    rep = pipeline_roundtrip(5, 2, trials=25, seed=7)
    assert rep.passed
    names = [r.check for r in rep.records]
    assert "disjoint-union-decomposition" in names
    assert "stabilizer-pullback" in names
    again = pipeline_roundtrip(5, 2, trials=25, seed=7)
    assert [(r.check, r.status) for r in rep.records] == \
           [(r.check, r.status) for r in again.records]
    assert rep.stats == again.stats


def test_pipeline_statistics_are_plausible():
    rep = pipeline_roundtrip(5, 2, trials=40, seed=42)
    assert rep.passed
    assert 0 < rep.stats["stabilizer_outputs"] <= 40
    assert 0 < rep.stats["maximality_preserved"] <= 40


@pytest.mark.parametrize("n,t,trials", [(4, 1, 40), (5, 1, 20), (6, 2, 5)])
def test_pipeline_holds_at_other_parameters(n, t, trials):
    rep = pipeline_roundtrip(n, t, trials=trials, seed=99)
    assert rep.passed, [r.to_json_dict() for r in rep.failures()]


def test_surgery_suite():
    rep = verify_surgery_instances()
    assert rep.passed
    assert len(rep.records) == 6


def test_run_suite_all_small():
    rep = run_suite_all(4, seed=1)
    assert rep.passed
    checks = {r.check for r in rep.records}
    assert "branch-and-bound-matches-naive-oracle" in checks
    assert "prefix-fix-counts-match-formula" in checks
    assert "size-preserved-by-closures" in checks
