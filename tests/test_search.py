import functools
import inspect
import itertools
import math
import operator
import random
import sys

import pytest

from cycleint import intersect, perm, search, transform
from cycleint.extremal import (compare_extremal, f_family, f_family_size, quad_value,
                               stabilizer_family)
from cycleint.gensets import fix_prefix_count
from cycleint.intersect import (PermFamily, _sn_table, build_intersection_graph,
                                is_family_t_cycle_intersecting, is_maximal)
from cycleint.perm import conjugate, identity, unrank
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


def test_naive_oracle_refuses_what_the_solver_refuses(monkeypatch):
    def refuse(n):
        raise AssertionError(f"walked S_{n}")

    monkeypatch.setattr(search, "all_permutations", refuse)
    for call in (lambda: naive_max_family_size(3, -1),
                 lambda: max_family_search(3, -1)):
        with pytest.raises(ValueError, match="^t must be at least 0, got -1$"):
            call()
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "3")
    with pytest.raises(ValueError, match="^degree 4 exceeds enumeration cap 3$"):
        naive_max_family_size(4, 1)


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
    assert result.witnesses[0].members == (unrank(4, 23),)  # [4, 3, 2, 1]


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


def test_search_cap_rules(monkeypatch):
    # the enumeration cap is the search's only degree limit: n = 8 is refused
    # before S_8 is walked, and n = 7 needs no budget
    def refuse(n):
        raise AssertionError(f"walked S_{n}")

    monkeypatch.delenv(intersect.ENUMERATION_CAP_ENV, raising=False)
    with monkeypatch.context() as patched:
        patched.setattr(intersect, "_build_sn_table", refuse)
        with pytest.raises(ValueError, match="^degree 8 exceeds enumeration cap 7$"):
            max_family_search(8, 2)
    result = max_family_search(7, 3)
    assert result.complete and result.max_size == 24
    with pytest.raises(ValueError):
        max_family_search(5, 2, mode="fastest")


def test_budget_expiry_is_flagged_not_truncated():
    result = max_family_search(5, 1, time_budget=0.0)
    assert not result.complete
    assert result.max_size >= 0
    generous = max_family_search(5, 1, time_budget=600.0)
    assert generous.complete
    assert generous.max_size == 24


@pytest.mark.parametrize("budget", [True, "1", [1]])
def test_budget_must_be_a_number(budget):
    with pytest.raises(ValueError, match="^time budget must be a number, got "):
        max_family_search(3, 1, time_budget=budget)
    with pytest.raises(ValueError, match="^time budget must be a number, got "):
        verify_max_bound(3, 1, time_budget=budget)


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
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "4")
    with pytest.raises(ValueError, match="cap"):
        conjugacy_representatives([], 5)


@pytest.mark.parametrize("cap", [5, 6, 7, 8])
def test_cross_checks_follow_the_guard(monkeypatch, cap):
    from cycleint import extremal

    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, str(cap))
    calls = []

    def counted(n, *args, **kwargs):
        calls.append(n)
        return f_family(n, *args, **kwargs)

    monkeypatch.setattr(extremal, "f_family", counted)
    monkeypatch.setattr(search, "f_family", counted)
    for n in range(1, cap + 3):
        try:
            intersect._check_walk(n)
            admitted = True
        except ValueError:
            admitted = False
        within = intersect._within_cap(n)
        assert within == admitted == (n <= cap)
        if n >= 3:
            # F0 and F1 at t = 1, enumerated once each within the cap
            calls.clear()
            assert compare_extremal(n, 1).cross_checked == within
            assert calls == [n, n] * within
        if n >= 6:
            # t = n - 3 is the largest t of the counterexample regime at n
            calls.clear()
            names = [r.check for r in verify_counterexample_regime(n, n - 3).records]
            assert ("counting-mode-matches-enumeration" in names) == within
            assert calls == [n] * within


def _minimum_over_sn_representatives(witnesses, n):
    """The minimum over all of S_n for every witness: the reference for the
    one orbit walk per class."""
    group = [(g.image, sorted(range(n), key=g.image.__getitem__))
             for g in _sn_table(n).perms]

    def canonical_key(family):
        return min(tuple(sorted(tuple(g[p.image[x] - 1] for x in g_inv) for p in family))
                   for g, g_inv in group)

    seen = {}
    for family in witnesses:
        seen.setdefault(canonical_key(family), family)
    return [seen[key] for key in sorted(seen)]


def test_conjugacy_representatives_match_the_reference():
    for n in range(1, 7):
        for t in range(1, n + 1):
            witnesses = max_family_search(n, t, mode=ENUMERATE_ALL).witnesses
            reps = conjugacy_representatives(witnesses, n)
            assert reps == _minimum_over_sn_representatives(witnesses, n), (n, t)


def test_conjugacy_representatives_match_the_reference_on_random_families():
    """Maximum families are highly symmetric; most random ones are fixed by
    no conjugation but the identity, so the closure must reach all n! of
    their conjugates. Some witnesses are conjugates of others, so classes
    with several witnesses are covered too."""
    rng = random.Random(29)
    trivial_stabilizers = 0
    for n in range(1, 6):
        perms = _sn_table(n).perms
        witnesses = []
        for _ in range(12):
            family = PermFamily(n, rng.sample(perms, rng.randint(1, min(6, len(perms)))))
            g = rng.choice(perms)
            witnesses += [family, PermFamily(n, (conjugate(p, g) for p in family))]
            if n == 5:
                stabilizer = [h for h in perms
                              if PermFamily(n, (conjugate(p, h) for p in family)) == family]
                trivial_stabilizers += len(stabilizer) == 1
        rng.shuffle(witnesses)
        reps = conjugacy_representatives(witnesses, n)
        assert reps == _minimum_over_sn_representatives(witnesses, n), n
    assert trivial_stabilizers > 0


@pytest.mark.parametrize("degree", [4, 6])
def test_conjugacy_representatives_refuse_witnesses_of_another_degree(degree):
    witnesses = [stabilizer_family((1,), 5), PermFamily(degree, [identity(degree)])]
    with pytest.raises(ValueError, match=f"degree {degree}, expected degree 5"):
        conjugacy_representatives(witnesses, 5)


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


@pytest.mark.parametrize("n,t", [(1, 1), (2, 1), (3, 2), (4, 2), (4, 3), (6, 3)])
def test_stabilizer_pullback_needs_n_at_least_2t_plus_1(n, t):
    rep = pipeline_roundtrip(n, t, trials=20, seed=5)
    assert rep.passed
    (pullback,) = [r for r in rep.records if r.check == "stabilizer-pullback"]
    assert pullback.status == HYPOTHESIS_NOT_MET
    assert pullback.detail == f"n={n} < 2t+1={2 * t + 1}"
    assert all(r.status == PASS for r in rep.records if r is not pullback)


def test_pipeline_builds_the_bitsets_once_and_one_family_per_closure(bitset_builds,
                                                                    monkeypatch):
    assert pipeline_roundtrip(5, 2, trials=10, seed=7).passed
    assert bitset_builds == [(120, 2)]

    built = []
    init = PermFamily.__init__
    monkeypatch.setattr(PermFamily, "__init__",
                        lambda self, *args: built.append(None) or init(self, *args))
    rng = random.Random(3)
    for _ in range(10):
        family = intersect.maximalize(PermFamily(6, [unrank(6, rng.randrange(720))]), 1)
        for closure in (transform.fix_closure, transform.compress_closure):
            built.clear()
            family, trace = closure(family)
            assert len(built) == 1, (closure.__name__, trace)


@pytest.mark.parametrize("seed", [None, True, 1.0, "1"])
def test_randomized_suites_refuse_a_seed_that_cannot_be_replayed(monkeypatch, seed):
    # None would seed from the OS; the refusal comes before any work
    def refuse(*args, **kwargs):
        raise AssertionError("ran a check before refusing the seed")

    monkeypatch.setattr(search, "verify_max_bound", refuse)
    monkeypatch.setattr(search, "maximalize", refuse)
    for run in (lambda: pipeline_roundtrip(6, 1, 5, seed), lambda: run_suite_all(5, seed)):
        with pytest.raises(ValueError, match=f'^"seed" must be an integer, got {seed!r}$'):
            run()


INTEGER_PARAMETERS = [
    (pipeline_roundtrip, (5, 2, 2.5, 1), "trials"),
    (pipeline_roundtrip, (5, 2, "3", 1), "trials"),
    (pipeline_roundtrip, (5, 2, True, 1), "trials"),
    (run_suite_all, ("5", 1), "n_max"),
    (run_suite_all, (True, 1), "n_max"),
    (f_family, (5, 1, 1.0), "i"),
    (f_family_size, (5, 1, True), "i"),
    (fix_prefix_count, (5, 1.0, 3), "size"),
    (fix_prefix_count, (5, 1, 3.0), "top"),
    (unrank, (4, True), "r"),
    (unrank, (4, 1.5), "r"),
    (quad_value, ("3", 1, 2), "n"),
    (quad_value, (3, 1, 2.0), "delta"),
    (compare_extremal, (7, 3, (1.5, "0")), "i"),
    (compare_extremal, (7, 3, ("0",)), "i"),
    (compare_extremal, (7, 3, (1, True)), "i"),
]


@pytest.mark.parametrize("function,args,name", INTEGER_PARAMETERS,
                         ids=[f"{f.__name__}{args}" for f, args, _ in INTEGER_PARAMETERS])
def test_integer_parameters_must_be_ints(function, args, name):
    # as for the degree and t: an int, not a bool, named in a ValueError
    with pytest.raises(ValueError, match=f'^"{name}" must be an integer, got '):
        function(*args)


def test_suite_all_needs_a_degree():
    with pytest.raises(ValueError, match="^n_max must be at least 1, got 0$"):
        run_suite_all(0, 1)


PIPELINE_CHECKS = ("size-preserved-by-closures", "output-t-cycle-intersecting",
                   "output-fixed", "output-compressed", "fix-system-is-generating-set",
                   "generating-systems-pairwise-t-intersecting",
                   "disjoint-union-decomposition", "stabilizer-pullback")


@pytest.mark.parametrize("n,t,trials,stats,outputs", [
    (5, 2, 25, {"maximality_preserved": 5, "stabilizer_outputs": 5}, 3),
    (6, 1, 20, {"maximality_preserved": 12, "stabilizer_outputs": 8}, 8),
    (7, 2, 10, {"maximality_preserved": 1, "stabilizer_outputs": 0}, 5)])
def test_pipeline_checks_each_output_once(monkeypatch, n, t, trials, stats, outputs):
    seen = []
    compress = search.compress_closure
    monkeypatch.setattr(search, "compress_closure",
                        lambda family: seen.append(compress(family)[0]) or (seen[-1], None))
    decompositions = []
    disjoint_union = search.is_disjoint_union
    monkeypatch.setattr(search, "is_disjoint_union",
                        lambda *args: decompositions.append(None) or disjoint_union(*args))
    params = {"n": n, "t": t, "trials": trials, "seed": 1}
    assert pipeline_roundtrip(n, t, trials, 1).to_json_dict() == {
        "suite": "pipeline", "passed": True, "stats": stats,
        "records": [{"check": name, "params": params, "status": "pass"}
                    for name in PIPELINE_CHECKS]}
    # no star system here holds the empty set, so each distinct output is
    # decomposed once however many trials reach it
    assert len(seen) == trials and len(set(seen)) == outputs
    assert len(decompositions) == outputs


def test_pipeline_does_not_share_checks_between_outputs_of_one_size(monkeypatch):
    outputs = []
    compress = search.compress_closure

    def every_other_bad(family):
        output, trace = compress(family)
        if len(outputs) % 2:  # as large as the first output; the identity
            # and the reversal (1 4)(2 3) share no cycle
            output = PermFamily(4, [identity(4), unrank(4, 23)]
                                + [unrank(4, r) for r in range(1, len(outputs[0]) - 1)])
        outputs.append(output)
        return output, trace

    monkeypatch.setattr(search, "compress_closure", every_other_bad)
    rep = pipeline_roundtrip(4, 1, trials=4, seed=1)
    assert len(outputs[0]) == len(outputs[1]) and outputs[0] != outputs[1]
    (record,) = [r for r in rep.records if r.check == "output-t-cycle-intersecting"]
    assert record.status == FAIL
    assert record.witness["trial"] == 1
    assert record.witness["output"] == outputs[1].to_json_dict()


def test_pipeline_draws_its_seeds_from_the_table(monkeypatch):
    for n in range(1, 7):
        assert list(_sn_table(n).perms) == [unrank(n, r) for r in range(math.factorial(n))]

    def refuse(n, r):
        raise AssertionError("the seed draw unranked before the cap check")

    monkeypatch.setattr(perm, "unrank", refuse)
    monkeypatch.setattr(search, "unrank", refuse, raising=False)
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        pipeline_roundtrip(10**5, 1, 1, 1)


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


def test_budget_is_read_before_the_vertex_ordering():
    result = max_family_search(6, 2, time_budget=0.0)
    assert not result.complete
    assert result.nodes == 1


def test_budget_is_read_during_the_search(monkeypatch):
    # a clock that advances one second at each read: the search reads it at
    # its start and at every node it opens, so a budget of 100 s expires at
    # node 101, far inside the 10 916 nodes of enumerating every maximum
    # family at (7,2), whatever the machine's speed
    graph = build_intersection_graph(7, 2, cap=7)
    monkeypatch.setattr(search.time, "monotonic", itertools.count().__next__)
    result = max_family_search(7, 2, mode=ENUMERATE_ALL, time_budget=100, graph=graph)
    assert not result.complete
    assert result.nodes == 101
    # mid-tree: some of the 21 stabilizers of two points are found, not all
    assert result.max_size == 120 and 0 < len(result.witnesses) < 21


def _fallback(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(search, "_coset_classes", lambda graph: None)
        return max_family_search(*args, **kwargs)


def _singletons(graph):
    """The cosets of the trivial group: every vertex a class of its own, so
    omega is far below the class count and most classes hold no candidate
    at a node."""
    certificate = {"group": "trivial", "generators": [], "order": 1,
                   "classes": graph.size}
    return certificate, [[v] for v in range(graph.size)]


def _transposed_pairs(graph):
    """The pairs {sigma, sigma . (1 2)}, the cosets of <(1 2)>, which is not
    sharply 1-transitive: sigma . (1 2) swaps the first two images of sigma,
    so the two share every cycle of sigma that avoids 1 and 2, and at n >= 3
    some pairs are adjacent."""
    vertex = {p.image: v for v, p in enumerate(graph.perms)}
    pairs = [[v, vertex[(p.image[1], p.image[0], *p.image[2:])]]
             for v, p in enumerate(graph.perms) if p.image[0] < p.image[1]]
    certificate = {"group": "S_2", "generators": [[2, 1, *range(3, graph.n + 1)]],
                   "order": 2, "classes": len(pairs)}
    return certificate, pairs


@pytest.mark.parametrize("n,t,group", [(3, 1, "C_3"), (4, 1, "C_4"), (5, 1, "C_5"),
                                       (6, 1, "C_6")])
def test_coset_search_matches_fallback(monkeypatch, n, t, group):
    certified = max_family_search(n, t, mode=ENUMERATE_ALL)
    fallback = _fallback(monkeypatch, n, t, mode=ENUMERATE_ALL)
    assert certified.complete and fallback.complete
    assert certified.max_size == fallback.max_size
    assert certified.witnesses == fallback.witnesses
    assert max_family_search(n, t).max_size == certified.max_size
    cert = certified.certificate
    assert cert["group"] == group
    assert cert["classes"] * cert["order"] == math.factorial(n)
    assert cert["classes"] >= certified.max_size
    assert fallback.certificate is None


@pytest.mark.parametrize("mode", [search.SIZE_ONLY, ENUMERATE_ALL])
@pytest.mark.parametrize("n", range(1, 7))
def test_t_zero_searches_the_cosets_of_the_trivial_group(monkeypatch, n, mode):
    # t = 0 runs on the colouring search; the trivial group's cosets, handed
    # in as classes, give the same answer
    plain = max_family_search(n, 0, mode=mode)
    monkeypatch.setattr(search, "_coset_classes", _singletons)
    singletons = max_family_search(n, 0, mode=mode)
    assert plain.complete and singletons.complete
    assert plain.certificate is None
    assert singletons.max_size == plain.max_size == math.factorial(n)
    assert singletons.witnesses == plain.witnesses
    assert singletons.certificate["group"] == "trivial"
    assert singletons.certificate["classes"] == math.factorial(n)


def test_seven_zero_completes_on_the_trivial_group(monkeypatch):
    # the colouring search and the trivial group's cosets each record all of
    # S_7 below the root
    graph = build_intersection_graph(7, 0, cap=7)
    plain = max_family_search(7, 0, cap=7, graph=graph)
    assert plain.complete and plain.nodes == 1 and plain.certificate is None
    assert [len(w) for w in plain.witnesses] == [5040]
    monkeypatch.setattr(search, "_coset_classes", _singletons)
    singletons = max_family_search(7, 0, cap=7, graph=graph)
    assert singletons.complete and singletons.certificate["classes"] == 5040
    assert (singletons.nodes, singletons.witnesses) == (1, plain.witnesses)


@pytest.mark.parametrize("certified", [True, False])
def test_both_search_paths_agree_with_naive_oracle(monkeypatch, certified):
    if not certified:
        monkeypatch.setattr(search, "_coset_classes", lambda graph: None)
    for n in range(1, 5):
        for t in range(1, n + 1):
            result = max_family_search(n, t)
            assert result.max_size == naive_max_family_size(n, t), (n, t)
            assert (result.certificate is not None) == (certified and t == 1)


def test_class_search_with_singleton_classes_matches_clique_search(monkeypatch):
    for n in range(1, 6):
        for t in range(1, n + 1):
            for mode in (search.SIZE_ONLY, ENUMERATE_ALL):
                fallback = _fallback(monkeypatch, n, t, mode=mode)
                monkeypatch.setattr(search, "_coset_classes", _singletons)
                singletons = max_family_search(n, t, mode=mode)
                assert singletons.certificate["classes"] == math.factorial(n)
                assert singletons.max_size == fallback.max_size, (n, t, mode)
                if mode == ENUMERATE_ALL:
                    assert singletons.witnesses == fallback.witnesses, (n, t)


def test_dependent_cosets_fall_back(monkeypatch):
    graph = build_intersection_graph(5, 1)
    assert search._colouring(graph.adj, _transposed_pairs(graph)[1]) is None
    monkeypatch.setattr(search, "_coset_classes", _transposed_pairs)
    result = max_family_search(5, 1, mode=ENUMERATE_ALL)
    assert result.certificate is None
    fallback = _fallback(monkeypatch, 5, 1, mode=ENUMERATE_ALL)
    assert (result.max_size, result.witnesses) == (fallback.max_size, fallback.witnesses)
    assert result.nodes == fallback.nodes


def test_certified_search_reads_budget_at_the_root():
    # the cosets are checked before the root reads the clock, so an expiry at
    # the root still reports their certificate, in either mode and whether
    # the graph is built inside the budget or supplied
    supplied = build_intersection_graph(7, 1, cap=7)
    for n, mode, graph in ((6, ENUMERATE_ALL, None), (6, search.SIZE_ONLY, None),
                           (7, ENUMERATE_ALL, supplied)):
        result = max_family_search(n, 1, mode=mode, time_budget=0.0, graph=graph)
        assert not result.complete
        assert result.nodes == 1
        assert result.certificate == {"group": f"C_{n}",
                                      "generators": [[*range(2, n + 1), 1]],
                                      "order": n, "classes": math.factorial(n - 1)}


def test_certificate_is_reported():
    data = max_family_search(5, 1).to_json_dict()
    assert data["stats"]["certificate"] == {
        "group": "C_5", "generators": [[2, 3, 4, 5, 1]], "order": 5, "classes": 24}
    rep = verify_max_bound(6, 1)
    assert rep.stats["search"]["certificate"]["group"] == "C_6"


def test_seven_one_is_proven():
    rep = verify_max_bound(7, 1, time_budget=120.0)
    assert rep.passed
    assert all(r.status == PASS for r in rep.records)
    assert rep.stats["search"]["certificate"]["classes"] == 720


def _scan_color_sort(adj, scan_order, cand):
    """First-fit coloring that scans every vertex in the static order and
    tests its candidate bit: the reference for the class-at-a-time coloring
    on the graph's rows."""
    class_bits = []
    class_members = []
    for v in scan_order:
        if not (cand >> v) & 1:
            continue
        for k in range(len(class_bits)):
            if not class_bits[k] & adj[v]:
                class_bits[k] |= 1 << v
                class_members[k].append(v)
                break
        else:
            class_bits.append(1 << v)
            class_members.append([v])
    return class_members


def _members_from_the_top(bits):
    """The members of a class bitset, highest first: the order in which the
    class was colored."""
    return [v for v in range(bits.bit_length() - 1, -1, -1) if bits >> v & 1]


def test_renumbered_coloring_matches_scan_order_reference():
    rng = random.Random(10)
    for n in range(1, 7):
        for t in range(1, n + 1):
            graph = build_intersection_graph(n, t)
            order = range(graph.size - 1, -1, -1)  # descending rank: the scan order
            clique_search = search._CliqueSearch(graph.adj, True, None)
            full = (1 << graph.size) - 1
            for cand in [full] + [rng.getrandbits(graph.size) for _ in range(10)]:
                classes = [_members_from_the_top(bits)
                           for bits in clique_search._color_sort(cand)]
                assert classes == _scan_color_sort(graph.adj, order, cand), (n, t, cand)


def _bottom_up_renumber(adj, order):
    """The rows of ``adj`` with vertex ``order[i]`` renamed ``i``, walking
    each row with ``q & -q``."""
    position = sorted(range(len(order)), key=order.__getitem__)
    rows = []
    for v in order:
        row, new = adj[v], 0
        while row:
            low = row & -row
            new |= 1 << position[low.bit_length() - 1]
            row ^= low
        rows.append(new)
    return rows


class _BottomUpSearch(search._CliqueSearch):
    """The coloring search with vertex i renumbered as ``order[i]``, by
    descending rank, each class scanned from its lowest bit up, and the
    coloring returned as flat vertex and colour lists, with its own node
    generator: the reference for the core, which scans the rows in rank
    order from the highest bit down and returns class bitsets, and must
    visit the same vertices in the same order."""

    def run(self):
        self._tick()
        full = (1 << len(self.adj)) - 1
        order = range(len(self.adj) - 1, -1, -1)
        self.adj = _bottom_up_renumber(self.adj, order)
        try:
            self._search(self._color_node(full, 0))
        finally:
            self.cliques = [tuple(order[v] for v in c) for c in self.cliques]

    def _color_node(self, cand, size):
        order, colors = self._color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            v = order[idx]
            child = cand & self.adj[v]
            yield size + colors[idx], v, child, self._color_node
            if child == cand & ~(1 << v):
                return
            cand &= ~(1 << v)

    def _color_sort(self, cand):
        order, colors = [], []
        color = 0
        while cand:
            color += 1
            members, q = [], cand
            while q:
                low = q & -q
                v = low.bit_length() - 1
                members.append(v)
                cand ^= low
                q ^= low
                q ^= q & self.adj[v]
            order.extend(reversed(members))
            colors.extend([color] * len(members))
        return order, colors


@pytest.mark.parametrize("n", range(1, 7))
def test_top_down_coloring_search_matches_bottom_up_reference(n):
    for t in range(n + 1):
        graph = build_intersection_graph(n, t)
        for enumerate_all in (False, True):
            assert _search_outcome(search._CliqueSearch, graph, enumerate_all) == \
                _search_outcome(_BottomUpSearch, graph, enumerate_all), (n, t, enumerate_all)


@pytest.mark.parametrize("n,t", [(6, 2), (7, 3)])
def test_top_down_coloring_search_matches_bottom_up_reference_at_a_forced_expiry(
        monkeypatch, n, t):
    def tick(self):
        self.nodes += 1
        if self.nodes >= k:
            raise search.BudgetExceeded

    monkeypatch.setattr(search._CliqueSearch, "_tick", tick)
    graph = build_intersection_graph(n, t, cap=7)
    for k in (30, 100, 250):
        for enumerate_all in (False, True):
            outcomes = []
            for cls in (search._CliqueSearch, _BottomUpSearch):
                clique_search = cls(graph.adj, enumerate_all, None)
                expired = False
                try:
                    clique_search.run()
                except search.BudgetExceeded:
                    expired = True
                outcomes.append((expired, clique_search.best,
                                 _sorted_cliques(clique_search),
                                 clique_search.nodes, clique_search.cutoffs))
            assert outcomes[0] == outcomes[1], (k, enumerate_all)
            # size-only (6,2) finishes at node 145, enumerate-all at node 261
            assert outcomes[0][0] or not enumerate_all
            assert outcomes[0][2]


def test_pipeline_fails_an_output_that_is_not_t_cycle_intersecting(monkeypatch):
    # the identity and the reversal (1 4)(2 3) share no cycle
    bad = PermFamily(4, [identity(4), unrank(4, 23)])
    monkeypatch.setattr(search, "compress_closure", lambda family: (bad, None))
    rep = pipeline_roundtrip(4, 1, trials=3, seed=1)
    (record,) = [r for r in rep.records if r.check == "output-t-cycle-intersecting"]
    assert record.status == FAIL
    assert record.witness["output"] == bad.to_json_dict()
    assert rep.stats["maximality_preserved"] == 0


@pytest.mark.parametrize("n,t,cap,nodes,cutoffs,witnesses", [
    (6, 2, None, 261, 204, 15), (7, 3, 7, 943, 825, 35), (7, 2, 7, 10916, 8037, 21)])
def test_coloring_search_counts_are_pinned(n, t, cap, nodes, cutoffs, witnesses):
    result = max_family_search(n, t, mode=ENUMERATE_ALL, cap=cap)
    assert result.complete and result.certificate is None
    assert (result.nodes, result.cutoffs, len(result.witnesses)) == (nodes, cutoffs, witnesses)
    assert result.max_size == math.factorial(n - t)
    assert set(result.witnesses) == {stabilizer_family(points, n, cap=n)
                                     for points in itertools.combinations(range(1, n + 1), t)}


@pytest.mark.parametrize("n,t,cap", [(6, 2, None), (7, 3, 7)])
@pytest.mark.parametrize("k", [30, 100, 250])
def test_expired_coloring_search_returns_witnesses_in_rank_numbering(monkeypatch, n, t,
                                                                     cap, k):
    # a budget expiry leaves the search by an exception, and its incumbents
    # must still come back as t-cycle-intersecting families of the graph's ranks
    def tick(self):
        self.nodes += 1
        if self.nodes >= k:
            raise search.BudgetExceeded

    monkeypatch.setattr(search._CliqueSearch, "_tick", tick)
    result = max_family_search(n, t, mode=ENUMERATE_ALL, cap=cap)
    assert result.complete is False and result.nodes == k
    assert result.max_size > 1 and result.witnesses
    for family in result.witnesses:
        assert len(family) == result.max_size
        assert is_family_t_cycle_intersecting(family, t)


def _cocktail_party_rows(parts):
    """The rows of K_{2,...,2}: vertices 2i and 2i + 1 form part i, and each
    vertex is adjacent to every vertex outside its part. No candidate set of
    two or more vertices below the root is a clique, so each level of the
    search opens a node."""
    full = (1 << 2 * parts) - 1
    return [full & ~(3 << (v & ~1)) for v in range(2 * parts)]


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # t = 0 makes the graph complete, so the one maximum clique is all of
    # S_n, recorded whole below the root; the cocktail-party graph with more
    # parts than the lowered limit needs a node per part
    limit, lowered = sys.getrecursionlimit(), len(inspect.stack(0)) + 80
    parts = lowered + 20
    deep = search._CliqueSearch(_cocktail_party_rows(parts), False, None)
    sys.setrecursionlimit(lowered)
    try:
        five = max_family_search(5, 0, mode=ENUMERATE_ALL)
        six = max_family_search(6, 0, mode=ENUMERATE_ALL)
        deep.run()
    finally:
        sys.setrecursionlimit(limit)
    assert five.complete and [len(w) for w in five.witnesses] == [120]
    assert six.complete and [len(w) for w in six.witnesses] == [720]
    assert deep.best >= parts and deep.nodes >= parts


@pytest.mark.parametrize("mode,nodes,cutoffs,witnesses", [
    (search.SIZE_ONLY, 4, 4, 1), (ENUMERATE_ALL, 24, 20, 6)])
def test_coset_search_counts_are_pinned(mode, nodes, cutoffs, witnesses):
    result = max_family_search(6, 1, mode=mode)
    assert result.complete and result.certificate["group"] == "C_6"
    assert (result.nodes, result.cutoffs, len(result.witnesses)) == (nodes, cutoffs, witnesses)
    assert result.max_size == 120


@pytest.mark.parametrize("n,t,k,counts", [(7, 2, 400, (401, 116, 120, 5)),
                                          (7, 1, 40, (41, 23, 720, 5))])
def test_counts_at_a_forced_expiry_are_pinned(monkeypatch, n, t, k, counts):
    # (7,1) ends at node 60; by node 41 it has recorded 5 of the 7 point
    # stabilizers
    def tick(self):
        self.nodes += 1
        if self.nodes > k:
            raise search.BudgetExceeded

    monkeypatch.setattr(search._CliqueSearch, "_tick", tick)
    result = max_family_search(n, t, mode=ENUMERATE_ALL, cap=7)
    assert not result.complete
    assert (result.nodes, result.cutoffs, result.max_size, len(result.witnesses)) == counts


class _InheritanceCheck(search._CliqueSearch):
    """The search, asserting at every node it opens on inherited classes
    that the candidates lie in the union of those classes."""

    checked = 0

    def _node(self, cand, size, classes=None, top=0):
        if classes is not None:
            assert not cand & ~functools.reduce(operator.or_, classes[:top], 0)
            self.checked += 1
        return super()._node(cand, size, classes, top)


def _sorted_cliques(clique_search):
    """The cliques found, each as a sorted tuple: a candidate set recorded
    whole lists its members from the highest vertex down, and the bottom-up
    reference numbers the vertices in reverse."""
    return [tuple(sorted(c)) for c in clique_search.cliques]


def _search_outcome(cls, graph, enumerate_all):
    clique_search = cls(graph.adj, enumerate_all, None)
    clique_search.run()
    return (clique_search.best, _sorted_cliques(clique_search), clique_search.nodes,
            clique_search.cutoffs)


def _assert_children_inherit_their_candidates(n, t):
    graph = build_intersection_graph(n, t)
    classes = search._colouring(graph.adj, search._coset_classes(graph)[1])
    assert classes is not None
    for enumerate_all in (False, True):
        clique_search = _InheritanceCheck(graph.adj, enumerate_all, None)
        clique_search.run(classes)
        assert clique_search.checked == clique_search.nodes, (n, t, enumerate_all)


@pytest.mark.parametrize("n", range(1, 7))
def test_coset_children_inherit_their_candidates(n):
    _assert_children_inherit_their_candidates(n, 1)


def test_singleton_children_inherit_their_candidates(monkeypatch):
    # the trivial group: n! singleton classes, most of them empty at a node
    monkeypatch.setattr(search, "_coset_classes", _singletons)
    for n in range(1, 6):
        for t in range(1, n + 1):
            _assert_children_inherit_their_candidates(n, t)


def test_seven_one_enumerate_all_counts_are_pinned():
    result = max_family_search(7, 1, mode=ENUMERATE_ALL, cap=7)
    assert result.complete
    assert (result.nodes, result.cutoffs, len(result.witnesses)) == (60, 31, 7)
    assert result.max_size == 720
    assert (result.certificate["group"], result.certificate["classes"]) == ("C_7", 720)


def test_eight_one_enumerate_all_counts_are_pinned():
    # about 255 MB peak, nearly all of it the S_8 graph's rows
    result = max_family_search(8, 1, mode=ENUMERATE_ALL, cap=8)
    assert result.complete
    assert (result.nodes, result.cutoffs, len(result.witnesses)) == (228, 57, 8)
    assert result.max_size == 5040
    assert set(result.witnesses) == {stabilizer_family((x,), 8, cap=8)
                                     for x in range(1, 9)}
