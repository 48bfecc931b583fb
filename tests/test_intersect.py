import inspect
import itertools
import math
import os
import random
import re

import pytest

import cycleint
from cycleint import extremal, gensets, intersect
from cycleint.extremal import f_family, stabilizer_family
from cycleint.gensets import (SetSystem, fix_prefix_family, is_disjoint_union,
                              is_generating_set, reduced_fix_prefix_family,
                              up_permutations_system)
from cycleint.intersect import (PermFamily, _sn_table,
                                build_intersection_graph,
                                is_family_t_cycle_intersecting, is_maximal,
                                is_stabilizer_of_points,
                                is_t_cycle_intersecting_pair, maximalize,
                                pointwise_agreements, stabilized_points)
from cycleint.perm import (Permutation, all_permutations, conjugate, from_cycles,
                           identity, rank)
from cycleint.search import (ENUMERATE_ALL, conjugacy_representatives,
                             max_family_search)


def stab(points, n):
    pts = set(points)
    return PermFamily(n, (p for p in all_permutations(n)
                          if pts <= set(p.fixed_points())))


def test_common_cycles_examples():
    s = Permutation([2, 3, 1, 5, 4])
    assert s.cycle_set() & s.cycle_set() == set(s.cycles())
    assert (Permutation([1, 2, 4, 3]).cycle_set()
            & Permutation([1, 2, 3, 4]).cycle_set()) == {(1,), (2,)}
    assert not (Permutation([2, 1, 3, 4]).cycle_set()
                & Permutation([1, 2, 4, 3]).cycle_set())


def test_pair_predicate_examples():
    s = Permutation([2, 1, 3, 4, 5])
    assert is_t_cycle_intersecting_pair(s, s, len(s.cycles()))
    assert is_t_cycle_intersecting_pair(Permutation([1, 2, 4, 3]),
                                        Permutation([1, 2, 3, 4]), 2)
    assert not is_t_cycle_intersecting_pair(Permutation([2, 1, 3, 4]),
                                            Permutation([1, 2, 4, 3]), 1)
    with pytest.raises(ValueError):
        is_t_cycle_intersecting_pair(identity(3), identity(4), 1)


def test_family_predicate_examples():
    assert is_family_t_cycle_intersecting(stab({1, 2}, 5), 2)
    whole_s3 = PermFamily(3, all_permutations(3))
    assert not is_family_t_cycle_intersecting(whole_s3, 1)
    assert is_family_t_cycle_intersecting(PermFamily(3), 5)  # vacuous


def test_two_distinct_permutations_share_at_most_n_minus_two_cycles():
    # so any family with two or more members fails the predicate at t >= n-1
    for p, q in itertools.combinations(all_permutations(4), 2):
        assert len(p.cycle_set() & q.cycle_set()) <= 2


def test_family_dedup_and_canonical_order():
    perms = [Permutation([2, 1, 3]), identity(3), Permutation([2, 1, 3])]
    fam = PermFamily(3, perms)
    assert len(fam) == 2
    assert [p.image for p in fam] == [(1, 2, 3), (2, 1, 3)]
    assert identity(3) in fam
    assert Permutation([3, 2, 1]) not in fam


def test_family_degree_mismatch():
    with pytest.raises(ValueError):
        PermFamily(3, [identity(4)])


def test_family_json_roundtrip():
    fam = stab({1, 2}, 4)
    data = fam.to_json_dict()
    assert data["n"] == 4
    assert PermFamily.from_json_dict(data) == fam


def test_family_from_images_accepts_cycle_strings():
    fam = PermFamily.from_images(4, [[1, 2, 3, 4], "(1 2)(3 4)"])
    assert Permutation([2, 1, 4, 3]) in fam


def test_family_json_errors_carry_location():
    with pytest.raises(ValueError, match=r"perms\[1\]"):
        PermFamily.from_images(3, [[1, 2, 3], [1, 1, 2]])
    with pytest.raises(ValueError, match="perms"):
        PermFamily.from_json_dict({"n": 3})


def test_graph_small_examples():
    g = build_intersection_graph(3, 1)
    assert g.size == 6
    assert g.degree(rank(identity(3))) == 3
    g42 = build_intersection_graph(4, 2)
    assert g42.degree(rank(identity(4))) == math.comb(4, 2)


def test_graph_matches_pair_predicate():
    for n in range(3, 6):
        for t in range(n + 1):
            g = build_intersection_graph(n, t)
            perms = g.perms
            assert perms == tuple(all_permutations(n))
            for u in range(g.size):
                for v in range(g.size):
                    expected = (u != v and
                                is_t_cycle_intersecting_pair(perms[u], perms[v], t))
                    assert ((g.adj[u] >> v) & 1) == expected, (n, t, u, v)


def test_t_zero_reads_no_cycle_ids(monkeypatch):
    # every pair shares at least 0 cycles, so no per-cycle bitset is built
    blind = intersect._SnTable(5)
    del blind.cycle_ids  # a read raises AttributeError
    monkeypatch.setattr(intersect, "_build_sn_table", lambda n: blind)
    full = (1 << 120) - 1
    assert build_intersection_graph(5, 0).adj == tuple(full ^ 1 << r for r in range(120))
    assert maximalize(PermFamily(5, [identity(5)]), 0) == PermFamily(5, blind.perms)
    assert blind.rows_by_cycle is None


def test_graph_is_irreflexive_and_symmetric():
    g = build_intersection_graph(4, 1)
    for v in range(g.size):
        assert not (g.adj[v] >> v) & 1
    for u in range(g.size):
        for v in range(u + 1, g.size):
            assert (g.adj[u] >> v) & 1 == (g.adj[v] >> u) & 1


def test_graph_and_maximalize_refuse_a_negative_t():
    for call in (lambda: build_intersection_graph(3, -1),
                 lambda: maximalize(stab({1}, 3), -1),
                 lambda: max_family_search(3, -1, graph=build_intersection_graph(3, 1))):
        with pytest.raises(ValueError, match="t must be at least 0, got -1"):
            call()


def test_enumeration_cap_defaults():
    assert intersect.enumeration_cap() == intersect.DEFAULT_ENUMERATION_CAP == 7


def test_enumeration_cap_override_argument_wins(monkeypatch):
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "4")
    assert intersect.enumeration_cap() == 4
    assert intersect.enumeration_cap(9) == 9


def test_enumeration_cap_env_values_validated(monkeypatch):
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "zero")
    with pytest.raises(ValueError, match="must be an integer, got 'zero'"):
        intersect.enumeration_cap()
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "0")
    with pytest.raises(ValueError, match="must be positive, got 0"):
        intersect.enumeration_cap()


@pytest.mark.parametrize("override", [True, 7.5, "8"])
def test_enumeration_cap_override_must_be_an_integer(override):
    with pytest.raises(ValueError, match="^enumeration cap must be an integer, got "):
        intersect.enumeration_cap(override)


def test_graph_cap_refused():
    with pytest.raises(ValueError, match="cap"):
        build_intersection_graph(8, 1)
    with pytest.raises(ValueError, match="cap"):
        build_intersection_graph(4, 1, cap=3)


def test_graph_cap_env_override(monkeypatch):
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "3")
    with pytest.raises(ValueError, match="cap"):
        build_intersection_graph(4, 1)
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "4")
    assert build_intersection_graph(4, 1).size == 24


def test_dimacs_export():
    g = build_intersection_graph(3, 1)
    lines = list(g.dimacs_lines())
    assert lines[0] == "p edge 6 3"
    assert len(lines) == 1 + 3
    for line in lines[1:]:
        _, u, v = line.split()
        assert (g.adj[int(u)] >> int(v)) & 1


def test_conjugation_is_graph_automorphism_exhaustive_n4():
    perms = list(all_permutations(4))
    pairs = list(itertools.combinations(perms, 2))
    for g in perms:
        for s, p in pairs:
            before = len(s.cycle_set() & p.cycle_set())
            after = len(conjugate(s, g).cycle_set() & conjugate(p, g).cycle_set())
            assert before == after


def test_conjugation_is_graph_automorphism_random_n5():
    rng = random.Random(5)
    perms = list(all_permutations(5))
    for _ in range(300):
        g, s, p = (rng.choice(perms) for _ in range(3))
        assert (is_t_cycle_intersecting_pair(s, p, 2)
                == is_t_cycle_intersecting_pair(conjugate(s, g), conjugate(p, g), 2))


@pytest.mark.parametrize("n", range(2, 6))
def test_cycle_intersection_implies_pointwise_intersection(n):
    # shared cycles are pointwise agreements, so t common cycles force
    # agreement on at least t points
    perms = list(all_permutations(n))
    for s, p in itertools.combinations(perms, 2):
        assert pointwise_agreements(s, p) >= len(s.cycle_set() & p.cycle_set())


def test_is_maximal_examples():
    assert is_maximal(stab({1, 2}, 5), 2)
    assert not is_maximal(PermFamily(5, [identity(5)]), 2)


def test_is_maximal_rejects_non_intersecting_family():
    whole = PermFamily(3, all_permutations(3))
    with pytest.raises(ValueError):
        is_maximal(whole, 1)
    with pytest.raises(ValueError):
        maximalize(whole, 1)


def test_maximalize_rejects_one_non_intersecting_member():
    # the identity and (1 2) share the 1-cycles (3), (4), (5); the 5-cycle
    # shares no cycle with the identity
    family = PermFamily(5, [identity(5), from_cycles(5, [(1, 2)]),
                            from_cycles(5, [(1, 2, 3, 4, 5)])])
    with pytest.raises(ValueError, match="not 1-cycle-intersecting"):
        maximalize(family, 1)
    assert len(maximalize(PermFamily(5, family.members[:2]), 1)) > 2
    with pytest.raises(ValueError, match="not 4-cycle-intersecting"):
        is_maximal(PermFamily(5, family.members[:2]), 4)


def test_maximalize_examples():
    fam = maximalize(PermFamily(5, [identity(5)]), 2)
    assert identity(5) in fam
    assert is_family_t_cycle_intersecting(fam, 2)
    assert is_maximal(fam, 2)
    # deterministic: same input, same output
    assert fam == maximalize(PermFamily(5, [identity(5)]), 2)


def _scan_compatible(members, t):
    """Outside permutations t-cycle-intersecting every member, by a plain
    pair-predicate scan of S_n in rank order."""
    return [p for p in all_permutations(members[0].n) if p not in members
            and all(is_t_cycle_intersecting_pair(p, m, t) for m in members)]


def _scan_maximalize(members, t):
    members = list(members)
    for p in all_permutations(members[0].n):
        if p not in members and all(is_t_cycle_intersecting_pair(p, m, t)
                                    for m in members):
            members.append(p)
    return members


@pytest.mark.parametrize("t", [1, 2])
def test_maximalize_and_is_maximal_match_pair_scan(t):
    rng = random.Random(100 + t)
    perms = list(all_permutations(5))
    for _ in range(8):
        members = [rng.choice(perms)]
        compatible = _scan_compatible(members, t)
        if compatible:
            members.append(rng.choice(compatible))
        start = PermFamily(5, members)
        expected = _scan_maximalize(members, t)
        assert maximalize(start, t) == PermFamily(5, expected)
        assert is_maximal(start, t) == (not _scan_compatible(members, t))
        assert is_maximal(PermFamily(5, expected), t)
        assert not _scan_compatible(expected, t)


def test_s_n_walkers_build_no_validated_permutations(monkeypatch):
    start = PermFamily(5, [identity(5)])
    witnesses = max_family_search(5, 2, mode=ENUMERATE_ALL).witnesses
    pair = SetSystem(5, [(1, 2)])
    fam = stab({1, 2}, 5)
    calls = [
        lambda: stabilizer_family((1, 2), 5),
        lambda: up_permutations_system(SetSystem(5, [(1, 2), (1, 3)])),
        lambda: is_generating_set(pair, fam),
        lambda: is_disjoint_union(fam, pair),
        lambda: build_intersection_graph(5, 2),
        lambda: maximalize(start, 2),
        lambda: is_maximal(stab({1, 2}, 5), 2),
        lambda: f_family(5, 2, 1),
        lambda: fix_prefix_family((1, 3), 5),
        lambda: conjugacy_representatives(witnesses, 5),
    ]
    for call in calls:
        call()  # warms the table of S_5
    validated = []
    original = Permutation.__init__

    def counting_init(self, image):
        validated.append(image)
        original(self, image)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    for call in calls:
        call()
    assert validated == []


def test_each_degree_builds_its_per_cycle_bitsets_once(bitset_builds):
    build_intersection_graph(5, 0)
    assert is_maximal(maximalize(PermFamily(4, [identity(4)]), 0), 0)
    assert bitset_builds == []
    assert _sn_table(5).rows_by_cycle is None and _sn_table(4).rows_by_cycle is None
    for t in range(1, 6):  # the graph keeps the bitsets with the table
        build_intersection_graph(5, t)
    perms = list(all_permutations(5))
    for p in perms[::30]:
        assert is_maximal(maximalize(PermFamily(5, [p]), 2), 2)
    assert is_maximal(stab({1}, 5), 1)
    assert is_maximal(stab({1, 2}, 6), 2)
    assert not is_maximal(PermFamily(6, [identity(6)]), 2)
    build_intersection_graph(6, 1)
    assert bitset_builds == [(120, 1), (720, 2)]


def test_a_walk_at_t_zero_counts_the_bitsets_a_walk_at_t_one_kept(monkeypatch):
    # the 120 rows of 120 bits need 1800 bytes, and the 89 per-cycle bitsets
    # that a walk at t = 1 leaves in the table of S_5 are held beside them
    rows, bitsets = 120 * 120 // 8, 89 * 120 // 8
    build_intersection_graph(5, 1)
    monkeypatch.setattr(intersect, "_memory_limit", lambda: rows + bitsets - 1)
    with pytest.raises(ValueError, match=f"^degree 5: the adjacency rows and the "
                                         f"per-cycle bitsets need {rows + bitsets} bytes"):
        build_intersection_graph(5, 0)
    monkeypatch.setattr(intersect, "_memory_limit", lambda: bitsets - 1)
    with pytest.raises(ValueError, match=f"^degree 5: the per-cycle bitsets need {bitsets} "):
        maximalize(PermFamily(5, [identity(5)]), 0)
    monkeypatch.setattr(intersect, "_memory_limit", lambda: rows + bitsets)
    assert build_intersection_graph(5, 0).size == 120


def test_building_a_family_hashes_no_permutation(monkeypatch):
    perms = list(all_permutations(4))
    hashed = []
    monkeypatch.setattr(Permutation, "__hash__",
                        lambda self: hashed.append(self) or hash(self.image))
    family = PermFamily(4, perms[::-1] + perms[:5])
    assert family.members == tuple(perms)
    assert hashed == []


def test_maximalize_fixpoint_on_maximal_family():
    fam = stab({1, 2}, 5)
    assert maximalize(fam, 2) == fam


def test_stabilizer_recognition():
    assert is_stabilizer_of_points(stab({2, 4}, 5), 2)
    assert stabilized_points(stab({2, 4}, 5)) == (2, 4)
    assert not is_stabilizer_of_points(PermFamily(5, [identity(5)]), 2)
    assert not is_stabilizer_of_points(PermFamily(5), 2)


def _row_by_row_family(n, keep, cap=None):
    """The S_n filter that tests the fixed-point bitmask of every row on its
    own: the reference for the filter that tests each bitmask once."""
    return PermFamily(n, (p for p in _sn_table(n, cap).perms if keep(p.fixed_mask())))


def _fixed_point_families():
    families = [stabilizer_family(points, n) for n in range(1, 7) for r in range(n + 1)
                for points in itertools.combinations(range(1, n + 1), r)]
    families += [f_family(7, 3, i) for i in range(3)]
    for n in (5, 6):
        for r in range(1, n + 1):
            for pattern in itertools.combinations(range(1, n + 1), r):
                families += [fix_prefix_family(pattern, n),
                             reduced_fix_prefix_family(pattern, n)]
    for n in (6, 7):  # the surgery suite's system
        families.append(up_permutations_system(
            SetSystem(n, itertools.combinations(range(1, 6), 4))))
    return families


def test_fixed_point_filters_match_a_row_by_row_reference(monkeypatch):
    grouped = _fixed_point_families()
    assert max(map(len, grouped)) > 1
    for module in (gensets, extremal):
        monkeypatch.setattr(module, "_fixed_point_family", _row_by_row_family)
    assert _fixed_point_families() == grouped
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^degree 7 exceeds enumeration cap 6$"):
        f_family(7, 3, 0, cap=6)
    with pytest.raises(ValueError, match="^degree 8 exceeds enumeration cap 7$"):
        stabilizer_family((1,), 8)


def test_memory_limit_reads_the_cgroup_limit_where_there_is_one(monkeypatch, tmp_path):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(intersect, "_CGROUP_LIMITS", (str(v2), str(v1)))

    def limit():  # the limit is read once per process, so forget it first
        intersect._memory_limit.cache_clear()
        return intersect._memory_limit()

    try:
        assert limit() == physical  # neither file exists
        v2.write_text("max\n")  # no limit, in each version's own words
        v1.write_text("9223372036854771712\n")
        assert limit() == physical
        v1.write_text("5000\n")
        assert limit() == 5000
        v2.write_text("2000\n")
        assert limit() == 2000
        v2.write_text("3000\n")
        assert intersect._memory_limit() == 2000  # not read again
    finally:
        intersect._memory_limit.cache_clear()


_FAMILY = PermFamily(4, [identity(4)])
_SYSTEM = SetSystem(4, [(1, 2), (1, 3)])

# every public function that takes t, with its other arguments valid
_CALLS_WITH_T = {
    "build_intersection_graph": lambda t: cycleint.build_intersection_graph(4, t),
    "check_pair_overlap_t_plus_one":
        lambda t: cycleint.check_pair_overlap_t_plus_one(_SYSTEM, t),
    "compare_extremal": lambda t: cycleint.compare_extremal(5, t),
    "disjoint_union_check": lambda t: cycleint.disjoint_union_check(_FAMILY, _SYSTEM, t),
    "f1_closed_form": lambda t: cycleint.f1_closed_form(t),
    "f_family": lambda t: cycleint.f_family(5, t, 1),
    "f_family_size": lambda t: cycleint.f_family_size(5, t, 1),
    "generating_set_surgery": lambda t: cycleint.generating_set_surgery(_SYSTEM, t, 2),
    "is_family_t_cycle_intersecting":
        lambda t: cycleint.is_family_t_cycle_intersecting(_FAMILY, t),
    "is_maximal": lambda t: cycleint.is_maximal(_FAMILY, t),
    "is_stabilizer_of_points": lambda t: cycleint.is_stabilizer_of_points(_FAMILY, t),
    "is_t_cycle_intersecting_pair":
        lambda t: cycleint.is_t_cycle_intersecting_pair(identity(4), identity(4), t),
    "is_t_intersecting_system": lambda t: cycleint.is_t_intersecting_system(_SYSTEM, t),
    "max_family_search": lambda t: cycleint.max_family_search(4, t),
    "maximalize": lambda t: cycleint.maximalize(_FAMILY, t),
    "naive_max_family_size": lambda t: cycleint.naive_max_family_size(3, t),
    "partition_by_max_element": lambda t: cycleint.partition_by_max_element(_SYSTEM, t),
    "pipeline_roundtrip": lambda t: cycleint.pipeline_roundtrip(4, t, 1, 1),
    "quad_inequality_check": lambda t: cycleint.quad_inequality_check(5, t),
    "quad_value": lambda t: cycleint.quad_value(5, t, 2),
    "stabilizer_pullback_check":
        lambda t: cycleint.stabilizer_pullback_check(_FAMILY, _FAMILY, t),
    "verify_counterexample_regime": lambda t: cycleint.verify_counterexample_regime(7, t),
    "verify_max_bound": lambda t: cycleint.verify_max_bound(4, t),
}


def test_every_public_function_that_takes_t_is_listed():
    assert set(_CALLS_WITH_T) == {
        name for name, value in vars(cycleint).items()
        if inspect.isfunction(value) and "t" in inspect.signature(value).parameters}


@pytest.mark.parametrize("t", [True, 1.5, "1", None])
@pytest.mark.parametrize("name", sorted(_CALLS_WITH_T))
def test_every_t_is_parsed(name, t):
    with pytest.raises(ValueError, match=f'^"t" must be an integer, got {re.escape(repr(t))}$'):
        _CALLS_WITH_T[name](t)
