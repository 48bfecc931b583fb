import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleint import intersect, report
from cycleint.extremal import stabilizer_family
from cycleint.gensets import (SetSystem, certify_generating_set,
                              check_pair_overlap_t_plus_one,
                              derive_star_generating_set, disjoint_union_check,
                              fix_prefix_count, fix_prefix_family, fix_system,
                              generating_set_surgery, is_disjoint_union,
                              is_generating_set, is_left_compressed,
                              is_t_intersecting_system, left_shift_minimals,
                              left_shift_set, left_shift_system, max_element,
                              minimal_elements, partition_by_max_element,
                              reduced_fix_prefix_family, system_max_element,
                              up_permutations_system)
from cycleint.intersect import PermFamily, maximalize
from cycleint.perm import Permutation, all_permutations, identity, unrank
from cycleint.report import FAIL, HYPOTHESIS_NOT_MET, PASS
from cycleint.transform import compress_closure, fix_closure


def stab(points, n):
    pts = set(points)
    return PermFamily(n, (p for p in all_permutations(n)
                          if pts <= set(p.fixed_points())))


def reference_up(system):
    """U(G), the permutations fixing some member, found by walking S_n."""
    return PermFamily(system.n, (p for p in all_permutations(system.n)
                                 if any(set(b) <= set(p.fixed_points())
                                        for b in system)))


def reference_is_generating_set(system, family):
    """The walk is_generating_set replaced."""
    if system.n != family.n or any(len(s) == system.n - 1 for s in system):
        return False
    return reference_up(system) == family


def reference_is_disjoint_union(family, system):
    """The set-based partition check is_disjoint_union replaced."""
    classes = {}
    for member in system:
        if not member:
            raise ValueError("decomposition pattern must be nonempty")
        classes[member] = {p for p in all_permutations(family.n)
                           if tuple(x for x in p.fixed_points()
                                    if x <= member[-1]) == member}
    for (e1, c1), (e2, c2) in itertools.combinations(classes.items(), 2):
        overlap = c1 & c2
        if overlap:
            return report.failed({"sets": [list(e1), list(e2)],
                                  "perm": list(min(overlap).image)},
                                 "classes overlap")
    union = set().union(*classes.values())
    if union != set(family.members):
        missing = sorted(set(family.members) - union)
        extra = sorted(union - set(family.members))
        return report.failed({"missing": [list(p.image) for p in missing[:3]],
                              "extra": [list(p.image) for p in extra[:3]]},
                             "union differs from family")
    return report.passed()


def window_family(n, t):
    """Permutations fixing at least t+1 of the first t+2 points."""
    window = set(range(1, t + 3))
    return PermFamily(n, (p for p in all_permutations(n)
                          if len(window & set(p.fixed_points())) >= t + 1))


# --- set systems -----------------------------------------------------------

def test_set_system_dedup_and_order():
    sys_ = SetSystem(4, [(2, 1), (1, 2), (3,), (1, 2, 3)])
    assert sys_.sets == ((1, 2), (1, 2, 3), (3,))
    assert (2, 1) in sys_
    assert (1, 3) not in sys_


def test_set_system_rejects_out_of_range():
    with pytest.raises(ValueError):
        SetSystem(3, [(1, 4)])


def test_set_system_difference_union():
    a = SetSystem(4, [(1,), (2,)])
    b = SetSystem(4, [(2,), (3,)])
    assert a.union(b).sets == ((1,), (2,), (3,))
    assert a.difference(b).sets == ((1,),)


# --- up-permutations and generating sets ------------------------------------

def test_up_permutations_examples():
    assert len(stabilizer_family((), 3)) == 6
    assert len(stabilizer_family((1, 2), 4)) == 2
    assert stabilizer_family(range(1, 5), 4) == PermFamily(4, [identity(4)])


@pytest.mark.parametrize("n", range(1, 6))
def test_up_permutations_size(n):
    for r in range(n + 1):
        for points in itertools.combinations(range(1, n + 1), r):
            assert len(stabilizer_family(points, n)) == math.factorial(n - r)


def test_up_permutations_system_examples():
    assert len(up_permutations_system(SetSystem(3, [(1,), (2,)]))) == 3
    single = SetSystem(4, [(1, 2)])
    assert up_permutations_system(single) == stabilizer_family((1, 2), 4)
    assert up_permutations_system(SetSystem(4, [(1, 2)])) == stab({1, 2}, 4)


def test_is_generating_set_examples():
    assert is_generating_set(SetSystem(5, [(1, 2)]), stab({1, 2}, 5))
    fam = stab({1, 2}, 5)
    assert is_generating_set(fix_system(fam), fam)
    assert not is_generating_set(SetSystem(4, [(1,)]), stab({1, 2}, 4))
    # a set of cardinality n-1 disqualifies the system outright
    assert not is_generating_set(SetSystem(4, [(1, 2), (1, 2, 3)]), stab({1, 2}, 4))


def test_fix_system_examples():
    assert fix_system(stab({1, 2}, 4)).sets == ((1, 2), (1, 2, 3, 4))
    assert fix_system(PermFamily(3, [identity(3)])).sets == ((1, 2, 3),)


def test_fix_system_of_fixed_family_is_t_intersecting():
    rng = random.Random(3)
    for _ in range(5):
        seed_perm = unrank(5, rng.randrange(120))
        fam, _ = fix_closure(maximalize(PermFamily(5, [seed_perm]), 2))
        assert is_t_intersecting_system(fix_system(fam), 2)


# --- left shifts and minimal elements ---------------------------------------

def test_left_shift_set_examples():
    assert left_shift_set((1, 2), 5).sets == ((1, 2),)
    assert left_shift_set((2, 3), 4).sets == ((1, 2), (1, 3), (2, 3))
    for k in range(1, 5):
        assert len(left_shift_set((k,), 5)) == k


def test_left_shift_includes_input_and_preserves_size():
    for n in (4, 5):
        for r in range(1, n + 1):
            for member in itertools.combinations(range(1, n + 1), r):
                shifted = left_shift_set(member, n)
                assert member in shifted
                assert all(len(s) == r for s in shifted)
                assert all(all(a <= b for a, b in zip(s, member)) for s in shifted)


def test_minimal_elements_examples():
    antichain = SetSystem(4, [(1, 2), (1, 3), (2, 3)])
    assert minimal_elements(antichain) == antichain
    assert minimal_elements(SetSystem(3, [(1,), (1, 2)])).sets == ((1,),)
    lstar = minimal_elements(left_shift_system(SetSystem(4, [(2, 3)])))
    assert lstar.sets == ((1, 2), (1, 3), (2, 3))


def test_left_shift_minimals_idempotent():
    samples = [SetSystem(5, [(2, 4), (1, 5)]),
               SetSystem(5, [(3,), (2, 3, 5)]),
               fix_system(stab({2, 4}, 5))]
    for sys_ in samples:
        star = left_shift_minimals(sys_)
        assert left_shift_minimals(star) == star
        assert is_left_compressed(star)
        assert minimal_elements(star) == star


def test_max_element():
    assert max_element((1, 4, 2)) == 4
    with pytest.raises(ValueError):
        max_element(())
    assert system_max_element(SetSystem(5, [(1, 2), (1, 3)])) == 3
    with pytest.raises(ValueError):
        system_max_element(SetSystem(5))


def test_star_system_of_stabilizer_has_minimal_top():
    for t, n in ((1, 4), (2, 5), (3, 5)):
        star = derive_star_generating_set(stab(range(1, t + 1), n))
        assert star.sets == (tuple(range(1, t + 1)),)
        assert system_max_element(star) == t


def test_star_system_stays_generating_and_never_grows_top():
    rng = random.Random(9)
    for _ in range(8):
        seed_perm = unrank(5, rng.randrange(120))
        fam, _ = fix_closure(maximalize(PermFamily(5, [seed_perm]), 2))
        fam, _ = compress_closure(fam)
        base = fix_system(fam)
        star = left_shift_minimals(base)
        assert is_generating_set(star, fam)
        assert system_max_element(star) <= system_max_element(base)
        # a generating set of a 2-cycle-intersecting family never tops below 2
        assert system_max_element(star) >= 2
        assert all(len(s) >= 2 for s in star)


# --- prefix-fix classes -----------------------------------------------------

def test_fix_prefix_family_examples():
    assert len(fix_prefix_family((1, 2), 5)) == 6
    assert len(fix_prefix_family((1, 3), 5)) == 4
    assert fix_prefix_family(range(1, 6), 5) == PermFamily(5, [identity(5)])


def test_fix_prefix_count_examples():
    assert fix_prefix_count(5, 2, 2) == 6
    assert fix_prefix_count(5, 2, 3) == 4
    for n, k in ((5, 2), (6, 3), (7, 1)):
        assert fix_prefix_count(n, k, k) == math.factorial(n - k)


def test_fix_prefix_count_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fix_prefix_count(5, 0, 2)
    with pytest.raises(ValueError):
        fix_prefix_count(5, 3, 2)
    with pytest.raises(ValueError):
        fix_prefix_count(5, 2, 6)


@pytest.mark.parametrize("n", (4, 5))
def test_fix_prefix_count_matches_enumeration(n):
    for r in range(1, n + 1):
        for pattern in itertools.combinations(range(1, n + 1), r):
            assert (len(fix_prefix_family(pattern, n))
                    == fix_prefix_count(n, r, max(pattern)))


def test_reduced_class_examples():
    assert len(reduced_fix_prefix_family((1, 3), 5)) == 18  # > 16 = 4*(5-2+1)
    assert len(reduced_fix_prefix_family((1, 2), 5)) == 24  # equality case
    assert len(reduced_fix_prefix_family(range(1, 6), 5)) == 1


@pytest.mark.parametrize("n", (4, 5, 6))
def test_reduced_class_lower_bound_and_strictness(n):
    # the multiplier bound always holds; the excess is strict exactly when the
    # pattern has a gap below its top, except the one shape whose witness
    # would need a permutation with n-1 fixed points
    for r in range(1, n + 1):
        for pattern in itertools.combinations(range(1, n + 1), r):
            d = len(fix_prefix_family(pattern, n))
            dp = len(reduced_fix_prefix_family(pattern, n))
            bound = (n - r + 1) * d
            assert dp >= bound
            expected_strict = (max(pattern) > r
                               and not (r == n - 2 and max(pattern) == n))
            assert (dp > bound) == expected_strict, pattern


# --- hypothesis-gated checks ------------------------------------------------

def test_disjoint_union_on_stabilizer():
    fam = stab({1, 2}, 5)
    result = disjoint_union_check(fam, derive_star_generating_set(fam), 2)
    assert result.status == PASS
    assert bool(result)


def test_disjoint_union_on_window_family():
    fam = window_family(6, 3)
    star = derive_star_generating_set(fam)
    assert star == SetSystem(6, itertools.combinations(range(1, 6), 4))
    assert disjoint_union_check(fam, star, t=3).status == PASS
    # pairwise disjointness of the classes, checked directly
    classes = [set(fix_prefix_family(e, 6).members) for e in star]
    for a, b in itertools.combinations(classes, 2):
        assert not (a & b)


def test_disjoint_union_hypothesis_gating():
    # a non-fixed family is rejected before the conclusion is assessed
    fam = PermFamily(3, [Permutation([2, 1, 3])])
    assert (disjoint_union_check(fam, derive_star_generating_set(fam), 1).status
            == HYPOTHESIS_NOT_MET)
    # a system that is not left-compressed inclusion-minimal is rejected too
    good = stab({1, 2}, 5)
    lopsided = SetSystem(5, [(1, 2), (1, 2, 3)])
    assert disjoint_union_check(good, lopsided, t=2).status == HYPOTHESIS_NOT_MET


def test_disjoint_union_gates_on_one_maximality_verdict(monkeypatch):
    def check(images, t):
        fam = PermFamily(len(images[0]), [Permutation(p) for p in images])
        return disjoint_union_check(fam, derive_star_generating_set(fam), t).detail

    # fixed, compressed and generated by their star systems
    pair = [(1, 2, 3), (1, 3, 2)]
    assert check(pair, 2) == "family is not 2-cycle-intersecting"
    assert check(pair + [(3, 2, 1)], 1) == "family is not 1-cycle-intersecting"
    assert check([(1, 2, 3, 4), (1, 2, 4, 3)], 1) == "family is not maximal"
    # a degree above the enumeration cap is an error, not an unmet hypothesis
    monkeypatch.setenv(intersect.ENUMERATION_CAP_ENV, "2")
    with pytest.raises(ValueError, match="exceeds enumeration cap"):
        check([(1, 2, 3)], 1)


def test_is_disjoint_union_failure_carries_witness():
    fam = stab({1, 2}, 5)
    wrong = SetSystem(5, [(1, 2), (1, 3)])  # classes overlap the family badly
    result = is_disjoint_union(fam, wrong)
    assert result.status == FAIL
    assert result.witness == {"missing": [],
                              "extra": [[1, 4, 3, 2, 5], [1, 4, 3, 5, 2],
                                        [1, 5, 3, 2, 4]]}
    nested = is_disjoint_union(fam, SetSystem(5, [(1,), (1, 2)]))
    assert nested.status == FAIL
    assert nested.detail == "classes overlap"
    assert nested.witness == {"sets": [[1], [1, 2]], "perm": [1, 2, 3, 4, 5]}
    short = is_disjoint_union(fam, SetSystem(5, [(1, 2, 3)]))
    assert short.witness == {"missing": [[1, 2, 4, 3, 5], [1, 2, 4, 5, 3],
                                         [1, 2, 5, 3, 4]],
                             "extra": []}


def test_pair_overlap_check_vacuous_and_mechanical():
    assert check_pair_overlap_t_plus_one(SetSystem(5, [(1, 2)]), 2).status == PASS
    # every pair of 4-subsets of [5] at n=7 either fails to qualify or
    # intersects in at least 4 elements
    g = SetSystem(7, itertools.combinations(range(1, 6), 4))
    assert check_pair_overlap_t_plus_one(g, 3).status == PASS


def test_pair_overlap_check_adversarial_failure():
    g = SetSystem(4, [(1, 2), (1, 3), (2, 3)])
    result = check_pair_overlap_t_plus_one(g, 2)
    assert result.status == FAIL
    assert result.witness["intersection_size"] == 2


def test_pair_overlap_check_gating():
    g = SetSystem(4, [(1, 2), (1, 3), (2, 3)])
    assert check_pair_overlap_t_plus_one(g, 3).status == HYPOTHESIS_NOT_MET  # n <= t+1
    not_minimal = SetSystem(5, [(1,), (1, 2)])
    assert check_pair_overlap_t_plus_one(not_minimal, 1).status == HYPOTHESIS_NOT_MET


def test_negative_t_is_refused():
    disjoint = SetSystem(4, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="t must be at least 0"):
        is_t_intersecting_system(disjoint, -1)
    with pytest.raises(ValueError, match="t must be at least 0"):
        check_pair_overlap_t_plus_one(disjoint, -1)


# --- partition and surgery ---------------------------------------------------

def test_partition_rejects_top_equal_t():
    with pytest.raises(ValueError):
        partition_by_max_element(SetSystem(5, [(1, 2, 3)]), 3)


def test_partition_example():
    g = SetSystem(7, itertools.combinations(range(1, 6), 4))
    part = partition_by_max_element(g, 3)
    assert part.delta == 2
    assert len(part.top) == 4 and all(5 in s for s in part.top)
    assert part.rest.sets == ((1, 2, 3, 4),)
    assert set(part.size_classes) == {4}
    assert sum(len(c) for c in part.size_classes.values()) == len(part.top)
    assert part.in_open_range


def test_surgery_case2_instance():
    g = SetSystem(7, itertools.combinations(range(1, 6), 4))
    rep = generating_set_surgery(g, 3, 4)
    assert rep.case == 2
    assert rep.base_size == 22
    assert rep.survivors.sets == ((2, 3, 4),)
    assert rep.pivot == 1
    assert rep.pigeonhole_ok  # |T'| = 1 >= 4 * 2 / (2 * 4)
    assert rep.candidate_sizes["f_prime"] == 24
    assert rep.strict_gain
    assert rep.candidate_t_intersecting["f_prime"]


def test_surgery_case2_no_gain_below_threshold():
    g = SetSystem(6, itertools.combinations(range(1, 6), 4))
    rep = generating_set_surgery(g, 3, 4)
    assert rep.base_size == 6
    assert rep.candidate_sizes["f_prime"] == 6
    assert not rep.strict_gain


def test_surgery_case1_instance():
    # sizes 2 and 3 pair up as i + j = 2t + delta with t = 1, delta = 3
    g = SetSystem(5, [(1, 4), (2, 3, 4)])
    rep = generating_set_surgery(g, 1, 2)
    assert rep.case == 1
    assert rep.base_size == 7
    assert rep.candidates["f1"].sets == ((1,),)
    assert rep.candidates["f2"].sets == ((2, 3),)
    assert rep.candidate_sizes == {"f1": 24, "f2": 6}
    assert rep.best_size == 24
    assert rep.strict_gain
    assert all(rep.candidate_t_intersecting.values())


def test_surgery_refuses_degrees_beyond_the_enumeration_cap():
    g = SetSystem(8, itertools.combinations(range(1, 6), 4))
    with pytest.raises(ValueError, match="cap"):
        generating_set_surgery(g, 3, 4)


def test_surgery_rejects_empty_size_class():
    g = SetSystem(7, itertools.combinations(range(1, 6), 4))
    with pytest.raises(ValueError):
        generating_set_surgery(g, 3, 5)


def test_certificate_fields():
    cert = certify_generating_set(stab({1, 2}, 5))
    assert cert.family_size == 6
    assert cert.max_element == 2
    assert cert.is_left_compressed and cert.is_inclusion_minimal
    assert cert.system.sets == ((1, 2),)
    data = cert.to_json_dict()
    assert data["family_size"] == 6 and data["max_element"] == 2


# --- mask deciders against the walks they replaced ----------------------------

@st.composite
def systems_and_families(draw):
    """A degree n <= 5, a set system on [n] and a family that is U(G), U(G)
    less one member, a random family, or a closed family with its own
    derived systems."""
    n = draw(st.integers(1, 5))
    subsets = st.frozensets(st.integers(1, n), max_size=n)
    system = SetSystem(n, draw(st.lists(subsets, max_size=4)))
    up = reference_up(system)
    shape = draw(st.sampled_from(["up", "up-less-one", "random", "closed"]))
    if shape == "up":
        family = up
    elif shape == "up-less-one" and len(up):
        drop = draw(st.integers(0, len(up) - 1))
        family = PermFamily(n, up.members[:drop] + up.members[drop + 1:])
    elif shape == "closed":
        seed_perm = unrank(n, draw(st.integers(0, math.factorial(n) - 1)))
        family, _ = compress_closure(
            fix_closure(maximalize(PermFamily(n, [seed_perm]), 1))[0])
        system = draw(st.sampled_from([fix_system(family),
                                       derive_star_generating_set(family)]))
    else:
        ranks = draw(st.sets(st.integers(0, math.factorial(n) - 1), max_size=8))
        family = PermFamily(n, (unrank(n, r) for r in ranks))
    return system, family


@settings(max_examples=200, deadline=None)
@given(systems_and_families())
def test_mask_deciders_match_the_walks(case):
    system, family = case
    assert is_generating_set(system, family) == reference_is_generating_set(system, family)
    if any(not s for s in system):
        with pytest.raises(ValueError):
            is_disjoint_union(family, system)
        return
    got = is_disjoint_union(family, system)
    want = reference_is_disjoint_union(family, system)
    assert (got.status, got.witness, got.detail) == (want.status, want.witness,
                                                     want.detail)
    assert up_permutations_system(system) == reference_up(system)
