import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleint.intersect import (PermFamily, is_family_t_cycle_intersecting,
                                is_maximal, is_stabilizer_of_points, maximalize)
from cycleint.perm import Permutation, all_permutations, identity, unrank
from cycleint.transform import (ClosureTrace, compress_closure,
                                compress_family, compress_perm, fix_closure,
                                ij_fix_family, ij_fix_perm, is_compressed_family,
                                is_fixed_family, stabilizer_pullback_check)


def stab(points, n):
    pts = set(points)
    return PermFamily(n, (p for p in all_permutations(n)
                          if pts <= set(p.fixed_points())))


def random_intersecting_families(n, t, count, seed):
    """Maximal families around random seeds plus random subfamilies of them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        fam = maximalize(PermFamily(n, [unrank(n, rng.randrange(len(list(all_permutations(n)))))]), t)
        out.append(fam)
        if len(fam) > 1:
            k = rng.randrange(1, len(fam))
            out.append(PermFamily(n, rng.sample(list(fam.members), k)))
    return out


# --- ij-fixing -------------------------------------------------------------

def test_ij_fix_perm_examples():
    s = Permutation([2, 3, 1])
    assert ij_fix_perm(s, 1, 3) == s  # sigma(1) != 3
    assert ij_fix_perm(s, 1, 2).image == (1, 3, 2)
    assert ij_fix_perm(Permutation([2, 1]), 1, 2) == identity(2)


def test_ij_fix_perm_rejects_bad_points():
    with pytest.raises(ValueError):
        ij_fix_perm(identity(3), 2, 2)
    with pytest.raises(ValueError):
        ij_fix_perm(identity(3), 0, 2)
    with pytest.raises(ValueError):
        ij_fix_perm(identity(3), 1, 4)


def test_ij_fix_perm_gains_fixed_points():
    for s in all_permutations(4):
        base = len(s.fixed_points())
        for i, j in itertools.permutations(range(1, 5), 2):
            gained = len(ij_fix_perm(s, i, j).fixed_points()) - base
            if s.image[i - 1] == j:
                assert gained in (1, 2)
                # both endpoints settle when (i j) was a 2-cycle
                assert (gained == 2) == (s.image[j - 1] == i)
            else:
                assert gained == 0


def test_ij_fix_family_examples():
    fam = stab({1, 2}, 4)
    assert ij_fix_family(fam, 1, 2) == fam  # already fixed under the pair
    s2 = PermFamily(2, [Permutation([2, 1]), identity(2)])
    assert ij_fix_family(s2, 1, 2) == s2  # rewrite collides with a member, kept
    single = PermFamily(3, [Permutation([2, 1, 3])])
    assert ij_fix_family(single, 1, 2) == PermFamily(3, [identity(3)])


def test_family_operators_preserve_size():
    for fam in random_intersecting_families(5, 2, 6, seed=11):
        n = fam.n
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert len(ij_fix_family(fam, i, j)) == len(fam)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert len(compress_family(fam, i, j)) == len(fam)


@pytest.mark.parametrize("n,t", [(4, 1), (5, 2)])
def test_ij_fix_family_preserves_t_cycle_intersection(n, t):
    for fam in random_intersecting_families(n, t, 5, seed=23):
        assert is_family_t_cycle_intersecting(fam, t)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            assert is_family_t_cycle_intersecting(ij_fix_family(fam, i, j), t)


def test_fix_closure_on_stabilizer_is_identity():
    fam = stab({1, 2}, 4)
    closed, trace = fix_closure(fam)
    assert closed == fam
    assert trace.passes == 1
    assert trace.applications == 0
    assert trace.potential_before == trace.potential_after


def test_fix_closure_small_example():
    fam = PermFamily(3, [Permutation([2, 1, 3]), Permutation([1, 3, 2])])
    closed, trace = fix_closure(fam)
    # hand sweep: [2,1,3] rewrites to the identity at (1,2); (2 3) then sticks
    assert closed == PermFamily(3, [identity(3), Permutation([1, 3, 2])])
    assert len(closed) == len(fam)
    assert is_fixed_family(closed)
    assert trace.applications >= 1
    assert trace.pass_applications[-1] == 0


def test_fix_closure_preserves_size_and_membership():
    for fam in random_intersecting_families(5, 2, 6, seed=31):
        closed, trace = fix_closure(fam)
        assert len(closed) == len(fam)
        assert is_fixed_family(closed)
        assert trace.potential_after >= trace.potential_before
        if trace.applications:
            assert trace.potential_after > trace.potential_before


def test_fix_closure_is_idempotent():
    fam, _ = fix_closure(maximalize(PermFamily(4, [Permutation([2, 3, 4, 1])]), 1))
    again, trace = fix_closure(fam)
    assert again == fam
    assert trace.passes == 1 and trace.applications == 0


def test_fix_potential_strictly_increases_per_effective_application():
    # independent sweep: re-apply the family operator pair by pair and watch
    # the total fixed-point count after each rewrite
    fam = maximalize(PermFamily(5, [Permutation([2, 3, 4, 5, 1])]), 2)
    potential = sum(len(p.fixed_points()) for p in fam)
    n = fam.n
    for _ in range(n * len(fam)):
        changed = False
        for i, j in itertools.permutations(range(1, n + 1), 2):
            new = ij_fix_family(fam, i, j)
            if new != fam:
                new_potential = sum(len(p.fixed_points()) for p in new)
                assert new_potential > potential
                fam, potential = new, new_potential
                changed = True
        if not changed:
            break
    assert is_fixed_family(fam)


# --- compression -----------------------------------------------------------

def test_compress_perm_examples():
    assert compress_perm(identity(3), 1, 2) == identity(3)  # sigma(i) = i
    assert compress_perm(Permutation([2, 1, 3]), 1, 3).image == (1, 3, 2)
    assert compress_perm(Permutation([3, 2, 1]), 1, 2).image == (1, 3, 2)


def test_compress_perm_rejects_bad_points():
    with pytest.raises(ValueError):
        compress_perm(identity(3), 2, 2)
    with pytest.raises(ValueError):
        compress_perm(identity(3), 3, 1)
    with pytest.raises(ValueError):
        compress_family(stab({1}, 3), 2, 1)


def test_compress_perm_preserves_cycle_type_and_fix_count():
    for s in all_permutations(5):
        for i, j in itertools.combinations(range(1, 6), 2):
            out = compress_perm(s, i, j)
            assert out.cycle_type() == s.cycle_type()
            assert len(out.fixed_points()) == len(s.fixed_points())


def test_compress_moves_fixed_point_down():
    s = Permutation([2, 1, 3])
    out = compress_perm(s, 1, 3)
    assert set(out.fixed_points()) == {1}
    assert set(s.fixed_points()) == {3}


def test_compress_family_examples():
    fam = PermFamily(3, [Permutation([1, 3, 2]), Permutation([3, 2, 1])])
    # the rewrite of [3,2,1] at (1,2) is [1,3,2], already a member: kept
    assert compress_family(fam, 1, 2) == fam
    already = stab({1, 2}, 4)
    assert compress_family(already, 1, 2) == already


def test_compress_closure_on_minimal_stabilizer_is_identity():
    fam = stab({1, 2}, 5)
    closed, trace = compress_closure(fam)
    assert closed == fam
    assert trace.passes == 1 and trace.applications == 0


def test_compress_closure_shifts_fix_sets_left():
    fam = stab({4, 5}, 5)
    closed, trace = compress_closure(fam)
    assert len(closed) == len(fam)
    assert is_compressed_family(closed)
    assert trace.potential_after < trace.potential_before
    # fix-set sizes survive member by member (the operator never changes them)
    assert (sorted(len(p.fixed_points()) for p in closed)
            == sorted(len(p.fixed_points()) for p in fam))


def test_single_compression_left_shifts_each_members_fix_set():
    # one application has an explicit member correspondence: every input
    # permutation maps to its rewrite (or itself), and the rewritten fix set
    # dominates componentwise from below
    fam = stab({4, 5}, 5)
    for i, j in itertools.combinations(range(1, 6), 2):
        out = compress_family(fam, i, j)
        for s in fam:
            r = compress_perm(s, i, j)
            target = r if (r != s and r not in fam) else s
            assert target in out
            assert all(a <= b for a, b in zip(target.fixed_points(),
                                              s.fixed_points()))


def test_compress_potential_strictly_decreases_per_effective_application():
    fam = stab({3, 5}, 5)
    potential = sum(sum(p.fixed_points()) for p in fam)
    for _ in range(100):
        changed = False
        for i, j in itertools.combinations(range(1, 6), 2):
            new = compress_family(fam, i, j)
            if new != fam:
                new_potential = sum(sum(p.fixed_points()) for p in new)
                assert new_potential < potential
                fam, potential = new, new_potential
                changed = True
        if not changed:
            break
    assert is_compressed_family(fam)


def test_is_fixed_and_compressed_examples():
    fam = stab({1, 2}, 4)
    assert is_fixed_family(fam)
    assert is_compressed_family(fam)
    assert not is_fixed_family(PermFamily(3, [Permutation([2, 1, 3])]))
    # (2,3)-fixing sends [1,3,2] to the identity, which is not a member
    assert not is_fixed_family(PermFamily(3, [Permutation([1, 3, 2])]))


@st.composite
def closure_stages(draw):
    """A random family at n <= 5, or one part-way through or after the
    closures, so that both answers occur."""
    n = draw(st.integers(1, 5))
    ranks = draw(st.sets(st.integers(0, len(list(all_permutations(n))) - 1),
                         min_size=1, max_size=10))
    fam = PermFamily(n, (unrank(n, r) for r in ranks))
    stage = draw(st.sampled_from(["raw", "fixed", "closed"]))
    if stage != "raw":
        fam, _ = fix_closure(fam)
    if stage == "closed":
        fam, _ = compress_closure(fam)
    return fam


@settings(max_examples=200, deadline=None)
@given(closure_stages())
def test_invariance_checks_match_the_family_operators(fam):
    n = fam.n
    assert is_fixed_family(fam) == all(
        ij_fix_family(fam, i, j) == fam
        for i, j in itertools.permutations(range(1, n + 1), 2))
    assert is_compressed_family(fam) == all(
        compress_family(fam, i, j) == fam
        for i, j in itertools.combinations(range(1, n + 1), 2))


def apply_family(family, rewrite):
    """Reference operator step, by the set-map rule: rewrite each member
    unless the result is a member of the input family, and build a new
    family. Returns it and the rewrite count."""
    out = []
    applications = 0
    for sigma in family:
        candidate = rewrite(sigma)
        if candidate != sigma and candidate not in family:
            out.append(candidate)
            applications += 1
        else:
            out.append(sigma)
    result = PermFamily(family.n, out)
    assert len(result) == len(family)  # rewrites are injective
    return result, applications


def grid_closure(family, pairs, rewrite, operation, potential):
    """Reference closure: apply the operator at every pair of the grid, in
    lexicographic order, until a clean pass."""
    before = potential(family)
    per_pass = []
    while not per_pass or per_pass[-1]:
        count = 0
        for i, j in pairs(range(1, family.n + 1), 2):
            family, applied = apply_family(family, lambda s: rewrite(s, i, j))
            count += applied
        per_pass.append(count)
    return family, ClosureTrace(operation, len(per_pass), sum(per_pass), before,
                                potential(family), tuple(per_pass))


def offered_pair_closure(family, offers, rewrite, operation, potential):
    """Reference closure over offered pairs that builds a new family at each
    visited pair: rows i = 1..n, and in a row the partners j that members
    moving i offer at the row's start, visited while one of them is left."""
    before = potential(family)
    rows = range(1, family.n + 1) if family.members else ()
    per_pass = []
    while not per_pass or per_pass[-1]:
        count = 0
        for i in rows:
            offering = {}
            for s in family:
                if s.image[i - 1] != i:
                    for j in offers(s, i):
                        offering.setdefault(j, []).append(s)
            for j in sorted(offering):
                if any(s in family for s in offering[j]):
                    family, applied = apply_family(family, lambda s: rewrite(s, i, j))
                    count += applied
        per_pass.append(count)
    return family, ClosureTrace(operation, len(per_pass), sum(per_pass), before,
                                potential(family), tuple(per_pass))


def set_closure(family, offers, rewrite, operation, potential):
    """Reference closure that keeps the members in one set of permutations,
    rewritten in place at each visited pair, so membership goes through
    ``Permutation.__hash__`` and ``__eq__``."""
    before = potential(family)
    live = set(family)
    rows = range(1, family.n + 1) if live else ()
    per_pass = []
    while not per_pass or per_pass[-1]:
        count = 0
        for i in rows:
            offering = {}
            for s in live:
                if s.image[i - 1] != i:
                    for j in offers(s, i):
                        offering.setdefault(j, []).append(s)
            for j in sorted(offering):
                for s in [s for s in offering[j] if s in live]:
                    candidate = rewrite(s, i, j)
                    if candidate not in live:
                        live.remove(s)
                        live.add(candidate)
                        count += 1
        per_pass.append(count)
    family = PermFamily(family.n, live)
    return family, ClosureTrace(operation, len(per_pass), sum(per_pass), before,
                                potential(family), tuple(per_pass))


def fix_potential(family):
    return sum(len(p.fixed_points()) for p in family)


def compress_potential(family):
    return sum(sum(p.fixed_points()) for p in family)


def reference_fix_closure(family):
    return offered_pair_closure(family, lambda s, i: (s.image[i - 1],), ij_fix_perm,
                                "fix-closure", fix_potential)


def reference_compress_closure(family):
    return offered_pair_closure(family,
                                lambda s, i: (j for j in s.fixed_points() if j > i),
                                compress_perm, "compress-closure", compress_potential)


def seeded_families(seed):
    """Per degree n <= 7: the empty family, random families, maximal ones,
    halves of those, and the closures' outputs of the maximal ones."""
    rng = random.Random(seed)
    for n in range(1, 8):
        perms = list(all_permutations(n))
        yield PermFamily(n)
        for _ in range(3):
            yield PermFamily(n, rng.sample(perms, rng.randint(1, min(12, len(perms)))))
            maximal = maximalize(PermFamily(n, [rng.choice(perms)]), rng.randint(1, 3))
            yield maximal
            yield PermFamily(n, rng.sample(maximal.members, (len(maximal) + 1) // 2))
            fixed = reference_fix_closure(maximal)[0]
            yield fixed
            yield reference_compress_closure(fixed)[0]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_closures_match_the_per_pair_reference(seed):
    for fam in seeded_families(seed):
        assert fix_closure(fam) == reference_fix_closure(fam)
        assert compress_closure(fam) == reference_compress_closure(fam)
        if fam.n <= 4:
            for i, j in itertools.permutations(range(1, fam.n + 1), 2):
                assert ij_fix_family(fam, i, j) == apply_family(
                    fam, lambda s: ij_fix_perm(s, i, j))[0]
                if i < j:
                    assert compress_family(fam, i, j) == apply_family(
                        fam, lambda s: compress_perm(s, i, j))[0]


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_closures_match_the_permutation_set_reference(seed):
    for fam in seeded_families(seed):
        assert fix_closure(fam) == set_closure(
            fam, lambda s, i: (s.image[i - 1],), ij_fix_perm, "fix-closure", fix_potential)
        assert compress_closure(fam) == set_closure(
            fam, lambda s, i: (j for j in s.fixed_points() if j > i), compress_perm,
            "compress-closure", compress_potential)


@st.composite
def closure_inputs(draw):
    """A random family at n <= 6, or a maximal one around a random member."""
    n = draw(st.integers(1, 6))
    ranks = st.integers(0, len(list(all_permutations(n))) - 1)
    if draw(st.booleans()):
        return PermFamily(n, (unrank(n, r) for r in draw(st.sets(ranks, max_size=12))))
    return maximalize(PermFamily(n, [unrank(n, draw(ranks))]), draw(st.integers(1, 3)))


@settings(max_examples=150, deadline=None)
@given(closure_inputs())
def test_closures_match_the_pair_grid(fam):
    fixed = fix_closure(fam)
    assert fixed == grid_closure(fam, itertools.permutations, ij_fix_perm, "fix-closure",
                                 lambda f: sum(len(p.fixed_points()) for p in f))
    for start in (fam, fixed[0]):
        assert compress_closure(start) == grid_closure(
            start, itertools.combinations, compress_perm, "compress-closure",
            lambda f: sum(sum(p.fixed_points()) for p in f))


def test_compression_preserves_intersection_for_fixed_families():
    rng = random.Random(17)
    for _ in range(6):
        seed_perm = unrank(5, rng.randrange(120))
        fam, _ = fix_closure(maximalize(PermFamily(5, [seed_perm]), 2))
        for i, j in itertools.combinations(range(1, 6), 2):
            assert is_family_t_cycle_intersecting(compress_family(fam, i, j), 2)


def test_compression_of_maximal_fixed_family_stays_fixed():
    rng = random.Random(7)
    tested = 0
    for _ in range(20):
        seed_perm = unrank(5, rng.randrange(120))
        fam, _ = fix_closure(maximalize(PermFamily(5, [seed_perm]), 2))
        if not is_maximal(fam, 2):
            continue  # hypothesis of the preservation statement
        for i, j in itertools.combinations(range(1, 6), 2):
            assert is_fixed_family(compress_family(fam, i, j))
        tested += 1
    assert tested >= 3


def test_stabilizer_pullback_examples():
    fam = stab({1, 2}, 5)
    assert stabilizer_pullback_check(fam, fam, 2)
    # transformed family is not a stabilizer: vacuously true
    assert stabilizer_pullback_check(PermFamily(5, [identity(5)]),
                                     PermFamily(5, [identity(5)]), 2)


def test_stabilizer_pullback_on_pipeline_outputs():
    rng = random.Random(42)
    hit = 0
    for _ in range(40):
        seed_perm = unrank(5, rng.randrange(120))
        start = maximalize(PermFamily(5, [seed_perm]), 2)
        fixed, _ = fix_closure(start)
        compressed, _ = compress_closure(fixed)
        assert stabilizer_pullback_check(start, compressed, 2)
        if is_stabilizer_of_points(compressed, 2):
            hit += 1
    assert hit >= 5  # the check must not be vacuous across the run
