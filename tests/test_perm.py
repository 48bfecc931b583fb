import pytest

from cycleint.extremal import (compare_extremal, f_family, quad_inequality_check,
                               stabilizer_family)
from cycleint.gensets import (SetSystem, fix_prefix_count, fix_prefix_family,
                              left_shift_set, reduced_fix_prefix_family)
from cycleint.intersect import PermFamily, build_intersection_graph
from cycleint.perm import (Permutation, all_permutations, compose, conjugate,
                           from_cycles, identity, parse_cycles, parse_degree,
                           parse_points, point_mask, rank, unrank)
from cycleint.search import (conjugacy_representatives, max_family_search,
                             naive_max_family_size, pipeline_roundtrip,
                             verify_counterexample_regime, verify_max_bound)
from cycleint.transform import compress_perm, ij_fix_perm


def test_identity_examples():
    assert identity(3).image == (1, 2, 3)
    assert identity(4).fixed_points() == (1, 2, 3, 4)
    assert identity(2).cycles() == ((1,), (2,))


def test_identity_rejects_degree_zero():
    with pytest.raises(ValueError):
        identity(0)
    with pytest.raises(ValueError):
        Permutation([])


@pytest.mark.parametrize("bad", [[1, 1], [2, 3], [0, 1], [1, 2, 4]])
def test_invalid_images_rejected(bad):
    with pytest.raises(ValueError):
        Permutation(bad)


def test_parse_points_and_point_mask():
    assert parse_points([3, 1, 3], 3) == (1, 3)
    assert parse_points(iter(()), 1) == ()
    assert point_mask((1, 3)) == 0b101 and point_mask(()) == 0
    assert identity(3).fixed_mask() == 0b111
    assert Permutation([2, 1, 3, 5, 4]).fixed_mask() == 0b100
    for bad in ([0], [4], [2.0], [2.9], [True], [False], ["2"], [None], [[1]]):
        with pytest.raises(ValueError):
            parse_points(bad, 3)


def test_parse_degree():
    for n in (1, 2, 7, 10**12):
        assert parse_degree(n) == n
    for bad in (2.9, 2.0, True, False, "3", None, [3]):
        with pytest.raises(ValueError, match='^"n" must be an integer, got '):
            parse_degree(bad)
    for bad in (0, -1, -10**12):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            parse_degree(bad)


@pytest.mark.parametrize("n", [2.9, True, 0, -1, "3", None])
@pytest.mark.parametrize("call", [
    lambda n: identity(n),
    lambda n: from_cycles(n, []),
    lambda n: parse_cycles("()", n),
    lambda n: unrank(n, 0),
    lambda n: list(all_permutations(n)),
    lambda n: PermFamily(n),
    lambda n: PermFamily.from_images(n, []),
    lambda n: SetSystem(n),
    lambda n: build_intersection_graph(n, 1),
    lambda n: stabilizer_family((1, 2), n),
    lambda n: left_shift_set((), n),
    lambda n: fix_prefix_family((1,), n),
    lambda n: stabilizer_family((), n),
    lambda n: f_family(n, 1, 0),
    lambda n: max_family_search(n, 1),
    lambda n: verify_max_bound(n, 1),
    lambda n: naive_max_family_size(n, 1),
    lambda n: conjugacy_representatives([], n),
    lambda n: pipeline_roundtrip(n, 1, 1, 1),
    lambda n: compare_extremal(n, 1),
    lambda n: verify_counterexample_regime(n, 1),
    lambda n: reduced_fix_prefix_family((1,), n),
    lambda n: stabilizer_family((1, 1), n),
    lambda n: stabilizer_family((1,), n),
    lambda n: fix_prefix_count(n, 1, 1),
    lambda n: quad_inequality_check(n, 1)])
def test_every_degree_is_parsed(call, n):
    with pytest.raises(ValueError,
                       match='^("n" must be an integer|degree must be at least 1)'):
        call(n)


@pytest.mark.parametrize("call", [
    lambda: Permutation([2.0, 1]),
    lambda: from_cycles(3, [(1.0, 2)]),
    lambda: SetSystem(3, [[True]]),
    lambda: stabilizer_family((1.0,), 3),
    lambda: stabilizer_family(("1",), 3)])
def test_direct_calls_reject_non_int_points(call):
    with pytest.raises(ValueError, match="not an integer"):
        call()


def test_compose_examples():
    e = identity(3)
    s = Permutation([2, 3, 1])
    assert compose(e, s) == s
    swap = Permutation([2, 1, 3])
    assert compose(swap, swap) == identity(3)
    # hand application of sigma(pi(x))
    assert compose(Permutation([2, 3, 1]), Permutation([2, 1, 3])).image == (3, 2, 1)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_cycle_decomposition_examples():
    assert Permutation([1, 2, 3]).cycles() == ((1,), (2,), (3,))
    assert Permutation([2, 1, 3]).cycles() == ((1, 2), (3,))
    assert Permutation([2, 3, 1, 5, 4]).cycles() == ((1, 2, 3), (4, 5))


def test_fixed_points_examples():
    assert Permutation([1, 2, 3]).fixed_points() == (1, 2, 3)
    assert Permutation([2, 1, 3]).fixed_points() == (3,)
    assert Permutation([2, 3, 1]).fixed_points() == ()


def test_from_cycles_examples():
    assert from_cycles(5, [(1, 2, 3), (4, 5)]).image == (2, 3, 1, 5, 4)
    assert from_cycles(3, []) == identity(3)
    assert from_cycles(4, [(2, 4)]).image == (1, 4, 3, 2)


def test_from_cycles_rejects_bad_input():
    with pytest.raises(ValueError):
        from_cycles(4, [(1, 2), (2, 3)])  # repeated point
    with pytest.raises(ValueError):
        from_cycles(3, [(1, 4)])  # out of range


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_roundtrip_exhaustive(n):
    for p in all_permutations(n):
        assert from_cycles(n, p.cycles()) == p


@pytest.mark.parametrize("n", range(1, 6))
def test_fix_count_equals_one_cycles(n):
    for p in all_permutations(n):
        assert len(p.fixed_points()) == sum(1 for c in p.cycles() if len(c) == 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_no_permutation_fixes_exactly_n_minus_one_points(n):
    assert all(len(p.fixed_points()) != n - 1 for p in all_permutations(n))


def test_canonical_decomposition_is_sorted_min_first():
    for p in all_permutations(4):
        cycles = p.cycles()
        assert sorted(x for c in cycles for x in c) == [1, 2, 3, 4]
        assert all(c[0] == min(c) for c in cycles)
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_is_lexicographic_position(n):
    for i, p in enumerate(all_permutations(n)):
        assert rank(p) == i
        assert unrank(n, i) == p


def test_fixed_points_are_never_stale_and_never_seen_by_equality():
    def scan(p):
        return tuple(x for x in range(1, p.n + 1) if p.image[x - 1] == x)

    pairs = [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j]
    for p in all_permutations(5):
        assert p.fixed_points() == scan(p)  # fills p's cache before any rewrite
        rewrites = [ij_fix_perm(p, i, j) for i, j in pairs]
        rewrites += [compress_perm(p, i, j) for i, j in pairs if i < j]
        for q in rewrites:
            assert q.fixed_points() == scan(q), (p, q)
            assert q.fixed_points() == scan(q), (p, q)  # the cached answer
            assert q.fixed_mask() == point_mask(scan(q)), (p, q)
        filled, fresh = Permutation(p.image), Permutation(p.image)
        filled.fixed_points()
        assert filled == fresh and fresh == filled
        assert hash(filled) == hash(fresh)
        assert len({filled, fresh}) == 1


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(3, 6)
    with pytest.raises(ValueError):
        unrank(3, -1)


def test_parse_cycles():
    assert parse_cycles("(1 2 3)(4 5)", 5).image == (2, 3, 1, 5, 4)
    assert parse_cycles("(1,2)", 3).image == (2, 1, 3)
    assert parse_cycles("()", 3) == identity(3)
    assert parse_cycles("", 4) == identity(4)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 x)", 3)


def test_cycle_string_roundtrip():
    for p in all_permutations(4):
        text = "".join(f"({' '.join(map(str, c))})" for c in p.cycles() if len(c) > 1)
        assert parse_cycles(text, 4) == p


def test_inverse_and_conjugation():
    for p in all_permutations(4):
        assert compose(p, p.inverse()) == identity(4)
    g = Permutation([3, 1, 2, 4])
    s = Permutation([2, 1, 4, 3])
    assert conjugate(s, g).cycle_type() == s.cycle_type()
