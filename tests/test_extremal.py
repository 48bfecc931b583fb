import itertools
import math
import sys

import pytest

from cycleint.extremal import (compare_extremal, f1_closed_form, f_family,
                               f_family_size, quad_inequality_check,
                               quad_value, stabilizer_family)
from cycleint.intersect import is_family_t_cycle_intersecting, is_maximal
from cycleint.perm import all_permutations


@pytest.mark.parametrize("n", range(1, 7))
def test_stabilizer_sizes_exhaustive(n):
    for r in range(n + 1):
        for points in itertools.combinations(range(1, n + 1), r):
            assert len(stabilizer_family(points, n)) == math.factorial(n - r)


def test_stabilizer_family_examples():
    assert len(stabilizer_family((1, 2), 5)) == 6
    only_identity = stabilizer_family(range(1, 5), 4)
    assert len(only_identity) == 1
    fam = stabilizer_family((1, 2), 5)
    assert is_family_t_cycle_intersecting(fam, 2)
    assert is_maximal(fam, 2)


def test_stabilizer_family_rejects_bad_points():
    with pytest.raises(ValueError):
        stabilizer_family((1, 1), 4)
    with pytest.raises(ValueError):
        stabilizer_family((0, 2), 4)
    with pytest.raises(ValueError):
        stabilizer_family((1, 2, 3, 4, 5), 4)


def test_f_family_known_sizes():
    assert len(f_family(6, 3, 1)) == 6
    assert len(f_family(8, 4, 1, cap=8)) == 26
    assert len(f_family(7, 4, 1)) == 7


def test_f_family_i_zero_is_stabilizer():
    assert f_family(5, 2, 0) == stabilizer_family((1, 2), 5)


def test_f_family_membership_definition():
    fam = f_family(6, 3, 1)
    window = set(range(1, 6))
    for p in all_permutations(6):
        inside = len(window & set(p.fixed_points())) >= 4
        assert (p in fam) == inside


def test_f_family_parameter_errors():
    with pytest.raises(ValueError):
        f_family(5, 2, 2)  # window 6 exceeds degree 5
    with pytest.raises(ValueError):
        f_family(5, 0, 1)
    with pytest.raises(ValueError):
        f_family(5, 2, -1)
    with pytest.raises(ValueError, match="cap"):
        f_family(8, 4, 1)  # default enumeration cap is 7


@pytest.mark.parametrize("n,t", [(6, 3), (5, 2), (7, 3)])
def test_f_family_is_t_cycle_intersecting(n, t):
    assert is_family_t_cycle_intersecting(f_family(n, t, 1), t)


def test_f1_closed_form_values():
    assert f1_closed_form(3) == 6
    assert f1_closed_form(4) == 26
    with pytest.raises(ValueError):
        f1_closed_form(1)


@pytest.mark.parametrize("t", (3, 4))
def test_f1_closed_form_matches_enumeration_at_double_t(t):
    assert f1_closed_form(t) == len(f_family(2 * t, t, 1, cap=2 * t))
    assert f1_closed_form(t) == f_family_size(2 * t, t, 1)


def test_f1_closed_form_matches_counting_mode_beyond_cap():
    # t = 5 lives at degree 10, far past materialization; counting mode only
    assert f1_closed_form(5) == f_family_size(10, 5, 1) == 132


def test_counting_mode_matches_enumeration():
    for n in (4, 5, 6):
        for t in range(1, n + 1):
            for i in range(0, (n - t) // 2 + 1):
                assert f_family_size(n, t, i) == len(f_family(n, t, i))


def test_extension_count_consistency_from_6_to_7():
    # every degree-7 member restricts (by deleting the point 7 from its cycle)
    # to a degree-6 member, so counting valid insertions per degree-6 member
    # reproduces the degree-7 size
    from cycleint.perm import from_cycles

    base = f_family(6, 3, 1)
    window = set(range(1, 6))
    total = 0
    for p in base:
        cycles = [list(c) for c in p.cycles()]
        candidates = [cycles + [[7]]]
        for ci, cycle in enumerate(cycles):
            for pos in range(len(cycle)):
                extended = [list(c) for c in cycles]
                extended[ci] = cycle[: pos + 1] + [7] + cycle[pos + 1:]
                candidates.append(extended)
        for cyc in candidates:
            q = from_cycles(7, cyc)
            if len(window & set(q.fixed_points())) >= 4:
                total += 1
    assert total == len(f_family(7, 3, 1))


def test_compare_extremal_instances():
    cmp74 = compare_extremal(7, 4)
    assert cmp74.sizes == {"F0": 6, "F1": 7}
    assert "F0 < F1" in cmp74.verdicts
    assert cmp74.cross_checked

    cmp63 = compare_extremal(6, 3)
    assert cmp63.sizes == {"F0": 6, "F1": 6}
    assert "F0 = F1" in cmp63.verdicts

    cmp52 = compare_extremal(5, 2)
    assert cmp52.sizes["F0"] == 6
    assert cmp52.sizes["F1"] == 5
    assert "F0 > F1" in cmp52.verdicts


def test_compare_extremal_beyond_cap_counts_only():
    cmp84 = compare_extremal(8, 4)
    assert cmp84.sizes == {"F0": 24, "F1": 26}
    assert not cmp84.cross_checked


def test_compare_extremal_refuses_unprintable_sizes_before_counting(monkeypatch):
    from cycleint import extremal

    def refuse(*args):
        raise AssertionError("counted a size that cannot be printed")

    monkeypatch.setattr(extremal, "f_family_size", refuse)
    monkeypatch.setattr(extremal, "_pattern_count", refuse)
    with pytest.raises(ValueError, match=r"\|F0\| at \(n=1000000, t=1\)"):
        compare_extremal(1000000, 1, (0, 1))
    # the refusal is exact: m! is the first factorial too long to print
    limit = sys.get_int_max_str_digits()
    m = next(m for m in itertools.count() if math.factorial(m) >= 10 ** limit)
    with pytest.raises(ValueError, match=rf"\|F2\| at \(n={m + 4}, t=2\) is at least \({m}\)!"):
        compare_extremal(m + 4, 2, (3, 2))
    with pytest.raises(AssertionError, match="counted"):
        compare_extremal(m + 4, 3, (2,))  # (m-1)! can be printed


def test_quad_value_instances():
    assert quad_value(5, 2, 2) == 0
    assert quad_value(4, 2, 2) == 4
    assert quad_value(7, 3, 2) == 0
    assert quad_value(7, 3, 4) == 0


def test_quad_check_reports():
    check = quad_inequality_check(5, 2)
    assert check.required and check.ok
    assert check.even == ((2, 0, True),)

    failing = quad_inequality_check(4, 2)
    assert not failing.required  # 4 < 2t+1, nothing asserted
    assert failing.even == ((2, 4, False),)
    assert not failing.holds_for_all_even
    assert failing.ok  # informational only below the threshold


def test_quad_holds_above_threshold_sample():
    for t in range(1, 21):
        for n in range(2 * t + 1, 2 * t + 11):
            assert quad_inequality_check(n, t).holds_for_all_even


def test_quad_odd_gaps_are_informational():
    check = quad_inequality_check(8, 3)
    deltas = [row[0] for row in check.odd]
    assert deltas == [3, 5]
    assert all(row[0] % 2 == 0 for row in check.even)
