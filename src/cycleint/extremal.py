"""Extremal family constructions, their exact sizes, and the quadratic check.

F_0 is the pointwise stabilizer of [t]; F_i consists of all permutations
fixing at least t+i of the first t+2i points. Below n = 2t+1 the F_1
construction overtakes the stabilizer, which is why the bound n >= 2t+1 is
tight. Sizes are exact integers, computed by enumeration within the cap and
by an inclusion-exclusion counting mode that needs no materialization; when
both run they are cross-checked.
"""

from __future__ import annotations

import math
import sys

from .gensets import _pattern_count
from .intersect import PermFamily, _check_t, _fixed_point_family, _within_cap
from .perm import _check_int, parse_degree, parse_points, point_mask
from .report import _FrozenRecord


def stabilizer_family(points, n: int, cap: int | None = None) -> PermFamily:
    """All permutations fixing every listed point; size (n - t)!. The points
    are checked with :func:`perm.parse_points` and must be distinct."""
    points = tuple(points)
    if len(parse_points(points, parse_degree(n))) != len(points):
        raise ValueError("stabilized points must be distinct")
    want = point_mask(points)
    return _fixed_point_family(n, lambda mask: mask & want == want, cap)


def f_family(n: int, t: int, i: int, cap: int | None = None) -> PermFamily:
    """Permutations fixing at least t+i of the first t+2i points (i = 0 gives
    the stabilizer of [t])."""
    _check_f_params(n, t, i)
    window = point_mask(range(1, t + 2 * i + 1))
    return _fixed_point_family(
        n, lambda mask: (mask & window).bit_count() >= t + i, cap)


def f_family_size(n: int, t: int, i: int) -> int:
    """Counting mode: sum over the fixed pattern inside the window of the
    exact inclusion-exclusion count of extensions; no materialization."""
    _check_f_params(n, t, i)
    window = t + 2 * i
    return sum(math.comb(window, m) * _pattern_count(n, m, window)
               for m in range(t + i, window + 1))


def _check_f_params(n: int, t: int, i: int) -> None:
    if _check_t(t) < 1:
        raise ValueError("t must be at least 1")
    if _check_int("i", i) < 0:
        raise ValueError("i must be nonnegative")
    if t + 2 * i > parse_degree(n):
        raise ValueError(f"window t+2i = {t + 2 * i} exceeds degree {n}")


def f1_closed_form(t: int) -> int:
    """|F_1| at degree n = 2t, in closed form: (t-2)! * (t^2 - 3)."""
    if _check_t(t) < 2:
        raise ValueError("closed form needs t >= 2")
    return math.factorial(t - 2) * (t * t - 3)


class ExtremalComparison(_FrozenRecord):
    """Exact sizes of the requested families with ordering verdicts."""

    __slots__ = ("n", "t", "sizes", "verdicts", "cross_checked")


def compare_extremal(n: int, t: int, i_values=(0, 1)) -> ExtremalComparison:
    """Sizes of F_i for the requested i, enumerated within the cap and counted
    exactly either way; the two modes must agree wherever both run. Sizes
    that could not be printed are refused before any counting."""
    i_values = sorted({_check_int("i", v) for v in i_values})
    for i in i_values:
        _check_f_params(n, t, i)
    _refuse_unprintable_sizes(n, t, i_values)
    sizes: dict[str, int] = {}
    cross_checked = _within_cap(n)
    for i in i_values:
        counted = f_family_size(n, t, i)
        if cross_checked:
            enumerated = len(f_family(n, t, i))
            if enumerated != counted:
                raise AssertionError(
                    f"F_{i} size mismatch at (n={n}, t={t}): "
                    f"enumerated {enumerated}, counted {counted}")
        sizes[f"F{i}"] = counted
    verdicts = []
    names = sorted(sizes)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            x, y = names[a], names[b]
            symbol = ">" if sizes[x] > sizes[y] else ("<" if sizes[x] < sizes[y] else "=")
            verdicts.append(f"{x} {symbol} {y}")
    return ExtremalComparison(n=n, t=t, sizes=sizes,
                              verdicts=tuple(verdicts), cross_checked=cross_checked)


def _refuse_unprintable_sizes(n: int, t: int, i_values) -> None:
    """Refuse each |F_i| too long for the interpreter to print: F_i holds
    every permutation fixing [t+i], so |F_i| >= (n-t-i)!."""
    # no such limit before Python 3.10.7; 0 switches it off
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for i in i_values:
        if digits and _factorial_exceeds_digits(n - t - i, digits):
            raise ValueError(
                f"|F{i}| at (n={n}, t={t}) is at least ({n - t - i})!, which has "
                f"more than {digits} digits, the interpreter's limit for printing "
                f"an integer")


def _factorial_exceeds_digits(m: int, digits: int) -> bool:
    """Whether m! has more than ``digits`` decimal digits: from log10(m!)
    where that is clear, and exactly where it is within one of the limit."""
    if m >= digits:  # m! > 10**m from m = 25 on, and a nonzero limit is >= 640
        return True
    log10 = math.lgamma(m + 1) / math.log(10)
    if abs(log10 - digits) > 1:
        return log10 > digits
    return math.factorial(m) >= 10 ** digits


def quad_value(n: int, t: int, delta: int) -> int:
    """The discriminating quadratic; the surgery gains size iff it is <= 0."""
    _check_int("n", n)
    _check_t(t)
    _check_int("delta", delta)
    return delta * delta + delta * (2 + 2 * t - 2 * n) + 4 * t - 4


class QuadCheck(_FrozenRecord):
    """Evaluation of the quadratic over the admissible gap values.

    Only even gaps arise in the middle-class surgery, so those carry the
    assertion; odd gaps are reported for information only. Each row of
    ``even`` and ``odd`` is (delta, value, holds); ``required`` says whether
    the assertion is active, which it is iff n >= 2t+1.
    """

    __slots__ = ("n", "t", "even", "odd", "holds_for_all_even", "required", "ok")


def quad_inequality_check(n: int, t: int) -> QuadCheck:
    """Evaluate the quadratic for every gap delta in [2, n-t]."""
    parse_degree(n)
    if _check_t(t) < 1:
        raise ValueError("t must be at least 1")
    even = []
    odd = []
    for delta in range(2, n - t + 1):
        value = quad_value(n, t, delta)
        row = (delta, value, value <= 0)
        (even if delta % 2 == 0 else odd).append(row)
    holds = all(ok for _, _, ok in even)
    required = n >= 2 * t + 1
    return QuadCheck(n=n, t=t, even=tuple(even), odd=tuple(odd),
                     holds_for_all_even=holds, required=required,
                     ok=holds or not required)
