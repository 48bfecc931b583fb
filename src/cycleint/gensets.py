"""Generating sets for permutation families and the counting machinery on them.

A set system g generates a family F when no member has cardinality n-1 and the
union of up-permutation sets U_p(B) = {sigma : B subseteq fix(sigma)} over
B in g equals F. The left-shift closure followed by inclusion-minimal
selection turns any generating set into a left-compressed, inclusion-minimal
one; on such systems the family decomposes as a disjoint union of
prefix-fix-pattern classes whose sizes have an exact inclusion-exclusion
formula. The surgery operation rebuilds a generating set by deleting its
top size classes, which is how candidate families larger than the original
are produced.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator

from . import report
from .intersect import (PermFamily, _check_t, _fixed_point_family, _joinable,
                        _sn_table)
from .perm import _check_int, parse_degree, parse_points, point_mask, rank
from .report import CheckResult, _FrozenRecord, _Record
from .transform import is_compressed_family, is_fixed_family


class SetSystem:
    """Distinct subsets of [n], each stored sorted, ordered lexicographically.

    Each member is checked with :func:`perm.parse_points` and also carries
    its :func:`perm.point_mask`, which is what the subset and intersection
    scans operate on. Systems built here from members already checked skip
    the check through ``_trusted``.
    """

    __slots__ = ("n", "sets", "masks", "_mask_set")

    def __init__(self, n: int, sets: Iterable[Iterable[int]] = ()):
        self._fill(parse_degree(n), {parse_points(s, n) for s in sets})

    @classmethod
    def _trusted(cls, n: int, sets: Iterable[tuple[int, ...]]) -> "SetSystem":
        """Wrap sorted tuples of points of [n] already known to be valid;
        duplicates are dropped, nothing is validated."""
        system = object.__new__(cls)
        system._fill(n, set(sets))
        return system

    def _fill(self, n: int, sets: set[tuple[int, ...]]) -> None:
        self.n = n
        self.sets = tuple(sorted(sets))
        self.masks = tuple(map(point_mask, self.sets))
        self._mask_set = frozenset(self.masks)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": [list(s) for s in self.sets]}

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sets)

    def __contains__(self, member: Iterable[int]) -> bool:
        try:
            return point_mask(parse_points(member, self.n)) in self._mask_set
        except ValueError:  # a non-point is in no member
            return False

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SetSystem)
                and self.n == other.n and self.sets == other.sets)

    def __hash__(self) -> int:
        return hash((self.n, self.sets))

    def __repr__(self) -> str:
        return f"SetSystem(n={self.n}, size={len(self.sets)})"

    def union(self, other: "SetSystem") -> "SetSystem":
        if self.n != other.n:
            raise ValueError("ground-set size mismatch")
        return SetSystem._trusted(self.n, self.sets + other.sets)

    def difference(self, other: "SetSystem") -> "SetSystem":
        if self.n != other.n:
            raise ValueError("ground-set size mismatch")
        return SetSystem._trusted(self.n, (s for s, m in zip(self.sets, self.masks)
                                           if m not in other._mask_set))


def up_permutations_system(system: SetSystem) -> PermFamily:
    """Union of the up-permutation sets of all members."""
    masks = system.masks
    return _fixed_point_family(
        system.n, lambda mask: any(mask & b == b for b in masks))


def is_generating_set(system: SetSystem, family: PermFamily) -> bool:
    """No member of cardinality n-1, and the up-permutations union to the family.

    Decided on fixed-point masks, with no walk over S_n: the family lies in
    U(G) when every member fixes some B in G, and U(B) in the family when
    (n - |B|)! = |U(B)| members fix B."""
    n = system.n
    if n != family.n or any(len(s) == n - 1 for s in system):
        return False
    fixed = [p.fixed_mask() for p in family]
    return (all(any(m & b == b for b in system.masks) for m in fixed)
            and all(sum(m & b == b for m in fixed) == math.factorial(n - b.bit_count())
                    for b in system.masks))


def fix_system(family: PermFamily) -> SetSystem:
    """The set system of the members' fixed-point sets, deduplicated."""
    return SetSystem._trusted(family.n, (p.fixed_points() for p in family))


def left_shift_set(points: Iterable[int], n: int) -> SetSystem:
    """All same-size sets obtainable by componentwise decreasing the sorted
    elements; always includes the input set itself. The points are checked
    with :func:`perm.parse_points`."""
    member = parse_points(points, parse_degree(n))
    shifts: list[tuple[int, ...]] = []

    def extend(idx: int, prev: int, chosen: list[int]) -> None:
        if idx == len(member):
            shifts.append(tuple(chosen))
            return
        for a in range(prev + 1, member[idx] + 1):
            chosen.append(a)
            extend(idx + 1, a, chosen)
            chosen.pop()

    extend(0, 0, [])
    return SetSystem._trusted(n, shifts)


def left_shift_system(system: SetSystem) -> SetSystem:
    out: list[tuple[int, ...]] = []
    for member in system:
        out.extend(left_shift_set(member, system.n).sets)
    return SetSystem._trusted(system.n, out)


def is_left_compressed(system: SetSystem) -> bool:
    return left_shift_system(system) == system


def minimal_elements(system: SetSystem) -> SetSystem:
    """Members with no proper subset also in the system."""
    masks = system.masks
    keep = []
    for s, m in zip(system.sets, masks):
        if not any(other != m and other & m == other for other in masks):
            keep.append(s)
    return SetSystem._trusted(system.n, keep)


def left_shift_minimals(system: SetSystem) -> SetSystem:
    """Inclusion-minimal elements of the left-shift closure.

    Idempotent, so the result is both left-compressed and inclusion-minimal;
    on generating sets of maximal fixed compressed families it stays a
    generating set and never increases the largest element used.
    """
    return minimal_elements(left_shift_system(system))


def max_element(points: Iterable[int]) -> int:
    member = tuple(points)
    if not member:
        raise ValueError("empty set has no largest element")
    return max(member)


def system_max_element(system: SetSystem) -> int:
    if not system.sets:
        raise ValueError("empty system has no largest element")
    return max(max_element(s) for s in system)


def derive_star_generating_set(family: PermFamily) -> SetSystem:
    """The left-compressed inclusion-minimal system derived from Fix(family)."""
    return left_shift_minimals(fix_system(family))


class GeneratingSetCertificate(_FrozenRecord):
    """Shape summary of a derived generating set."""

    __slots__ = ("system", "family_size", "max_element", "is_left_compressed",
                 "is_inclusion_minimal")


def certify_generating_set(family: PermFamily) -> GeneratingSetCertificate:
    if not family.members:
        raise ValueError("cannot certify the empty family")
    system = derive_star_generating_set(family)
    if any(len(s) == system.n - 1 for s in system):
        raise ValueError("derived system contains a set of cardinality n-1")
    return GeneratingSetCertificate(
        system=system,
        family_size=len(family),
        max_element=system_max_element(system),
        is_left_compressed=is_left_compressed(system),
        is_inclusion_minimal=minimal_elements(system) == system,
    )


# ---------------------------------------------------------------------------
# Prefix-fix-pattern classes and their exact counts.
# ---------------------------------------------------------------------------

def _pattern_count(n: int, pattern_size: int, window: int) -> int:
    """Permutations of [n] fixing a given pattern_size-set inside the window
    [1..window] and no other window point: inclusion-exclusion over the
    window points excluded from the pattern. Exact integer arithmetic."""
    free = window - pattern_size
    return sum((-1) ** j * math.comb(free, j) * math.factorial(n - pattern_size - j)
               for j in range(free + 1))


def fix_prefix_count(n: int, size: int, top: int) -> int:
    """Size of a prefix-fix class from its parameters alone.

    ``size`` is the pattern cardinality and ``top`` its largest element; the
    count is of permutations whose fixed points within [1..top] are exactly
    the pattern.
    """
    if _check_int("size", size) < 1:
        raise ValueError("pattern size must be at least 1")
    if not size <= _check_int("top", top) <= parse_degree(n):
        raise ValueError(f"need size <= top <= n, got ({size}, {top}, {n})")
    return _pattern_count(n, size, top)


def _prefix_masks(points: Iterable[int], n: int) -> tuple[int, int]:
    """The window [1..max(points)] and the pattern, as fixed-point masks."""
    member = parse_points(points, parse_degree(n))
    if not member:
        raise ValueError("pattern must be nonempty")
    return point_mask(range(1, member[-1] + 1)), point_mask(member)


def fix_prefix_family(points: Iterable[int], n: int) -> PermFamily:
    """Permutations whose fixed points within [1..max(points)] equal the set."""
    prefix, wanted = _prefix_masks(points, n)
    return _fixed_point_family(n, lambda mask: mask & prefix == wanted)


def reduced_fix_prefix_family(points: Iterable[int], n: int) -> PermFamily:
    """Drop the largest pattern element and shrink the window by one.

    The result always contains the original prefix-fix class, plus for every
    member and every movable point the transposition pulling the old top
    element out; hence its size is at least (n - |pattern| + 1) times the
    original class size. The excess is strict whenever the pattern has a gap
    below its top element, except in the one shape where the witness would
    need a permutation fixing exactly n-1 points: |pattern| = n-2 with
    top = n.
    """
    prefix, wanted = _prefix_masks(points, n)
    prefix >>= 1
    return _fixed_point_family(n, lambda mask: mask & prefix == wanted & prefix)


# ---------------------------------------------------------------------------
# Structure checks on generating sets.
# ---------------------------------------------------------------------------

def is_t_intersecting_system(system: SetSystem, t: int) -> bool:
    """Every two distinct members share at least t elements."""
    _check_t(t)
    return all((a & b).bit_count() >= t
               for a, b in itertools.combinations(system.masks, 2))


def is_disjoint_union(family: PermFamily, system: SetSystem) -> CheckResult:
    """Do the prefix-fix classes of the members partition the family?

    Each class is the set of fixed-point masks it admits, among the at most
    2^n masks of the S_n table. Rows are in rank order, which is permutation
    order, so the least row of some masks is their least permutation.
    """
    n = family.n
    if any(not member for member in system):
        raise ValueError("decomposition pattern must be nonempty")
    table = _sn_table(n)
    groups = table.rows_by_fixed
    classes = [{mask for mask in groups if mask & prefix == wanted}
               for prefix, wanted in (_prefix_masks(member, n) for member in system)]
    for (e1, c1), (e2, c2) in itertools.combinations(zip(system, classes), 2):
        if c1 & c2:
            least = min(groups[mask][0] for mask in c1 & c2)
            witness = {"sets": [list(e1), list(e2)], "perm": list(table.perms[least].image)}
            return report.failed(witness, "classes overlap")
    union = set().union(*classes)  # the classes are pairwise disjoint by now
    # the family lies in the union when every member's mask is in it, and
    # then equals it when the sizes agree
    missing = [list(p.image) for p in family if p.fixed_mask() not in union]
    if missing or sum(len(groups[mask]) for mask in union) != len(family):
        ranks = {rank(p) for p in family}
        extra = sorted(r for mask in union for r in groups[mask] if r not in ranks)[:3]
        witness = {"missing": missing[:3], "extra": [list(table.perms[r].image) for r in extra]}
        return report.failed(witness, "union differs from family")
    return report.passed()


def disjoint_union_check(family: PermFamily, system: SetSystem, t: int) -> CheckResult:
    """Hypothesis-gated partition check.

    Validates what it can before asserting the conclusion: the system must be
    left-compressed, inclusion-minimal, and generating, and the family
    t-cycle-intersecting and maximal. Unmet hypotheses are reported
    distinctly from a failed partition.
    """
    _check_t(t)
    if not family.members:
        return report.hypothesis_not_met(detail="empty family")
    if any(not s for s in system):
        return report.hypothesis_not_met(detail="system contains the empty set")
    if left_shift_minimals(system) != system:
        return report.hypothesis_not_met(
            detail="system is not left-compressed inclusion-minimal")
    if not is_generating_set(system, family):
        return report.hypothesis_not_met(detail="system does not generate the family")
    if not is_fixed_family(family):
        return report.hypothesis_not_met(detail="family is not fixed")
    if not is_compressed_family(family):
        return report.hypothesis_not_met(detail="family is not compressed")
    joinable = _joinable(family, t)
    if joinable is None:
        return report.hypothesis_not_met(detail=f"family is not {t}-cycle-intersecting")
    if joinable:
        return report.hypothesis_not_met(detail="family is not maximal")
    return is_disjoint_union(family, system)


def check_pair_overlap_t_plus_one(system: SetSystem, t: int) -> CheckResult:
    """On a left-compressed inclusion-minimal system, any two members (not
    necessarily distinct) admitting i < j with i outside both and j inside
    both must share at least t+1 elements."""
    _check_t(t)
    n = system.n
    if n <= t + 1:
        return report.hypothesis_not_met(detail=f"needs n > t+1, got n={n}, t={t}")
    if left_shift_minimals(system) != system:
        return report.hypothesis_not_met(
            detail="system is not left-compressed inclusion-minimal")
    full = (1 << n) - 1
    masks = system.masks
    for a in range(len(masks)):
        for b in range(a, len(masks)):
            union = masks[a] | masks[b]
            inter = masks[a] & masks[b]
            if not inter:
                continue
            outside = full & ~union
            j_top = inter.bit_length()  # largest element of the intersection
            qualifies = bool(outside & ((1 << (j_top - 1)) - 1))
            if qualifies and inter.bit_count() < t + 1:
                witness = {"sets": [list(system.sets[a]), list(system.sets[b])],
                           "intersection_size": inter.bit_count()}
                return report.failed(witness, "intersection below t+1")
    return report.passed()


# ---------------------------------------------------------------------------
# Partition by largest element and the generating-set surgery.
# ---------------------------------------------------------------------------

class TopPartition(_FrozenRecord):
    """Split of a system by whether a member attains the overall largest element.

    ``delta`` is the overall largest element minus t, ``top`` holds the
    members attaining it and ``size_classes`` splits those by cardinality;
    ``in_open_range`` says that every class has t < size < t + delta.
    Equality and hashing ignore ``size_classes``, which ``top`` determines.
    """

    __slots__ = ("delta", "top", "rest", "size_classes", "in_open_range")
    _defaults = {"size_classes": {}, "in_open_range": True}
    _compared = ("delta", "top", "rest", "in_open_range")


def partition_by_max_element(system: SetSystem, t: int) -> TopPartition:
    """Partition members by attainment of the largest element, then the
    attaining ones by cardinality. Rejects systems whose largest element is
    already t: there is nothing to take apart."""
    s_plus = system_max_element(system)
    delta = s_plus - _check_t(t)
    if delta <= 0:
        raise ValueError(f"largest element {s_plus} does not exceed t={t}")
    top_sets = [s for s in system if max(s) == s_plus]
    rest_sets = [s for s in system if max(s) != s_plus]
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for s in top_sets:
        by_size.setdefault(len(s), []).append(s)
    size_classes = {size: SetSystem(system.n, members)
                    for size, members in sorted(by_size.items())}
    in_range = all(t < size < t + delta for size in size_classes)
    return TopPartition(delta=delta,
                        top=SetSystem(system.n, top_sets),
                        rest=SetSystem(system.n, rest_sets),
                        size_classes=size_classes,
                        in_open_range=in_range)


class SurgeryReport(_Record):
    """Outcome of one surgery attempt on a size class of the top partition.

    Case 1 (paired classes, i != 2t + delta - i) removes the class of size i
    together with its partner class and re-adds one of them with the largest
    element deleted, producing two candidate systems. Case 2 (the middle
    class) keeps only the subsets avoiding a pigeonhole-chosen element after
    deleting the largest element, producing a single candidate.
    """

    __slots__ = ("case", "n", "t", "delta", "size_class", "base_size", "candidates",
                 "candidate_t_intersecting", "candidate_sizes", "best_size",
                 "strict_gain", "pivot", "survivors", "pigeonhole_ok")
    _defaults = {"pivot": None, "survivors": None, "pigeonhole_ok": None}


def _drop_top(system: SetSystem, top: int) -> SetSystem:
    return SetSystem(system.n, (tuple(x for x in s if x != top) for s in system))


def generating_set_surgery(system: SetSystem, t: int,
                           size_class: int) -> SurgeryReport:
    """Rebuild the system around one size class of its top partition and
    report whether the up-permutation family strictly grows."""
    partition = partition_by_max_element(system, t)
    delta = partition.delta
    s_plus = t + delta
    i = size_class
    if i not in partition.size_classes:
        raise ValueError(f"size class {i} is empty")
    r_i = partition.size_classes[i]
    base_size = len(up_permutations_system(system))
    partner = 2 * t + delta - i

    if i != partner:
        r_partner = partition.size_classes.get(partner, SetSystem(system.n))
        trimmed = system.difference(r_i).difference(r_partner)
        f1 = trimmed.union(_drop_top(r_i, s_plus))
        f2 = trimmed.union(_drop_top(r_partner, s_plus))
        candidates = {"f1": f1, "f2": f2}
        sizes = {k: len(up_permutations_system(v)) for k, v in candidates.items()}
        best = max(sizes.values())
        return SurgeryReport(
            case=1, n=system.n, t=t, delta=delta, size_class=i,
            base_size=base_size, candidates=candidates,
            candidate_t_intersecting={k: is_t_intersecting_system(v, t)
                                      for k, v in candidates.items()},
            candidate_sizes=sizes, best_size=best,
            strict_gain=best > base_size)

    # Middle class: i = t + delta/2, so delta is even. Choose the element of
    # [t+delta-1] hitting the most complements (smallest index on ties); the
    # members avoiding it survive with the top element dropped.
    reduced = _drop_top(r_i, s_plus)
    universe = range(1, s_plus)
    frequency = {a: sum(1 for s in reduced if a not in s) for a in universe}
    pivot = max(universe, key=lambda a: (frequency[a], -a))
    survivors = SetSystem(system.n, (s for s in reduced if pivot not in s))
    # Pigeonhole guarantee: |T'| >= |R_i| * (delta/2) / (t + delta - 1), in
    # integers; the divisor is i + delta/2 - 1 >= 1, as i >= 1 and delta >= 2.
    pigeon_ok = 2 * (s_plus - 1) * len(survivors) >= len(r_i) * delta
    f_prime = system.difference(r_i).union(survivors)
    size = len(up_permutations_system(f_prime))
    return SurgeryReport(
        case=2, n=system.n, t=t, delta=delta, size_class=i,
        base_size=base_size, candidates={"f_prime": f_prime},
        candidate_t_intersecting={"f_prime": is_t_intersecting_system(f_prime, t)},
        candidate_sizes={"f_prime": size}, best_size=size,
        strict_gain=size > base_size,
        pivot=pivot, survivors=survivors, pigeonhole_ok=pigeon_ok)
