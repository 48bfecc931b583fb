"""The ij-fixing and (i,j)-compression operators and their family closures.

ij-fixing rewrites a permutation with sigma(i) = j into one that fixes i,
rerouting the old preimage of i to j; it never loses fixed points and gains
at least one. (i,j)-compression (for i < j) moves a fixed point from j down
to i while preserving the cycle type, acting on fixed-point sets exactly like
the left-shift operation on sets.

Family-level variants rewrite a member only when the rewrite is not already
present in the family *as it was before the sweep step*; this keeps the family
size constant. Closures sweep the index pairs in lexicographic order until a
clean pass, visiting only the pairs whose partner j some member offers in
row i; traces record the work. A closure keeps its members in one dict keyed
by their image tuples, so a membership test hashes a tuple in C; each visited
pair rewrites the dict in place, and one family is built at the end.
"""

from __future__ import annotations

from .intersect import PermFamily, is_stabilizer_of_points
from .perm import Permutation, parse_points
from .report import _FrozenRecord


class ClosureTrace(_FrozenRecord):
    """Termination evidence for a closure run.

    ``passes`` counts full sweeps including the final clean one, so a closure
    fixpoint input reports one pass and zero applications. The potential is
    the quantity that forces termination: total fixed-point count for the
    fixing closure (strictly increasing), the sum of all fixed points' values
    for the compression closure (strictly decreasing).
    """

    __slots__ = ("operation", "passes", "applications", "potential_before",
                 "potential_after", "pass_applications")
    _defaults = {"pass_applications": ()}


def _check_points(n: int, i: int, j: int, ordered: bool = False) -> None:
    if len(parse_points((i, j), n)) != 2:
        raise ValueError("points must be distinct")
    if ordered and i > j:
        raise ValueError(f"compression needs i < j, got ({i}, {j})")


def ij_fix_perm(sigma: Permutation, i: int, j: int) -> Permutation:
    """Fix i in sigma when sigma(i) = j, rerouting sigma^-1(i) to j."""
    _check_points(sigma.n, i, j)
    return _ij_fix(sigma, i, j)


def compress_perm(sigma: Permutation, i: int, j: int) -> Permutation:
    """Move the fixed point j down to i when sigma fixes j but not i (i < j)."""
    _check_points(sigma.n, i, j, ordered=True)
    return _compress(sigma, i, j)


def _ij_fix(sigma: Permutation, i: int, j: int) -> Permutation:  # points checked
    if sigma.image[i - 1] != j:
        return sigma
    image = list(sigma.image)
    pre_i = image.index(i) + 1
    image[i - 1] = i
    image[pre_i - 1] = j
    return Permutation._trusted(tuple(image))  # images swapped: still a permutation


def _compress(sigma: Permutation, i: int, j: int) -> Permutation:  # points checked
    if sigma.image[i - 1] == i or sigma.image[j - 1] != j:
        return sigma
    image = list(sigma.image)
    pre_i = image.index(i) + 1
    image[i - 1] = i
    image[j - 1] = sigma.image[i - 1]
    image[pre_i - 1] = j
    return Permutation._trusted(tuple(image))  # images permuted: still a permutation


def _rewrite_step(live: dict[tuple[int, ...], Permutation], members, rewrite) -> int:
    """One operator step on the family ``live``, keyed by image, in place:
    each of ``members`` (all in ``live``) is replaced by its rewrite unless
    that is in ``live``. Returns the number replaced.

    This is the set-map rule on the family as it was before the step. At the
    pair (i, j) every rewrite fixes i and every member it replaces moves i, so
    no rewrite is a member the step removed; rewrites are injective, so none
    is one the step added."""
    applications = 0
    for sigma in members:
        candidate = rewrite(sigma)
        if candidate.image not in live:  # an unchanged sigma is live, so it stays
            del live[sigma.image]
            live[candidate.image] = candidate
            applications += 1
    return applications


def ij_fix_family(family: PermFamily, i: int, j: int) -> PermFamily:
    _check_points(family.n, i, j)
    live = {s.image: s for s in family}
    _rewrite_step(live, family, lambda s: _ij_fix(s, i, j))
    return PermFamily(family.n, live.values())


def compress_family(family: PermFamily, i: int, j: int) -> PermFamily:
    _check_points(family.n, i, j, ordered=True)
    live = {s.image: s for s in family}
    _rewrite_step(live, family, lambda s: _compress(s, i, j))
    return PermFamily(family.n, live.values())


def _fix_potential(family: PermFamily) -> int:
    return sum(len(p.fixed_points()) for p in family)


def _compress_potential(family: PermFamily) -> int:
    return sum(sum(p.fixed_points()) for p in family)


def _closure(family: PermFamily, offers, rewrite, operation: str,
             potential) -> tuple[PermFamily, ClosureTrace]:
    """Rows i = 1..n, and in a row the partners j in ascending order. Only a
    member that moves i and offers j is rewritten at (i, j), into one that
    fixes i; so a pair is visited only while a member that offered it at the
    row's start is still in the family, and any other rewrites nothing. Such
    a member leaves only by a rewrite, which fixes i, so it never comes back
    within the row."""
    before = potential(family)
    live = {s.image: s for s in family}
    rows = range(1, family.n + 1) if live else ()  # no member, no offer
    per_pass: list[int] = []
    while not per_pass or per_pass[-1]:
        pass_count = 0
        for i in rows:
            offering: dict[int, list[Permutation]] = {}
            for s in live.values():
                if s.image[i - 1] != i:
                    for j in offers(s, i):
                        offering.setdefault(j, []).append(s)
            for j in sorted(offering):
                present = [s for s in offering[j] if s.image in live]
                if present:
                    pass_count += _rewrite_step(live, present, lambda s: rewrite(s, i, j))
        per_pass.append(pass_count)
    family = PermFamily(family.n, live.values())
    return family, ClosureTrace(operation, len(per_pass), sum(per_pass), before,
                                potential(family), tuple(per_pass))


def fix_closure(family: PermFamily) -> tuple[PermFamily, ClosureTrace]:
    """Sweep ij-fixing over all ordered pairs until the family is fixed.

    Terminates because each rewrite strictly increases the total fixed-point
    count, which is bounded by n * |family|.
    """
    return _closure(family, lambda s, i: (s.image[i - 1],), _ij_fix, "fix-closure",
                    _fix_potential)


def compress_closure(family: PermFamily) -> tuple[PermFamily, ClosureTrace]:
    """Sweep (i,j)-compression over all i < j until the family is compressed.

    Terminates because each rewrite strictly decreases the positive sum of
    fixed-point values.
    """
    return _closure(family, lambda s, i: (j for j in s.fixed_points() if j > i),
                    _compress, "compress-closure", _compress_potential)


def is_fixed_family(family: PermFamily) -> bool:
    """Invariant under every ij-fixing family operator.

    The operator for (i, j) changes exactly the members with sigma(i) = j != i
    whose rewrite is not a member, so each member is checked at its own
    moved points.
    """
    return all(_ij_fix(s, i, s.image[i - 1]) in family
               for s in family for i in range(1, family.n + 1) if s.image[i - 1] != i)


def is_compressed_family(family: PermFamily) -> bool:
    """Invariant under every (i,j)-compression family operator.

    The operator for i < j changes exactly the members fixing j but not i
    whose rewrite is not a member.
    """
    return all(_compress(s, i, j) in family
               for s in family for j in s.fixed_points()
               for i in range(1, j) if s.image[i - 1] != i)


def stabilizer_pullback_check(original: PermFamily, transformed: PermFamily,
                              t: int) -> bool:
    """If the transformed family is a stabilizer of t points, the original
    must have been one too; vacuously true otherwise."""
    if not is_stabilizer_of_points(transformed, t):
        return True
    return is_stabilizer_of_points(original, t)
