"""Permutations of [n] = {1, ..., n} in one-line notation.

Everything here is 1-indexed to match the combinatorial conventions of the
rest of the package; conversions to 0-indexed positions happen only inside
method bodies. Permutation values are immutable and hashable, so they can be
shared freely between data structures (and threads) without copying. The
cycle set and the fixed points are derived from the images on first use and
kept in a slot; equality and hashing read the images only.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Iterator, Sequence


class Permutation:
    """A bijection on [n], stored as the tuple of images (sigma(1), ..., sigma(n)).

    >>> s = Permutation([2, 3, 1, 5, 4])
    >>> s.cycles()
    ((1, 2, 3), (4, 5))
    >>> s.fixed_points()
    ()
    >>> Permutation([2, 1, 3]).fixed_points()
    (3,)
    """

    __slots__ = ("image", "_cycle_set", "_fixed")

    def __init__(self, image: Sequence[int]):
        """Validate the images with :func:`parse_points`: n distinct points of [n]."""
        image = tuple(image)
        n = parse_degree(len(image))
        if len(parse_points(image, n)) != n:
            raise ValueError(f"not a permutation of [{n}]: {image!r}")
        self.image = image
        self._cycle_set: frozenset[tuple[int, ...]] | None = None
        self._fixed: tuple[int, ...] | None = None

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple already known to be a permutation; no validation."""
        perm = object.__new__(cls)
        perm.image = image
        perm._cycle_set = None
        perm._fixed = None
        return perm

    @property
    def n(self) -> int:
        return len(self.image)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition, 1-cycles included.

        Each cycle is rotated so its smallest element comes first and the
        cycles are sorted by smallest element, so equal permutations always
        produce identical decompositions and cycle multisets compare by
        structural equality.
        """
        image = self.image
        n = len(image)
        seen = bytearray(n + 1)
        cycles = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = 1
            x = image[start - 1]
            while x != start:
                cycle.append(x)
                seen[x] = 1
                x = image[x - 1]
            cycles.append(tuple(cycle))
        return tuple(cycles)  # starts are found in ascending order

    def cycle_set(self) -> frozenset[tuple[int, ...]]:
        """The cycles as a frozenset; the unit of cycle-intersection counting."""
        if self._cycle_set is None:
            self._cycle_set = frozenset(self.cycles())
        return self._cycle_set

    def fixed_points(self) -> tuple[int, ...]:
        """Sorted tuple of the points x with sigma(x) = x."""
        if self._fixed is None:
            self._fixed = tuple(x for x, y in enumerate(self.image, start=1) if x == y)
        return self._fixed

    def fixed_mask(self) -> int:
        """The fixed points as a :func:`point_mask`. It scans the images and
        leaves the fixed-point slot empty, so the table of S_n, which asks
        every row for its mask, keeps no n! tuples alive."""
        return point_mask(x for x, y in enumerate(self.image, start=1) if x == y)

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted multiset of cycle lengths."""
        return tuple(sorted(len(c) for c in self.cycles()))

    def inverse(self) -> Permutation:
        image = self.image
        inv = [0] * len(image)
        for x, y in enumerate(image, start=1):
            inv[y - 1] = x
        return Permutation(inv)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __lt__(self, other: Permutation) -> bool:
        return self.image < other.image

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def _check_int(name: str, value: int) -> int:
    """``value``, which must be an ``int`` (a ``bool`` is not); the error
    names the parameter. The one type check of a caller's integer."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f'"{name}" must be an integer, got {value!r}')
    return value


def parse_degree(n: int) -> int:
    """The degree n, which must be an ``int`` (a ``bool`` is not) and at
    least 1. The one check of a caller's degree."""
    if _check_int("n", n) < 1:
        raise ValueError("degree must be at least 1")
    return n


def parse_points(values: Iterable[int], n: int) -> tuple[int, ...]:
    """The distinct points among ``values``, sorted; each value must be an
    ``int`` (a ``bool`` is not) in [1, n]. The one check of a caller's points.

    >>> parse_points([3, 1, 3], 4)
    (1, 3)
    """
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"point {x!r} is not an integer")
        if not 1 <= x <= n:
            raise ValueError(f"point {x} out of range [1, {n}]")
    return tuple(sorted(set(values)))


def point_mask(points: Iterable[int]) -> int:
    """The bitmask of a point set, bit x-1 for point x.

    >>> bin(point_mask((1, 3)))
    '0b101'
    """
    return sum(1 << (x - 1) for x in points)


def identity(n: int) -> Permutation:
    parse_degree(n)
    return Permutation(range(1, n + 1))


def compose(sigma: Permutation, pi: Permutation) -> Permutation:
    """The permutation x -> sigma(pi(x)); degrees must match."""
    if sigma.n != pi.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {pi.n}")
    s, p = sigma.image, pi.image
    return Permutation(s[p[x] - 1] for x in range(len(s)))


def conjugate(sigma: Permutation, g: Permutation) -> Permutation:
    """g . sigma . g^-1, the relabelling of sigma's cycles by g."""
    return compose(compose(g, sigma), g.inverse())


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """Build a permutation of [n] from disjoint cycles; omitted points are fixed.

    Each cycle's entries are checked with :func:`parse_points`.

    >>> from_cycles(5, [(1, 2, 3), (4, 5)]).image
    (2, 3, 1, 5, 4)
    """
    parse_degree(n)
    image = list(range(1, n + 1))
    used = set()
    for cycle in cycles:
        cycle = list(cycle)
        parse_points(cycle, n)
        for x in cycle:
            if x in used:
                raise ValueError(f"point {x} appears in more than one cycle")
            used.add(x)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return Permutation(image)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2 3)(4 5)" into a degree-n permutation.

    Entries may be separated by spaces or commas; "()" or "" is the identity.
    """
    body = text.strip()
    leftover = _CYCLE_RE.sub("", body).strip()
    if leftover:
        raise ValueError(f"unparsable cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(body):
        entries = [e for e in re.split(r"[,\s]+", group.strip()) if e]
        if not entries:
            continue
        try:
            cycles.append([int(e) for e in entries])
        except ValueError:
            raise ValueError(f"non-integer entry in cycle notation: {text!r}") from None
    return from_cycles(n, cycles)


def rank(sigma: Permutation) -> int:
    """Position of sigma in the lexicographic order of one-line images (0-based)."""
    image = sigma.image
    n = len(image)
    later = (1 << n + 1) - 2  # bit x for each point x not yet passed
    r = 0
    for i, x in enumerate(image):
        later ^= 1 << x
        r = r * (n - i) + (later & ((1 << x) - 1)).bit_count()  # later points below x
    return r


def unrank(n: int, r: int) -> Permutation:
    """Inverse of :func:`rank`; unrank(n, 0) is the identity."""
    parse_degree(n)
    if not 0 <= _check_int("r", r) < math.factorial(n):
        raise ValueError(f"rank {r} out of range for degree {n}")
    digits = []
    for base in range(1, n + 1):
        digits.append(r % base)
        r //= base
    digits.reverse()
    available = list(range(1, n + 1))
    return Permutation(available.pop(d) for d in digits)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order (the rank order)."""
    parse_degree(n)
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation._trusted(image)
