"""Rankings over candidates 1..n, stored as permutations in one-line form.

A ranking is a tuple ``order`` whose entry at (1-based) position ``i`` is the
candidate placed ``i``-th, most preferred first.  ``Permutation`` wraps that
tuple together with the structures every distance evaluation needs over and
over: the position of each candidate, and per-candidate bitmasks of the
strictly less-preferred candidates ("down-sets").  Those tables are derived
from ``order`` on first use, so rankings that are only built, compared or
printed (such as the tied optima of an exact consensus) never pay for them.

Candidate labels are the integers ``1..n``; callers with named candidates are
expected to map names through a symbol table before building rankings.
Instances are immutable.  Filling a table is idempotent (the same value from
the same ``order``), so concurrent readers of a fresh instance at worst
compute it twice.

The group product follows the convention ``(p * q)(i) = p[q[i]]``: composing
on the left relabels candidates, composing on the right reorders positions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator

# menu-top tables hold 2^n entries; n = 20 is the menu oracle's cap
NAIVE_CANDIDATE_LIMIT = 20


class Permutation:
    """An immutable ranking of candidates 1..n in one-line notation.

    >>> p = Permutation((2, 3, 1))
    >>> p.position(3)
    2
    >>> p.inverse().order
    (3, 1, 2)
    """

    __slots__ = ("order", "_pos", "_below", "_pair_mask", "_menu_tops")

    def __init__(self, order: Iterable[int]):
        order = tuple(order)
        n = len(order)
        if n == 0:
            raise ValueError("a ranking needs at least one candidate")
        seen = 0
        for c in order:
            if type(c) is not int or not 1 <= c <= n:  # no bool, no float
                raise ValueError(f"candidate {c!r} outside 1..{n}")
            seen |= 1 << (c - 1)
        if seen != (1 << n) - 1:
            raise ValueError(f"not a bijection on 1..{n}: {order}")
        object.__setattr__(self, "order", order)

    @classmethod
    def _trusted(cls, order: tuple[int, ...]) -> "Permutation":
        """Wrap ``order``, a tuple known to be a bijection on 1..n, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        return self

    def __getattr__(self, name):
        # Python calls this only while the slot ``name`` is unset: derive the
        # table, store it, and every later read is a plain slot read
        if name == "_pos":
            pos = [0] * len(self.order)
            for i, c in enumerate(self.order, start=1):
                pos[c - 1] = i
            value = tuple(pos)
        elif name == "_below":
            # below-mask of the candidate at position i = candidates at positions > i
            below = [0] * len(self.order)
            mask = 0
            for c in reversed(self.order):
                below[c - 1] = mask
                mask |= 1 << (c - 1)
            value = tuple(below)
        elif name == "_pair_mask":
            value = self._derive_pair_mask()
        elif name == "_menu_tops":
            value = self._derive_menu_tops()
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        return (Permutation, (self.order,))

    @property
    def n(self) -> int:
        return len(self.order)

    def position(self, candidate: int) -> int:
        """1-based position of ``candidate`` (1 = most preferred)."""
        self._check_candidate(candidate)
        return self._pos[candidate - 1]

    def below_mask(self, candidate: int) -> int:
        """Bitmask of candidates strictly less preferred than ``candidate``."""
        self._check_candidate(candidate)
        return self._below[candidate - 1]

    def prefers(self, a: int, b: int) -> bool:
        """True when ``a`` is ranked above ``b``."""
        return self.position(a) < self.position(b)

    def inverse(self) -> "Permutation":
        return Permutation(self._pos)

    def compose(self, other: "Permutation") -> "Permutation":
        """Group product: ``self.compose(other)(i) = self[other[i]]``.

        Left-composing a relabelling ``tau`` onto a ranking ``p`` via
        ``tau.compose(p)`` renames candidate ``c`` of ``p`` to ``tau[c]``.
        """
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(self.order[q - 1] for q in other.order))

    def swap_adjacent(self, a: int) -> "Permutation":
        """Exchange the candidates at positions ``a`` and ``a + 1``."""
        if not 1 <= a <= self.n - 1:
            raise ValueError(f"swap position {a} outside 1..{self.n - 1}")
        order = list(self.order)
        order[a - 1], order[a] = order[a], order[a - 1]
        return Permutation(order)

    @property
    def pair_mask(self) -> int:
        """Bitmask over unordered pairs; bit set when i is ranked above j (i < j)."""
        return self._pair_mask

    def _derive_pair_mask(self) -> int:
        n = self.n
        pos = self._pos
        mask = 0
        bit = 1  # pairs are indexed in this loop's (i, j) order
        for i in range(n - 1):
            for j in range(i + 1, n):
                if pos[i] < pos[j]:
                    mask |= bit
                bit <<= 1
        return mask

    def menu_tops(self) -> tuple[int, ...]:
        """Per menu bitmask, the candidate this ranking prefers most (0 for
        the empty menu).

        Filled by comparing positions along the lowest-bit recursion and kept
        on the ranking, so exhaustive sweeps that reuse a ranking build it
        once.  It has 2^n entries: n is capped at ``NAIVE_CANDIDATE_LIMIT``.
        """
        return self._menu_tops

    def _derive_menu_tops(self) -> tuple[int, ...]:
        n = self.n
        if n > NAIVE_CANDIDATE_LIMIT:
            raise ValueError(
                f"menu-top tables hold 2^n entries; n <= {NAIVE_CANDIDATE_LIMIT} only"
            )
        pos = self._pos
        tops = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            rest = mask ^ low
            c = low.bit_length()
            keep = tops[rest]
            tops[mask] = c if rest == 0 or pos[c - 1] < pos[keep - 1] else keep
        return tuple(tops)

    def _check_candidate(self, candidate: int) -> None:
        if not 1 <= candidate <= self.n:
            raise ValueError(f"candidate {candidate} outside 1..{self.n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.order == other.order

    def __hash__(self) -> int:
        return hash(self.order)

    def __lt__(self, other: "Permutation") -> bool:
        return self.order < other.order

    def __repr__(self) -> str:
        return f"Permutation({self.order})"

    def __str__(self) -> str:
        return " ".join(map(str, self.order))


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The permutation agreeing with the identity except that i and j trade places."""
    if i == j:
        raise ValueError("transposition needs two distinct candidates")
    order = list(range(1, n + 1))
    order[i - 1], order[j - 1] = j, i
    return Permutation(order)


@lru_cache(maxsize=None)
def all_rankings(n: int) -> tuple[Permutation, ...]:
    """Every ranking of 1..n in lexicographic order, cached for the life of
    the process: 7.4 MB at n = 8, so n <= 8."""
    if n > 8:
        raise ValueError(f"refusing to materialise {n}! rankings (n <= 8 limit)")
    return tuple(map(Permutation._trusted, _itertools_permutations(range(1, n + 1))))


def _check_same_n(p: Permutation, q: Permutation) -> int:
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    return p.n


def inversion_set(p: Permutation, q: Permutation) -> frozenset[tuple[int, int]]:
    """Ordered pairs (i, j) ranked i above j by ``p`` but j above i by ``q``."""
    n = _check_same_n(p, q)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and p.prefers(i, j) and q.prefers(j, i):
                out.append((i, j))
    return frozenset(out)


def kendall_count(p: Permutation, q: Permutation) -> int:
    """Number of candidate pairs the two rankings order oppositely."""
    _check_same_n(p, q)
    return (p.pair_mask ^ q.pair_mask).bit_count()


def down_set_size(p: Permutation, candidate: int) -> int:
    """How many candidates rank strictly below ``candidate``."""
    return p.n - p.position(candidate)


def common_down_count(p: Permutation, q: Permutation, candidate: int) -> int:
    """Size of the intersection of the two down-sets of ``candidate``."""
    _check_same_n(p, q)
    return (p.below_mask(candidate) & q.below_mask(candidate)).bit_count()


def menu_max(menu: Iterable[int], p: Permutation) -> int:
    """The element of ``menu`` that ``p`` ranks highest."""
    menu = frozenset(menu)
    if not menu:
        raise ValueError("empty menu has no maximum")
    for c in menu:
        p._check_candidate(c)
    return min(menu, key=p.position)


def adjacent_pairs(p: Permutation) -> frozenset[tuple[int, int]]:
    """Consecutive candidate pairs of the ranking, higher-ranked first."""
    return frozenset(zip(p.order, p.order[1:]))


def is_between(p: Permutation, w: Permutation, q: Permutation) -> bool:
    """True when ``w`` agrees with ``p`` and ``q`` on every pair they agree on."""
    _check_same_n(p, w)
    _check_same_n(p, q)
    return (p.pair_mask ^ w.pair_mask) & ~(p.pair_mask ^ q.pair_mask) == 0


def adjacent_promotions(p: Permutation, candidate: int) -> Iterator[Permutation]:
    """The single-step uprankings of ``candidate`` (at most one for a ranking)."""
    pos = p.position(candidate)
    if pos > 1:
        yield p.swap_adjacent(pos - 1)
