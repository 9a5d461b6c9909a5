"""C-interior/exterior/boundary calculus and Folner schemes.

All set computations are exact; ratios are returned as Fractions so the
diagnostics can be asserted literally.  The calculus folds the right
translates of a window, on every group as shifts of its mask where
groups.box grants a table, else as sets.  A scheme only provides
finite-scale evidence: nesting and ball coverage are checked up to a
budget, and no routine here ever claims a limit.
"""

from __future__ import annotations

import itertools
from copy import copy
from dataclasses import dataclass
from fractions import Fraction

from .groups import (
    ball,
    box,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    shells,
    ZCrossZ2,
)


# The most cells of a table of _folds per cell of the largest window F:
# Heisenberg balls fill about 1/5 of their hull, and with C = ball(1) the
# table holds 8 to 21 cells a cell for F = ball(n), n <= 12.  L1 balls of
# Z^d at large d, or a C far wider than the windows, would make the table
# huge, and stay on sets.
SPREAD = 32


def _folds(group, layers, C: FiniteSubset):
    """Yield (|F|, union, meet, members) for each window F, the union of
    the first k of layers: the union and the intersection of the right
    translates F c^{-1}, c in C, and the map of either to its elements (xc
    in F exactly when x in F c^{-1}).  Where groups.box grants one table
    over the hull of F c^{-1}, c in C + {e}, for the largest F, each
    window's mask is the last one's OR its layer's and a translate is one
    group.shift of it; else each window is grown and translated as a set."""
    if C.group != group:
        raise ValueError(f"mixed groups: {group.name} vs {C.group.name}")
    if len(C) == 0:
        raise ValueError("C must be nonempty")
    steps = [group.inv(c) for c in C.sorted_elements()]
    columns = list(zip(*itertools.chain.from_iterable(layers)))
    table = box(group, columns, [group.identity, *steps], SPREAD * sum(map(len, layers)))
    if table is None:
        grown, right = set(), group.right_translate
        for layer in layers:
            grown |= layer
            yield len(grown), *_fold(right(g, grown) for g in steps), frozenset
        return
    mask = 0
    for layer in layers:
        mask |= table.mask(list(zip(*layer)))
        yield mask.bit_count(), *_fold(group.shift(table, mask, g) for g in steps), table.members


def _fold(translates):
    """The union and the meet of an iterator of sets or masks."""
    meet = next(translates)
    union = copy(meet)  # a set is then updated in place
    for translate in translates:
        union |= translate
        meet &= translate
    return union, meet


def _gap(union, meet) -> int:
    """|union| - |meet| of two masks or two sets."""
    if isinstance(union, int):
        return union.bit_count() - meet.bit_count()
    return len(union) - len(meet)


def _union_and_meet(A: FiniteSubset, C: FiniteSubset):
    """The union and meet of _folds for the one window A, and their map
    to elements."""
    _, union, meet, members = next(_folds(A.group, [A.elements], C))
    return union, meet, members


def exterior(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """Out_C(A) = {x : xC meets A}, i.e. A C^{-1}."""
    union, _, members = _union_and_meet(A, C)
    return FiniteSubset._raw(A.group, members(union))


def interior(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """In_C(A) = {x : xC contained in A}."""
    _, meet, members = _union_and_meet(A, C)
    return FiniteSubset._raw(A.group, members(meet))


def boundary(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """Boundary = exterior minus interior: the union minus the meet, as the
    meet lies in the union, and only its elements are decoded."""
    union, meet, members = _union_and_meet(A, C)
    return FiniteSubset._raw(A.group, members(union ^ meet))


def boundary_size(A: FiniteSubset, C: FiniteSubset) -> int:
    """|boundary_C(A)| = |union| - |meet|: bits are counted on masks and
    sets are sized, nothing is decoded."""
    union, meet, _ = _union_and_meet(A, C)
    return _gap(union, meet)


@dataclass(frozen=True)
class Boxes:
    """Centered boxes [-n, n]^d in Z^d; boundary counts have closed forms."""

    group: FreeAbelian

    def __post_init__(self):
        if not isinstance(self.group, FreeAbelian):
            raise ValueError("Boxes scheme requires a free abelian group")

    @property
    def name(self) -> str:
        return "boxes"

    def set_at(self, n: int) -> FiniteSubset:
        if n < 0:
            raise ValueError("index must be >= 0")
        rng = range(-n, n + 1)
        return FiniteSubset._raw(
            self.group,
            frozenset(itertools.product(rng, repeat=self.group.dim)),
        )

    def shells(self):
        """Yield {e}, then each box(n) - box(n-1): its faces, the points
        whose largest |coordinate| is n, each put in the face of the first
        coordinate at which it reaches n."""
        d = self.group.dim
        yield frozenset({self.group.identity})
        for n in itertools.count(1):
            inner, outer = [range(1 - n, n)], [range(-n, n + 1)]
            yield frozenset(itertools.chain.from_iterable(
                itertools.product(*inner * i, (-n, n), *outer * (d - 1 - i))
                for i in range(d)
            ))


@dataclass(frozen=True)
class BoxTimesZ2:
    """[-n, n] x {0, 1} in Z x Z/2."""

    group: ZCrossZ2

    def __post_init__(self):
        if not isinstance(self.group, ZCrossZ2):
            raise ValueError("BoxTimesZ2 scheme requires the group ZxZ2")

    @property
    def name(self) -> str:
        return "boxz2"

    def set_at(self, n: int) -> FiniteSubset:
        if n < 0:
            raise ValueError("index must be >= 0")
        return FiniteSubset._raw(
            self.group,
            frozenset((k, t) for k in range(-n, n + 1) for t in (0, 1)),
        )

    def shells(self):
        """Yield {0} x {0, 1}, then each {-n, n} x {0, 1}."""
        yield frozenset({(0, 0), (0, 1)})
        for n in itertools.count(1):
            yield frozenset({(-n, 0), (-n, 1), (n, 0), (n, 1)})


@dataclass(frozen=True)
class WordBalls:
    """F_n = B_n(S) for the group's fixed generating set."""

    group: object

    @property
    def name(self) -> str:
        return "balls"

    def set_at(self, n: int) -> FiniteSubset:
        return ball(self.group, n)

    def shells(self):
        """Yield {e}, then each sphere ball(n) - ball(n-1)."""
        return shells(self.group, (self.group.identity,))


_SHELLED = (Boxes, BoxTimesZ2, WordBalls)


def nested_sets(scheme, n_max: int):
    """Yield (n, F_n) for n = 0..n_max.  A built-in scheme grows F_n from
    its shells, F_n = F_{n-1} + shell n, in one pass instead of one set_at
    call per n; another is read with set_at, so nesting stays checkable."""
    if not isinstance(scheme, _SHELLED):
        for n in range(n_max + 1):
            yield n, scheme.set_at(n)
        return
    grown = set()
    for n, shell in zip(range(n_max + 1), scheme.shells()):
        grown |= shell
        yield n, FiniteSubset._raw(scheme.group, frozenset(grown))


def boundary_sizes(group, shells, C: FiniteSubset, n_max: int):
    """Yield (n, |F_n|, |boundary_C(F_n)|) for n = 1..n_max, F_n the union
    of the first n + 1 of shells, from _folds: on one table for the run
    where groups.box grants it, so no window is built as a set."""
    layers = list(itertools.islice(shells, n_max + 1))
    folds = itertools.islice(_folds(group, layers, C), 1, None)
    for n, (size, union, meet, _) in enumerate(folds, 1):
        yield n, size, _gap(union, meet)


def default_scheme(group):
    if isinstance(group, FreeAbelian):
        return Boxes(group)
    if isinstance(group, ZCrossZ2):
        return BoxTimesZ2(group)
    if isinstance(group, Heisenberg):
        return WordBalls(group)
    raise ValueError(f"no default scheme for {group!r}")


def scheme_from_name(name: str, group):
    key = name.strip().lower()
    if key == "boxes":
        return Boxes(group)
    if key in ("boxz2", "boxtimesz2"):
        return BoxTimesZ2(group)
    if key in ("balls", "wordballs"):
        return WordBalls(group)
    raise ValueError(f"unknown scheme {name!r} (expected boxes, boxz2 or balls)")


def boundary_ratio(scheme, C: FiniteSubset, n: int) -> Fraction:
    """|boundary_C(F_n)| / |F_n| as an exact reduced fraction."""
    F_n = scheme.set_at(n)
    return Fraction(boundary_size(F_n, C), len(F_n))


@dataclass(frozen=True)
class ExhaustionReport:
    ok: bool
    n_max: int
    first_violation: str | None = None

    def __str__(self):
        if self.ok:
            return f"pass (checked up to n={self.n_max})"
        return f"fail: {self.first_violation}"


def verify_exhaustion(scheme, n_max: int) -> ExhaustionReport:
    """Check e in F_0, nesting up to n_max, and ball coverage.

    Coverage is a bounded surrogate for exhaustion: every ball of radius
    r <= n_max must be contained in some F_m with m <= n_max.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    group = scheme.group
    sets = [F for _, F in nested_sets(scheme, n_max)]
    if group.identity not in sets[0]:
        return ExhaustionReport(False, n_max, "identity not in F_0")
    for n in range(n_max):
        if not sets[n].is_subset(sets[n + 1]):
            return ExhaustionReport(False, n_max, f"F_{n} not contained in F_{n + 1}")
    top = sets[n_max].elements
    for r, shell in zip(range(n_max + 1), shells(group, (group.identity,))):
        if not shell <= top:
            return ExhaustionReport(
                False, n_max, f"ball({r}) not covered by any F_m with m <= {n_max}"
            )
    return ExhaustionReport(True, n_max)
