"""C-interior/exterior/boundary calculus and Folner schemes.

All set computations are exact; ratios are returned as Fractions so the
diagnostics can be asserted literally.  A scheme only provides finite-scale
evidence: nesting and ball coverage are checked up to a budget, and no
routine here ever claims a limit.
"""

from __future__ import annotations

import itertools
from copy import copy
from dataclasses import dataclass
from fractions import Fraction

from .groups import (
    ball,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    hull_box,
    shells,
    ZCrossZ2,
)


def _union_and_meet(A: FiniteSubset, C: FiniteSubset):
    """Union and intersection of the right translates A c^{-1}, c in C, one
    held at a time, and the map of either to its elements: xc in A exactly
    when x in A c^{-1}.  A translate is a shift of A's mask in the box
    hull(A) + hull(C^{-1} + {e}) where groups.hull_box grants it, else a set."""
    A._require_same_group(C)
    if len(C) == 0:
        raise ValueError("C must be nonempty")
    group = A.group
    steps = [group.inv(c) for c in C.sorted_elements()]
    columns = list(zip(*A.elements))
    box = hull_box(group, (columns, list(zip(group.identity, *steps))), len(A))
    if box is None:
        right = group.right_translate
        translates, members = (right(g, A.elements) for g in steps), frozenset
    else:
        mask = box.mask(columns)
        translates, members = (group.shift(box, mask, g) for g in steps), box.members
    meet = next(translates)
    union = copy(meet)  # a set is then updated in place
    for translate in translates:
        union |= translate
        meet &= translate
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
    """Boundary = exterior minus interior.  On Z^d and ZxZ2 this is the
    union mask minus the meet mask, and only its bits are decoded; sets stay
    on the Heisenberg group and where a far element would make the box
    hold more than 4 |A| cells."""
    union, meet, members = _union_and_meet(A, C)
    return FiniteSubset._raw(A.group, members(union ^ meet))  # meet <= union


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


@dataclass(frozen=True)
class WordBalls:
    """F_n = B_n(S) for the group's fixed generating set."""

    group: object

    @property
    def name(self) -> str:
        return "balls"

    def set_at(self, n: int) -> FiniteSubset:
        return ball(self.group, n)


def nested_sets(scheme, n_max: int):
    """Yield (n, F_n) for n = 0..n_max.  Word balls grow from one shells
    pass instead of one ball call per n, each regrown from the identity."""
    if not isinstance(scheme, WordBalls):
        for n in range(n_max + 1):
            yield n, scheme.set_at(n)
        return
    group = scheme.group
    layers = shells(group, (group.identity,))
    grown = set()
    for n, shell in zip(range(n_max + 1), layers):
        grown |= shell
        yield n, FiniteSubset._raw(group, frozenset(grown))


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
    return Fraction(len(boundary(F_n, C)), len(F_n))


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
