"""C-interior/exterior/boundary calculus and Folner schemes.

All set computations are exact; ratios are returned as Fractions so the
diagnostics can be asserted literally.  A scheme only provides finite-scale
evidence: nesting and ball coverage are checked up to a budget, and no
routine here ever claims a limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .groups import (
    ball,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    shells,
    ZCrossZ2,
)


def _union_and_meet(A: FiniteSubset, C: FiniteSubset):
    """Union and intersection of the right translates A c^{-1}, c in C,
    holding one translate at a time: xc in A exactly when x in A c^{-1}."""
    _check_pair(A, C)
    right, inv = A.group.right_translate, A.group.inv
    union, meet = set(), None
    for c in C.sorted_elements():
        translate = right(inv(c), A.elements)
        union |= translate
        if meet is None:
            meet = translate
        else:
            meet &= translate
    return union, meet


def exterior(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """Out_C(A) = {x : xC meets A}, i.e. A C^{-1}."""
    return FiniteSubset._raw(A.group, frozenset(_union_and_meet(A, C)[0]))


def interior(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """In_C(A) = {x : xC contained in A}."""
    return FiniteSubset._raw(A.group, frozenset(_union_and_meet(A, C)[1]))


def boundary(A: FiniteSubset, C: FiniteSubset) -> FiniteSubset:
    """Boundary = exterior minus interior."""
    union, meet = _union_and_meet(A, C)
    return FiniteSubset._raw(A.group, frozenset(union - meet))


def _check_pair(A: FiniteSubset, C: FiniteSubset):
    A._require_same_group(C)
    if len(C) == 0:
        raise ValueError("C must be nonempty")


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
