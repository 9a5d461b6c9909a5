"""Quasi-tiling combinatorics: eps-disjoint families, alpha-covers,
greedy tiling construction with an independent checker, nets, and the
tile-ratio upper bound.

The greedy constructor is a heuristic; its output is always
re-validated by check_quasi_tiling, so a heuristic failure is visible
and never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from math import ceil, floor
from operator import or_

from .groups import box, FiniteSubset, Heisenberg, translate, ZCrossZ2


def _tiling_eps(eps) -> Fraction:
    """The tiling tolerance as a Fraction; every tiling routine, and the
    tile-ratio bound, takes eps in (0, 1/4]."""
    eps = Fraction(eps)
    if not (0 < eps <= Fraction(1, 4)):
        raise ValueError("eps must lie in (0, 1/4]")
    return eps


@dataclass(frozen=True)
class QuasiTiling:
    """Tiles A_1..A_k with center sets C_1..C_k inside some target set."""

    tiles: tuple
    centers: tuple
    epsilon: Fraction
    # check_quasi_tiling's report on the target greedy_quasi_tile covered
    report: TilingReport | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.tiles) != len(self.centers):
            raise ValueError("need one center set per tile")
        _tiling_eps(self.epsilon)


@dataclass(frozen=True)
class DisjointnessCheck:
    ok: bool
    witnesses: tuple | None = None  # FiniteSubsets A'_i when ok


def _quota(size: int, eps: Fraction) -> int:
    """Smallest m with m/size strictly above 1 - eps."""
    return floor((1 - eps) * size) + 1


def _match_quotas(families: list, quotas: list) -> list | None:
    """Reserve quotas[i] exclusive elements for set i, or None if impossible.

    One augmenting path per claimed element; a claim that finds none
    proves the quotas unreachable, so the decision is exact and the
    eps-disjointness decision is never a false negative.
    """
    owner: dict = {}
    nxt = [0] * len(families)
    for i, q in enumerate(quotas):
        if not all(_augment(families, owner, nxt, i) for _ in range(q)):
            return None
    claimed = [set() for _ in families]
    for x, i in owner.items():
        claimed[i].add(x)
    return claimed


def _augment(families: list, owner: dict, nxt: list, root: int) -> bool:
    """Give set root one more element along an augmenting path, searched
    depth first with an explicit stack; frame k holds a set, its unscanned
    elements and the element it gives up to the set of frame k - 1.
    nxt[i] indexes set i's first element not known to be owned: owners move
    but are never deleted, so the pointer only moves forward, and only a set
    with no free element at it scans its elements for owners to enter."""
    stack = []
    entered = {root}
    i, given = root, None  # the set entered and the element it gives up
    while True:
        F, k = families[i], nxt[i]
        while k < len(F) and F[k] in owner:
            k += 1
        nxt[i] = k
        if k < len(F):  # i takes F[k]; each set on the path takes what the next gives up
            owner[F[k]] = i
            while stack:
                taker, _, up = stack.pop()
                owner[given] = taker
                given = up
            return True
        stack.append((i, iter(F), given))
        i = None
        while stack and i is None:  # enter the next owner not entered yet
            for x in stack[-1][1]:
                if owner[x] not in entered:
                    i, given = owner[x], x
                    entered.add(i)
                    break
            else:
                stack.pop()
        if i is None:
            return False


def check_epsilon_disjoint(family, eps) -> DisjointnessCheck:
    """Decide whether subsets A'_i <= A_i exist that are pairwise disjoint
    with |A'_i|/|A_i| strictly above 1 - eps; returns witnesses when so.

    A greedy left-to-right removal is tried first (it also produces the
    largest witnesses); on greedy failure the exact matching decision
    settles the question.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    family = list(family)
    if not family:
        return DisjointnessCheck(True, ())
    group = family[0].group
    for A in family:
        if len(A) == 0:
            raise ValueError("sets must be nonempty")
        A._require_same_group(family[0])
    quotas = [_quota(len(A), eps) for A in family]

    used: set = set()
    greedy = []
    greedy_ok = True
    for A, q in zip(family, quotas):
        W = A.elements - used
        if len(W) < q:
            greedy_ok = False
            break
        greedy.append(W)
        used |= W
    if greedy_ok:
        witnesses = tuple(FiniteSubset._raw(group, frozenset(W)) for W in greedy)
        return DisjointnessCheck(True, witnesses)

    matched = _match_quotas([A.sorted_elements() for A in family], quotas)
    if matched is None:
        return DisjointnessCheck(False, None)
    witnesses = tuple(FiniteSubset._raw(group, frozenset(W)) for W in matched)
    return DisjointnessCheck(True, witnesses)


def check_alpha_cover(A: FiniteSubset, family, alpha) -> bool:
    """|A meet (union of the family)| / |A| >= alpha, evaluated exactly."""
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if len(A) == 0:
        raise ValueError("A must be nonempty")
    covered: set = set()
    for B in family:
        A._require_same_group(B)
        covered |= B.elements
    return Fraction(len(A.elements & covered), len(A)) >= alpha


@dataclass(frozen=True)
class TilingCondition:
    name: str
    passed: bool
    ratio: Fraction


@dataclass(frozen=True)
class TilingReport:
    conditions: tuple
    passed: bool

    def __str__(self):
        return "; ".join(
            f"{c.name}={'pass' if c.passed else 'fail'}({c.ratio})"
            for c in self.conditions
        )


def check_quasi_tiling(A: FiniteSubset, t: QuasiTiling) -> TilingReport:
    """Verify the three tiling conditions against the target set A.

    (1) every placed tile stays inside A and each tile's translates form
        an eps-disjoint family; the reported ratio is the worst witness
        fraction |A'_c| / |A_i| seen,
    (2) placed regions of different tiles are exactly disjoint; the ratio
        is the overlapping fraction of A (must be 0),
    (3) the placed regions form a (1 - eps)-cover of A; the ratio is the
        exact cover fraction.
    """
    eps = t.epsilon
    regions = []
    cond1_ok = True
    worst = Fraction(1)
    for tile, centers in zip(t.tiles, t.centers):
        A._require_same_group(tile)
        A._require_same_group(centers)
        translates = [translate(ctr, tile) for ctr in centers]
        placed = set().union(*(T.elements for T in translates))
        regions.append(placed)
        if not translates:
            continue
        if not placed <= A.elements:
            cond1_ok = False
            continue
        res = check_epsilon_disjoint(translates, eps)
        if not res.ok:
            cond1_ok = False
            continue
        for W, T in zip(res.witnesses, translates):
            worst = min(worst, Fraction(len(W), len(T)))

    overlap: set = set()
    union: set = set()
    for R in regions:
        overlap |= union & R
        union |= R
    cond2_ratio = Fraction(len(overlap), len(A))
    cond2_ok = not overlap

    cover_ratio = Fraction(len(union & A.elements), len(A))
    cond3_ok = cover_ratio >= 1 - eps

    conditions = (
        TilingCondition("tiles_inside_and_eps_disjoint", cond1_ok, worst),
        TilingCondition("classes_pairwise_disjoint", cond2_ok, cond2_ratio),
        TilingCondition("cover", cond3_ok, cover_ratio),
    )
    return TilingReport(conditions, cond1_ok and cond2_ok and cond3_ok)


class TilingFailed(Exception):
    """Greedy placement could not reach the required cover."""

    def __init__(self, message, cover=None):
        super().__init__(message)
        self.cover = cover


def _eroded(table, group, corner, full, T, free):
    """(1 << k, mask of cT) for each center c of A (bit k of full) with cT
    inside free, in increasing k, which is A's canonical order.  The bits
    are the erosion of free by T: the AND over t in T of free moved by
    t^-1, exact since every ct lies in the box.  cT is the tile at base, A's
    corner with torsion bit 0, moved up by k - k0 - s >= 0 bits; on ZxZ2 the
    torsion bit s of c is bit 0 of k and picks the tile at base*(0, s)."""
    odd = int(isinstance(group, ZCrossZ2))
    base = corner[:len(corner) - odd] + (0,) * odd
    k0 = table.get((base, 0))
    tile = table.mask(list(zip(*group.left_translate(base, T.elements))))
    tiles = [tile, group.shift(table, tile, (0, 1))][:1 + odd]
    evens = (4 ** (table.size >> 1) - 1) // 3 if odd else -1  # the bits s = 0
    fits = 0
    for s, m in enumerate(tiles):
        eroded = full & evens << s
        for d in (j - k0 - s for j in table.bits(m)):
            eroded &= free >> d if d >= 0 else free << -d
        fits |= eroded
    for k in table.bits(fits):
        yield 1 << k, tiles[k & odd] << k - k0 - (k & odd)


def greedy_quasi_tile(A: FiniteSubset, tiles, eps) -> QuasiTiling:
    """Greedy tiling: largest tiles first, centers scanned in canonical
    order; a center is accepted when its translate lies in A, misses every
    other tile's placed region, and overlaps its own class by strictly
    less than an eps fraction of the tile T, in fewer than ceil(eps |T|)
    cells.  On Z^d and ZxZ2 the sets are masks in the groups.box of A's
    translates by T_1 + ... + {e}, a translate is one shift, and only the
    centers that _eroded finds are tested; sets stay on the Heisenberg
    group, where ctr*T is a left translate and group.shift makes right
    ones, and where the box would hold more than 4 |A| cells.

    Raises TilingFailed when the placed regions do not reach a
    (1 - eps)-cover of A; on success the output provably passes
    check_quasi_tiling, which checks it on sets, and carries its report.
    """
    eps = _tiling_eps(eps)
    tiles = list(tiles)
    if not tiles:
        raise ValueError("need at least one tile")
    for T in tiles:
        A._require_same_group(T)
        if len(T) == 0:
            raise ValueError("tiles must be nonempty")
    if len(A) == 0:
        raise ValueError("target must be nonempty")

    group = A.group
    reach = [group.identity, *(h for T in tiles for h in T.elements)]
    columns = list(zip(*A.elements))
    table = None if isinstance(group, Heisenberg) else box(group, columns, reach, 4 * len(A))
    if table is None:
        full, count = set(A.elements), len
        candidates = lambda T, free: zip(A, map(group.left_translate, A, repeat(T.elements)))
    else:
        full, count = table.mask(columns), int.bit_count
        candidates = partial(_eroded, table, group, tuple(map(min, columns)), full)
    order = sorted(range(len(tiles)), key=lambda i: -len(tiles[i]))
    placed = [type(full)() for _ in tiles]  # empty sets or masks
    centers: list[list] = [[] for _ in tiles]  # elements or bits
    for i in order:
        free, own = full ^ reduce(or_, placed), placed[i]  # the others lie in A
        quota = ceil(eps * len(tiles[i]))
        for ctr, cells in candidates(tiles[i], free):
            inside = cells & free == cells if table else cells <= free
            if not inside or count(cells & own) >= quota:
                continue
            centers[i].append(ctr)
            own |= cells
        placed[i] = own

    cover = Fraction(count(reduce(or_, placed)), len(A))
    if cover < 1 - eps:
        raise TilingFailed(
            f"greedy cover {cover} below required {1 - eps}", cover=cover
        )
    tiling = QuasiTiling(
        tuple(tiles),
        tuple(FiniteSubset._raw(group, table.members(sum(cs)) if table else frozenset(cs))
              for cs in centers),
        eps,
    )
    report = check_quasi_tiling(A, tiling)
    if not report.passed:
        raise TilingFailed(f"greedy output rejected by checker: {report}")
    return replace(tiling, report=report)


@dataclass(frozen=True)
class Net:
    """Center set whose E-translates are disjoint; the F-translates are
    expected to cover the window (guaranteed when F contains E E^{-1})."""

    points: FiniteSubset
    base: FiniteSubset  # E
    cover: FiniteSubset  # F
    window: FiniteSubset
    covered: bool
    uncovered: FiniteSubset


def build_net(E: FiniteSubset, F: FiniteSubset, window: FiniteSubset) -> Net:
    """Greedy maximal subset of the window with pairwise disjoint
    E-translates (canonical scan order), plus a coverage check for F."""
    window._require_same_group(E)
    window._require_same_group(F)
    if len(E) == 0:
        raise ValueError("E must be nonempty")
    if window.group.identity not in window:
        raise ValueError("window must contain the identity")
    left = window.group.left_translate
    occupied: set = set()
    points = []
    for g in window:
        cells = left(g, E.elements)
        if cells & occupied:
            continue
        points.append(g)
        occupied |= cells
    pts = FiniteSubset._raw(window.group, frozenset(points))
    covered_cells: set = set()
    for g in points:
        covered_cells |= left(g, F.elements)
    uncovered = FiniteSubset._raw(
        window.group, frozenset(window.elements - covered_cells)
    )
    return Net(pts, E, F, window, len(uncovered) == 0, uncovered)


def net_density(net: Net, scheme, n: int) -> Fraction:
    """|F_n meet net points| / |F_n|; requires the window to contain F_n."""
    F_n = scheme.set_at(n)
    if not F_n.is_subset(net.window):
        raise ValueError(f"window too small for F_{n}")
    return Fraction(len(F_n.elements & net.points.elements), len(F_n))


def ow_upper_bound(M, eps, tile_ratios) -> Fraction:
    """M*eps + max(tile ratios)/(1 - eps), in exact rational arithmetic."""
    eps = _tiling_eps(eps)
    ratios = [Fraction(r) for r in tile_ratios]
    if not ratios:
        raise ValueError("need at least one tile ratio")
    return Fraction(M) * eps + max(ratios) / (1 - eps)
