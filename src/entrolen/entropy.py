"""Trajectory-entropy estimation along Folner schemes, certified upper
bounds via quasi-tilings, additivity checks, and zero-divisor scanning.

Estimates report the full trajectory of exact window ratios and take the
last ratio as the headline number; no extrapolation is performed and no
limit is ever claimed.  A certified upper bound is conditional on the
tilings actually verified, and the verified range is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .crossed_product import CrossedElement, find_annihilator
from .exact_linalg import _ROW_FORMATS, BitEchelon, rank_echelon
from .folner import nested_sets
from .groups import box, FreeAbelian, ZCrossZ2
from .shift_modules import (
    _Packer,
    _quotient_split,
    _SplitRows,
    bernoulli,
    cyclic_presentation,
    StabilizationConfig,
    SubshiftPresentation,
)
from .tiling import (
    _tiling_eps,
    greedy_quasi_tile,
    ow_upper_bound,
)


@dataclass(frozen=True)
class RatioRow:
    n: int
    folner_size: int
    dim: int
    ratio: Fraction


@dataclass(frozen=True)
class EntropyEstimate:
    rows: tuple
    estimate: Fraction
    exhausted: tuple = ()  # (n, |F_n|, steps) of each unstabilized window

    @property
    def all_stabilized(self) -> bool:
        return not self.exhausted


def _check_scheme(p: SubshiftPresentation, scheme):
    if scheme.group != p.group:
        raise ValueError("scheme group does not match the presentation")


def _windows(p: SubshiftPresentation, scheme, n_max: int):
    """The windows (n, F_n), n = 1..n_max, after checking the arguments."""
    _check_scheme(p, scheme)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return islice(nested_sets(scheme, n_max), 1, None)


def _estimate(dims, exhausted: tuple = ()) -> EntropyEstimate:
    """The estimate of (n, |F_n|, dim) triples, headed by the last ratio."""
    rows = tuple(RatioRow(n, size, dim, Fraction(dim, size)) for n, size, dim in dims)
    return EntropyEstimate(rows, rows[-1].ratio, exhausted)


def _box_rows(p: SubshiftPresentation, window):
    """The box _Packer of p for the windows inside the hull of window(), or
    None: off Z^d and ZxZ2, for a caller-supplied rho, off _ROW_FORMATS,
    and where the groups.box of window()'s translates by the generator
    supports would hold more than 4 |window()| cells, as a generator term
    far out makes it."""
    group = p.group
    shiftable = isinstance(group, (FreeAbelian, ZCrossZ2)) and p.field in _ROW_FORMATS
    if not shiftable or p.cocycle.rho is not None:
        return None
    W = window().elements
    columns, support = list(zip(*W)), [h for v in p.generators for h, _ in v]
    root = box(group, columns, support, 4 * len(W), p.rank)
    if root is None:
        return None
    free = columns[:1 if isinstance(group, ZCrossZ2) else group.dim]
    return _Packer(p, BitEchelon(p.field, root), (tuple(map(min, free)), tuple(map(max, free))))


def _trajectory_dims(p: SubshiftPresentation, windows, largest):
    """(n, |F|, dim T_F) for each (n, F), from one echelon grown by each
    window's new elements (exact: the rank depends only on the row space);
    a window not containing the previous one restarts from an empty echelon.

    The rows come from one _Packer, the box packer of largest(), the
    largest window, where _box_rows grants that box, else the table
    packer.  A window whose new elements leave the box restarts the
    echelon in a packer of its own, so no row ever wraps."""

    def packer(window):
        return _box_rows(p, window) or _Packer(p, rank_echelon(p.field))

    rows, ech, prev = packer(largest), None, frozenset()
    for n, F in windows:
        new = F.elements - prev
        if not rows.covers(new):
            rows, ech = packer(lambda: F), None
        if ech is None or not prev <= F.elements:
            ech, new = rows.root.sibling(), F.elements
        for x in rows.translates(new):
            ech.add(x)
        prev = F.elements
        yield n, len(F), ech.dim


def estimate(p: SubshiftPresentation, scheme, n_max: int) -> EntropyEstimate:
    """Exact ratios dim T_{F_n} / |F_n| for n = 1..n_max."""
    windows = _windows(p, scheme, n_max)
    return _estimate(_trajectory_dims(p, windows, lambda: scheme.set_at(n_max)))


def _splits(M, N, scheme, n_max, approx) -> list:
    """(n, |F_n|, SesDims) for every window of the quotient of M by N,
    from one _SplitRows: each translate is packed once per run, and T, V
    and T + V grow across nested windows."""
    rows = _SplitRows(M, N)
    return [
        (n, len(F), _quotient_split(M, N, F, approx, rows))
        for n, F in _windows(M, scheme, n_max)
    ]


def _exhausted(splits) -> tuple:
    """(n, |F_n|, steps) of the windows whose N approximation ran out of
    max_steps before stabilizing."""
    return tuple((n, size, s.steps) for n, size, s in splits if not s.stabilized)


def _quotient_estimate(splits) -> EntropyEstimate:
    return _estimate(
        ((n, size, s.dim_image) for n, size, s in splits), _exhausted(splits)
    )


def estimate_quotient(
    M: SubshiftPresentation,
    N: SubshiftPresentation,
    scheme,
    n_max: int,
    approx: StabilizationConfig | None = None,
) -> EntropyEstimate:
    """Window ratios of the quotient by the submodule presented by N.

    Until stabilization each quotient dimension is an upper bound; the
    all_stabilized flag records whether any window ran out of budget.
    """
    return _quotient_estimate(_splits(M, N, scheme, n_max, approx))


@dataclass(frozen=True)
class CertifiedBound:
    bound: Fraction
    eps: Fraction
    tile_indices: tuple
    tile_ratios: tuple
    checked_from: int
    checked_to: int


def certified_upper_bound(
    p: SubshiftPresentation,
    scheme,
    eps,
    tile_indices,
    n_check: int,
) -> CertifiedBound:
    """Tile-ratio upper bound, conditional on verified tilings.

    The windows F_n for n from max(tile_indices) to n_check must each be
    greedily tileable by the chosen Folner sets at the given eps;
    greedy_quasi_tile runs the independent checker on every construction,
    and its TilingFailed propagates.  The bound is

        coeff_dim * eps + max_i (dim T_{F_{n_i}} / |F_{n_i}|) / (1 - eps)

    and the verified window range is recorded in the result.
    """
    eps = _tiling_eps(eps)
    _check_scheme(p, scheme)
    indices = tuple(sorted(set(int(i) for i in tile_indices)))
    if not indices:
        raise ValueError("need at least one tile index")
    if n_check < max(indices):
        raise ValueError("n_check (--ncheck) must reach the largest tile index")
    tiles = [scheme.set_at(i) for i in indices]
    checked_from = max(indices)
    for n in range(checked_from, n_check + 1):
        greedy_quasi_tile(scheme.set_at(n), tiles, eps)
    coeff_dim = p.coefficient_span().dim
    dims = _trajectory_dims(p, zip(indices, tiles), lambda: tiles[-1])
    ratios = [Fraction(dim, size) for _, size, dim in dims]
    bound = ow_upper_bound(coeff_dim, eps, ratios)
    return CertifiedBound(bound, eps, indices, tuple(ratios), checked_from, n_check)


@dataclass(frozen=True)
class AdditionWindow:
    n: int
    folner_size: int
    dim_total: int
    dim_sub: int
    dim_intersection: int
    dim_image: int
    lower_bound_ok: bool
    stabilized: bool


@dataclass(frozen=True)
class AdditionReport:
    windows: tuple
    e_total: Fraction
    e_sub: Fraction
    e_quotient: Fraction
    discrepancy: Fraction
    tolerance: Fraction
    lower_bound_ok_all: bool
    exhausted: tuple  # (n, |F_n|, steps) of each unstabilized window
    passed: bool

    @property
    def all_stabilized(self) -> bool:
        return not self.exhausted


def addition_check(
    M: SubshiftPresentation,
    N: SubshiftPresentation,
    scheme,
    n_max: int,
    tol,
    approx: StabilizationConfig | None = None,
) -> AdditionReport:
    """Compare e(M) against e(N) + e(M/N) at n_max and verify, window by
    window, the lower-bound inequality

        dim_total >= dim(T_F(N) meet T_F(M)) + dim_image,

    which holds because the left intersection sits inside T_F(M) meet N.
    When the span of N's generators lies in the span of M's generators the
    classical form dim_total >= dim_sub + dim_image is asserted as well.
    The exact splitting dim_total = dim_intersection + dim_image needs no
    check here: _quotient_split raises when it fails.
    """
    tol = Fraction(tol)
    if tol < 0:
        raise ValueError("tol must be >= 0")
    coeff_M = M.coefficient_span()
    gens_inside = all(coeff_M.contains(w) for w in N.generators)
    windows = []
    splits = _splits(M, N, scheme, n_max, approx)
    for n, size, s in splits:
        lower_bound_ok = s.dim_total >= s.dim_window_meet + s.dim_image
        if gens_inside:
            lower_bound_ok = lower_bound_ok and s.dim_total >= s.dim_sub + s.dim_image
        windows.append(
            AdditionWindow(
                n,
                size,
                s.dim_total,
                s.dim_sub,
                s.dim_intersection,
                s.dim_image,
                lower_bound_ok,
                s.stabilized,
            )
        )
    last = windows[-1]
    e_total = Fraction(last.dim_total, last.folner_size)
    e_sub = Fraction(last.dim_sub, last.folner_size)
    e_quotient = Fraction(last.dim_image, last.folner_size)
    discrepancy = e_total - e_sub - e_quotient
    return AdditionReport(
        tuple(windows),
        e_total,
        e_sub,
        e_quotient,
        discrepancy,
        tol,
        all(w.lower_bound_ok for w in windows),
        _exhausted(splits),
        abs(discrepancy) <= tol,
    )


def integrality_report(e: EntropyEstimate) -> Fraction:
    """Distance from the estimate to the nearest nonnegative integer."""
    est = e.estimate
    if est < 0:
        raise ValueError("estimates are nonnegative")
    lo = est.numerator // est.denominator
    return min(est - lo, lo + 1 - est)


@dataclass(frozen=True)
class ZeroDivisorReport:
    verdict: str  # "zero-divisor" or "no evidence up to budget"
    witness: CrossedElement | None
    submodule: EntropyEstimate
    quotient: EntropyEstimate
    integrality: Fraction
    window_radius: int

    @property
    def is_zero_divisor(self) -> bool:
        return self.witness is not None


def zero_divisor_scan(
    x: CrossedElement,
    cocycle,
    scheme,
    n_max: int,
    window_radius: int,
    approx: StabilizationConfig | None = None,
) -> ZeroDivisorReport:
    """Scan a nonzero ring element for zero-divisor behaviour.

    The verdict is "zero-divisor" exactly when an annihilator witness is
    found on the window (and verified by multiplication); the entropy
    trajectories of the principal submodule and its quotient are reported
    as corroborating evidence, never as proof.
    """
    if x.is_zero():
        raise ValueError("x must be nonzero")
    sub = cyclic_presentation(cocycle, x)
    splits = _splits(bernoulli(cocycle, 1), sub, scheme, n_max, approx)
    est_sub = _estimate((n, size, s.dim_sub) for n, size, s in splits)
    est_quot = _quotient_estimate(splits)
    witness = find_annihilator(x, cocycle, window_radius)
    verdict = "zero-divisor" if witness is not None else "no evidence up to budget"
    return ZeroDivisorReport(
        verdict,
        witness,
        est_sub,
        est_quot,
        integrality_report(est_sub),
        window_radius,
    )
