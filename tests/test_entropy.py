import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrolen.crossed_product import parse_element, trivial_cocycle
from entrolen.entropy import (
    addition_check,
    certified_upper_bound,
    estimate,
    estimate_quotient,
    EntropyEstimate,
    integrality_report,
    RatioRow,
    zero_divisor_scan,
)
from entrolen.exact_linalg import PrimeField
from entrolen.folner import Boxes, BoxTimesZ2
from entrolen.groups import FiniteSubset, FreeAbelian, set_product, translate, ZCrossZ2
from entrolen.shift_modules import (
    bernoulli,
    cyclic_presentation,
    StabilizationConfig,
    SubshiftPresentation,
    trajectory_echelon,
)
from entrolen.tiling import build_net, TilingFailed

GF2 = PrimeField(2)
GF3 = PrimeField(3)
Z = FreeAbelian(1)
ZZ2 = ZCrossZ2()
CZ2 = trivial_cocycle(GF2, Z)
CZ3 = trivial_cocycle(GF3, Z)
CX3 = trivial_cocycle(GF3, ZZ2)
BOXES = Boxes(Z)
BOXZ2 = BoxTimesZ2(ZZ2)

T_MINUS_1 = parse_element(GF3, Z, "2*(0) + 1*(1)")
E_PLUS_S = parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")


def zero_sub(ambient):
    return SubshiftPresentation(ambient.cocycle, ambient.rank, ())


def test_bernoulli_ratios_exact():
    for rank in (1, 2, 3):
        est = estimate(bernoulli(CZ2, rank), BOXES, 8)
        assert all(row.ratio == rank for row in est.rows)
        assert est.estimate == rank


def test_half_ratio_subshift():
    est = estimate(cyclic_presentation(CX3, E_PLUS_S), BOXZ2, 10)
    assert all(row.ratio == Fraction(1, 2) for row in est.rows)


def test_quotient_estimates():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, T_MINUS_1)
    est = estimate_quotient(M, N, BOXES, 8)
    assert est.all_stabilized
    for row in est.rows:
        assert row.ratio == Fraction(1, 2 * row.n + 1)
    # M / 0 equals the plain estimate
    est0 = estimate_quotient(M, zero_sub(M), BOXES, 6)
    assert [r.ratio for r in est0.rows] == [r.ratio for r in estimate(M, BOXES, 6).rows]
    # half ratio survives in the quotient
    estx = estimate_quotient(
        bernoulli(CX3, 1), cyclic_presentation(CX3, E_PLUS_S), BOXZ2, 8
    )
    assert all(row.ratio == Fraction(1, 2) for row in estx.rows)


def test_certified_upper_bound_exact_value():
    cert = certified_upper_bound(bernoulli(CZ2, 1), BOXES, Fraction(1, 10), [5], 5)
    assert cert.bound == Fraction(109, 90)
    assert (cert.checked_from, cert.checked_to) == (5, 5)
    tighter = certified_upper_bound(bernoulli(CZ2, 1), BOXES, Fraction(1, 100), [5], 5)
    assert tighter.bound == Fraction(1, 100) + Fraction(100, 99)
    assert tighter.bound < cert.bound


def test_certified_upper_bound_dominates_estimates():
    cases = [
        (bernoulli(CZ2, 1), BOXES),
        (bernoulli(CZ2, 3), BOXES),
        (bernoulli(CX3, 1), BOXZ2),
        (cyclic_presentation(CZ3, T_MINUS_1), BOXES),
        (cyclic_presentation(CX3, E_PLUS_S), BOXZ2),
    ]
    for pres, scheme in cases:
        est = estimate(pres, scheme, 10)
        cert = certified_upper_bound(pres, scheme, Fraction(1, 10), [2], 2)
        assert cert.bound >= est.estimate


def test_certified_upper_bound_reports_tiling_failure():
    # a lone big tile cannot reach a 9/10 cover of the n=6 window
    with pytest.raises(TilingFailed):
        certified_upper_bound(bernoulli(CZ2, 1), BOXES, Fraction(1, 10), [5], 6)


def test_addition_check_polynomial_pair():
    rep = addition_check(
        bernoulli(CZ3, 1),
        cyclic_presentation(CZ3, T_MINUS_1),
        BOXES,
        10,
        Fraction(1, 10),
    )
    assert rep.passed and rep.lower_bound_ok_all
    assert rep.e_total == 1 and rep.e_sub == 1
    assert rep.e_quotient == Fraction(1, 21)
    assert rep.discrepancy == -Fraction(1, 21)
    for w in rep.windows:
        assert w.dim_total == w.dim_intersection + w.dim_image


def test_addition_check_exact_split():
    rep = addition_check(
        bernoulli(CX3, 1),
        cyclic_presentation(CX3, E_PLUS_S),
        BOXZ2,
        8,
        Fraction(1, 20),
    )
    assert rep.passed
    assert rep.discrepancy == 0
    assert rep.e_sub == Fraction(1, 2) and rep.e_quotient == Fraction(1, 2)


def test_addition_check_trivial_pairs():
    M = bernoulli(CZ2, 1)
    rep0 = addition_check(M, zero_sub(M), BOXES, 6, Fraction(1, 20))
    assert rep0.passed and rep0.discrepancy == 0
    repM = addition_check(M, M, BOXES, 6, Fraction(1, 20))
    assert repM.passed and repM.discrepancy == 0


def test_addition_check_propagates_budget_flag():
    rep = addition_check(
        bernoulli(CZ3, 1),
        cyclic_presentation(CZ3, T_MINUS_1),
        BOXES,
        4,
        Fraction(1, 10),
        StabilizationConfig(stability_window=3, max_steps=0),
    )
    assert not rep.all_stabilized


def test_zero_divisor_scan_order_two():
    rep = zero_divisor_scan(E_PLUS_S, CX3, BOXZ2, 8, 6)
    assert rep.verdict == "zero-divisor"
    assert rep.is_zero_divisor
    from entrolen.crossed_product import format_element

    assert format_element(rep.witness) == "1*(0,0) + 2*(0,1)"
    assert rep.submodule.estimate == Fraction(1, 2)
    assert rep.quotient.estimate == Fraction(1, 2)
    assert rep.integrality == Fraction(1, 2)


def test_zero_divisor_scan_domain_control():
    rep = zero_divisor_scan(T_MINUS_1, CZ3, BOXES, 8, 10)
    assert rep.verdict == "no evidence up to budget"
    assert rep.witness is None
    assert all(r.ratio == 1 for r in rep.submodule.rows)
    assert all(r.ratio == Fraction(1, 2 * r.n + 1) for r in rep.quotient.rows)
    assert rep.integrality == 0


def test_zero_divisor_scan_unit():
    unit = parse_element(GF3, Z, "2*(0)")
    rep = zero_divisor_scan(unit, CZ3, BOXES, 5, 4)
    assert rep.verdict == "no evidence up to budget"
    assert [r.ratio for r in rep.submodule.rows] == [
        r.ratio for r in estimate(bernoulli(CZ3, 1), BOXES, 5).rows
    ]


def test_zero_divisor_scan_rejects_zero():
    from entrolen.crossed_product import CrossedElement

    with pytest.raises(ValueError):
        zero_divisor_scan(CrossedElement.zero(GF3, Z), CZ3, BOXES, 3, 2)


def test_integrality_report():
    def fake(est):
        return EntropyEstimate((RatioRow(1, 1, 0, est),), est)

    assert integrality_report(fake(Fraction(3))) == 0
    assert integrality_report(fake(Fraction(1, 2))) == Fraction(1, 2)
    assert integrality_report(fake(Fraction(40, 41))) == Fraction(1, 41)
    assert integrality_report(fake(Fraction(5, 4))) == Fraction(1, 4)


def test_window_ratios_bounded_by_net_count():
    """Disjoint net translates force dim T_F >= |F_n meet net| for a
    single generator, giving the positive-entropy lower bound."""
    cases = [
        (cyclic_presentation(CZ3, parse_element(GF3, Z, "1*(0) + 1*(1)")), BOXES, Z),
        (cyclic_presentation(CX3, E_PLUS_S), BOXZ2, ZZ2),
    ]
    for pres, scheme, group in cases:
        supp = pres.generators[0]
        E = FiniteSubset(group, [g for (g, _) in supp])
        F = set_product(E, E.inverse())
        window = scheme.set_at(14) if group is Z else scheme.set_at(14)
        net = build_net(E, F, window)
        for n in range(1, 9):
            Fn = scheme.set_at(n)
            count = len(Fn.elements & net.points.elements)
            assert trajectory_echelon(pres, Fn).dim >= count


def test_estimate_monotone_for_nested_generators():
    """When the submodule generators lie in the span of the ambient
    generators, window ratios are monotone under submodule and quotient."""
    rng = random.Random(31)
    M = bernoulli(CZ3, 2)
    for _ in range(15):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            vec = {}
            for j in range(2):
                ccoef = rng.randrange(3)
                if ccoef:
                    vec[((0,), j)] = ccoef
            if vec:
                gens.append(vec)
        if not gens:
            continue
        N = SubshiftPresentation(CZ3, 2, gens)
        n_max = 4
        est_M = estimate(M, BOXES, n_max)
        est_N = estimate(N, BOXES, n_max)
        est_Q = estimate_quotient(M, N, BOXES, n_max)
        for rm, rn, rq in zip(est_M.rows, est_N.rows, est_Q.rows):
            assert rn.ratio <= rm.ratio
            assert rq.ratio <= rm.ratio


def test_zero_module_estimate():
    M = bernoulli(CZ2, 1)
    est = estimate_quotient(M, M, BOXES, 6)
    assert all(r.ratio == 0 for r in est.rows)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate(bernoulli(CZ2, 1), BOXES, 0)
    with pytest.raises(ValueError):
        estimate(bernoulli(CX3, 1), BOXES, 3)  # scheme group mismatch


def test_bernoulli_exactness_beyond_abelian_and_over_q():
    from entrolen.exact_linalg import RationalField
    from entrolen.folner import WordBalls
    from entrolen.groups import Heisenberg

    heis = Heisenberg()
    est = estimate(
        bernoulli(trivial_cocycle(GF2, heis), 1), WordBalls(heis), 4
    )
    assert all(row.ratio == 1 for row in est.rows)
    est_q = estimate(bernoulli(trivial_cocycle(RationalField(), Z), 2), BOXES, 5)
    assert all(row.ratio == 2 for row in est_q.rows)


COEFFS = {
    "gf2": [1],
    "gf3": [1, 2],
    "gf4": [1, 2, 3],
    "gf5": [1, 2, 4],
    "q": [Fraction(1), Fraction(-1), Fraction(2, 3)],
}


def _random_presentation(rng, cocycle, rank, support):
    count = rng.randint(1, 2)
    gens = []
    while len(gens) < count:
        vec = {
            (g, j): rng.choice(COEFFS[cocycle.field.name])
            for g in rng.sample(support, rng.randint(1, 3))
            for j in range(rank)
            if rng.random() < 0.7
        }
        if vec:
            gens.append(vec)
    return SubshiftPresentation(cocycle, rank, gens)


def test_addition_check_window_dims_match_rebuilt_windows():
    """dim T_F(N), dim(T_F(M) meet T_F(N)) and the final intersection
    dim(T_F(M) meet T_E(N)), E = ball(steps) * F, read from the quotient
    split, equal the trajectories rebuilt and intersected from scratch."""
    from entrolen.crossed_product import frobenius_cocycle
    from entrolen.exact_linalg import intersect, QuadraticField, RationalField, Subspace
    from entrolen.folner import default_scheme
    from entrolen.groups import ball, Heisenberg
    from entrolen.shift_modules import _quotient_split

    rng = random.Random(41)
    cases = [
        (trivial_cocycle(GF2, FreeAbelian(2)), 2),
        (trivial_cocycle(GF3, ZZ2), 3),
        (frobenius_cocycle(QuadraticField(2), Z), 3),
        (trivial_cocycle(RationalField(), Heisenberg()), 1),
    ]
    windows = 0
    for cocycle, n_max in cases:
        scheme = default_scheme(cocycle.group)
        support = ball(cocycle.group, 1).sorted_elements()
        for _ in range(4):
            rank = rng.randint(1, 2)
            M = _random_presentation(rng, cocycle, rank, support)
            N = _random_presentation(rng, cocycle, rank, support)
            rep = addition_check(M, N, scheme, n_max, Fraction(1))
            for w in rep.windows:
                F = scheme.set_at(w.n)
                assert w.dim_sub == trajectory_echelon(N, F).dim
                T = Subspace.from_echelon(trajectory_echelon(M, F))
                split = _quotient_split(M, N, F)
                assert split.dim_window_meet == intersect(
                    T, Subspace.from_echelon(trajectory_echelon(N, F))
                ).dim
                E = set_product(ball(cocycle.group, split.steps), F)
                assert split.dim_intersection == intersect(
                    T, Subspace.from_echelon(trajectory_echelon(N, E))
                ).dim
                windows += 1
    assert windows == 4 * (2 + 3 + 3 + 1)


class _BoxesAndHalfLines:
    """F_n = [-n, n] for even n and [0, n] for odd n on Z: every odd
    window from F_3 on fails to contain its predecessor."""

    group = Z

    def set_at(self, n):
        lo = -n if n % 2 == 0 else 0
        return FiniteSubset(Z, [(k,) for k in range(lo, n + 1)])


class _ShiftedBoxes:
    """Boxes on Z^2, with F_n moved by (n, 0) for odd n: F_2 contains F_1,
    and no later window contains its predecessor."""

    group = FreeAbelian(2)

    def set_at(self, n):
        return translate((n % 2 * n, 0), Boxes(self.group).set_at(n))


class _HalfLinesTimesZ2:
    """_BoxesAndHalfLines times {0, 1} on ZxZ2."""

    group = ZZ2

    def set_at(self, n):
        line = _BoxesAndHalfLines().set_at(n)
        return FiniteSubset(ZZ2, [(k, t) for (k,) in line for t in (0, 1)])


class _FarBoxes:
    """Boxes on Z^2 moved by (10^8, -10^8)."""

    group = FreeAbelian(2)

    def set_at(self, n):
        return translate((10**8, -(10**8)), Boxes(self.group).set_at(n))


def test_estimate_dims_equal_per_window_trajectories():
    """The dims that estimate reads off one echelon grown across windows
    equal the trajectories rebuilt per window, nested scheme or not."""
    from entrolen.crossed_product import frobenius_cocycle
    from entrolen.exact_linalg import QuadraticField, RationalField
    from entrolen.folner import default_scheme
    from entrolen.groups import ball, Heisenberg

    rng = random.Random(47)
    cases = [
        (trivial_cocycle(GF2, FreeAbelian(2)), None, 4),
        (trivial_cocycle(GF3, ZZ2), None, 5),
        (frobenius_cocycle(QuadraticField(2), Z), None, 6),
        (trivial_cocycle(RationalField(), Heisenberg()), None, 3),
        (trivial_cocycle(GF3, Z), _BoxesAndHalfLines(), 7),
        (trivial_cocycle(GF2, Z), _BoxesAndHalfLines(), 7),
        (trivial_cocycle(GF2, FreeAbelian(2)), _ShiftedBoxes(), 4),
        (frobenius_cocycle(QuadraticField(2), ZZ2), None, 5),
        (trivial_cocycle(GF3, ZZ2), _HalfLinesTimesZ2(), 7),
    ]
    for cocycle, scheme, n_max in cases:
        scheme = scheme or default_scheme(cocycle.group)
        support = ball(cocycle.group, 1).sorted_elements()
        for _ in range(3):
            p = _random_presentation(rng, cocycle, rng.randint(1, 2), support)
            rows = estimate(p, scheme, n_max).rows
            assert [(r.n, r.folner_size, r.dim) for r in rows] == [
                (n, len(scheme.set_at(n)), trajectory_echelon(p, scheme.set_at(n)).dim)
                for n in range(1, n_max + 1)
            ]


@pytest.mark.parametrize("kernel", ["rank_echelon", "dict"])
def test_splits_equal_fresh_single_window_splits(monkeypatch, kernel):
    """Every window of _splits, which packs each translate once per run and
    grows T across nested windows, equals a fresh single-window
    _quotient_split of the same F: on every field and group, under both
    budgets, on nested schemes and on schemes that restart T."""
    from entrolen import shift_modules
    from entrolen.crossed_product import frobenius_cocycle
    from entrolen.entropy import _splits
    from entrolen.exact_linalg import Echelon, QuadraticField, RationalField
    from entrolen.folner import default_scheme
    from entrolen.groups import ball, Heisenberg
    from entrolen.shift_modules import _quotient_split

    if kernel == "dict":
        monkeypatch.setattr(shift_modules, "rank_echelon", Echelon)
    rng = random.Random(59)
    groups = ((Z, 6), (FreeAbelian(2), 2), (ZZ2, 4), (Heisenberg(), 2))
    cocycles = (
        lambda G: trivial_cocycle(GF2, G),
        lambda G: trivial_cocycle(GF3, G),
        lambda G: frobenius_cocycle(QuadraticField(2), G),
        lambda G: trivial_cocycle(PrimeField(5), G),
        lambda G: trivial_cocycle(RationalField(), G),
    )
    cases = [(make(G), default_scheme(G), n_max) for G, n_max in groups for make in cocycles]
    cases += [
        (trivial_cocycle(GF3, Z), _BoxesAndHalfLines(), 7),
        (trivial_cocycle(GF2, FreeAbelian(2)), _ShiftedBoxes(), 4),
        (trivial_cocycle(RationalField(), FreeAbelian(2)), _ShiftedBoxes(), 4),
    ]
    budgets = (None, StabilizationConfig(stability_window=2, max_steps=1))
    restarts = 0
    for cocycle, scheme, n_max in cases:
        support = ball(cocycle.group, 1).sorted_elements()
        windows = [scheme.set_at(n) for n in range(1, n_max + 1)]
        restarts += sum(not a.elements <= b.elements for a, b in zip(windows, windows[1:]))
        for approx in budgets:
            rank = rng.randint(1, 2)
            M = _random_presentation(rng, cocycle, rank, support)
            sub = _random_presentation(rng, cocycle, rank, support)
            for N in (sub, M, zero_sub(M)) if approx is None else (sub,):
                assert _splits(M, N, scheme, n_max, approx) == [
                    (n, len(F), _quotient_split(M, N, F, approx))
                    for n, F in enumerate(windows, start=1)
                ]
    # F_3, F_5 and F_7 of _BoxesAndHalfLines, F_3 and F_4 of each _ShiftedBoxes
    assert restarts == 3 + 2 + 2


def _act_and_pack_rows(monkeypatch, p, scheme, n_max):
    """The rows of estimate with every box refused, so that each translate
    goes through act + pack."""
    from entrolen import entropy

    with monkeypatch.context() as m:
        m.setattr(entropy, "_box_rows", lambda p, window: None)
        return estimate(p, scheme, n_max).rows


def test_far_supports_and_windows_match_act_and_pack(monkeypatch):
    """A generator support 10^8 wide gets no box and stays on act + pack; a
    support or a window 10^8 from the identity gets a box as small as at the
    identity, since the box is the hull of the window plus that of the
    support.  Each prints the rows of act + pack."""
    from entrolen.entropy import _box_rows

    far = 10**8
    Z2 = FreeAbelian(2)
    wide = SubshiftPresentation(
        trivial_cocycle(GF2, Z2), 1, [{((0, 0), 0): 1, ((0, far), 0): 1}]
    )
    moved = SubshiftPresentation(CZ3, 1, [{((far,), 0): 1, ((far + 1,), 0): 2}])
    near = SubshiftPresentation(
        trivial_cocycle(GF2, Z2), 2, [{((0, 0), 0): 1, ((1, -1), 1): 1}]
    )
    cases = [
        (wide, Boxes(Z2), 5, None),
        (moved, BOXES, 6, 2 * 6 + 2),
        (near, _FarBoxes(), 4, 10 * 10),
    ]
    for p, scheme, n_max, cells in cases:
        box = _box_rows(p, lambda: scheme.set_at(n_max))
        if cells is None:
            assert box is None
        else:
            lo, hi = box.root.bits.lo, box.root.bits.hi
            assert math.prod(b - a + 1 for a, b in zip(lo, hi)) == cells
        rows = estimate(p, scheme, n_max).rows
        assert rows == _act_and_pack_rows(monkeypatch, p, scheme, n_max)
        assert [r.dim for r in rows] == [
            trajectory_echelon(p, scheme.set_at(n)).dim for n in range(1, n_max + 1)
        ]


def test_window_outside_the_box_restarts_in_a_box_that_covers_it(monkeypatch):
    """On _ShiftedBoxes the box of F_4 covers F_1 and F_2 but not F_3,
    which moved by (3, 0), and the box of F_3 does not cover F_4: estimate
    asks for a box of F_4, of F_3 and of F_4 again, and for no other.  A
    support 25 wide fits the box of F_4 but not that of F_3, so the run
    goes on through act + pack from F_3 on and asks for no more boxes."""
    from entrolen import entropy

    asked = []
    real = entropy._box_rows

    def spy(p, window):
        asked.append(window())
        return real(p, window)

    monkeypatch.setattr(entropy, "_box_rows", spy)
    scheme = _ShiftedBoxes()
    p = bernoulli(trivial_cocycle(GF2, scheme.group), 1)
    assert [r.dim for r in estimate(p, scheme, 4).rows] == [9, 25, 49, 81]
    assert asked == [scheme.set_at(4), scheme.set_at(3), scheme.set_at(4)]
    asked.clear()
    wide = SubshiftPresentation(p.cocycle, 1, [{((0, 0), 0): 1, ((25, 0), 0): 1}])
    assert [r.dim for r in estimate(wide, scheme, 4).rows] == [
        trajectory_echelon(wide, scheme.set_at(n)).dim for n in range(1, 5)
    ]
    assert asked == [scheme.set_at(4), scheme.set_at(3)]


@st.composite
def _drawn_presentations(draw):
    """A presentation on Z, Z^2 or ZxZ2 over GF(2), GF(3), GF(4) or GF(4)
    with the Frobenius twist, at rank 1-2, with 1-3 generators of 1-3 terms
    at offsets up to 10 from the identity, and a window count n_max."""
    from entrolen.crossed_product import CocycleData
    from entrolen.exact_linalg import QuadraticField

    group = draw(st.sampled_from((Z, FreeAbelian(2), ZZ2)))
    GF4 = QuadraticField(2)
    field, frobenius = draw(st.sampled_from(((GF2, False), (GF3, False), (GF4, False), (GF4, True))))
    rank = draw(st.integers(1, 2))
    offsets = st.integers(-10, 10)
    element = st.tuples(offsets, st.integers(0, 1)) if group == ZZ2 else st.tuples(
        *(offsets for _ in group.identity))
    term = st.tuples(st.tuples(element, st.integers(0, rank - 1)),
                     st.sampled_from(field.elements()[1:]))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3).map(dict), min_size=1, max_size=3))
    p = SubshiftPresentation(CocycleData(field, group, frobenius), rank, gens)
    return p, draw(st.integers(1, 4))


@settings(deadline=None)
@given(_drawn_presentations())
def test_estimate_rows_agree_with_the_table_packer_and_the_dict_kernel(case):
    """Three routes to dim T_{F_n} agree on drawn presentations: estimate's
    rows (box shifts where _box_rows grants a box), the rows with every box
    refused (the table packer), and the dims of trajectory_echelon, the
    dict kernel on act's vectors."""
    from entrolen import entropy
    from entrolen.folner import default_scheme

    p, n_max = case
    scheme = default_scheme(p.group)
    rows = estimate(p, scheme, n_max).rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(entropy, "_box_rows", lambda p, window: None)
        assert estimate(p, scheme, n_max).rows == rows
    assert [r.dim for r in rows] == [
        trajectory_echelon(p, scheme.set_at(n)).dim for n in range(1, n_max + 1)
    ]


def test_certified_tile_ratios_equal_per_tile_trajectories():
    """The tile ratios of certified_upper_bound, read off the shift-packed
    box rows, equal the dims of the dict-kernel trajectory_echelon per tile."""
    from entrolen.groups import ball

    rng = random.Random(67)
    cases = [
        (trivial_cocycle(GF2, FreeAbelian(2)), Boxes(FreeAbelian(2))),
        (CX3, BOXZ2),
    ]
    for cocycle, scheme in cases:
        support = ball(cocycle.group, 1).sorted_elements()
        for _ in range(4):
            p = _random_presentation(rng, cocycle, rng.randint(1, 3), support)
            cert = certified_upper_bound(p, scheme, Fraction(1, 10), [1, 2, 3], 3)
            tiles = [scheme.set_at(i) for i in (1, 2, 3)]
            assert cert.tile_ratios == tuple(
                Fraction(trajectory_echelon(p, F).dim, len(F)) for F in tiles
            )


def test_estimate_quotient_checks_the_split_on_every_window(monkeypatch):
    """An image route that disagrees on window 2 of 4 stops the run there
    with RuntimeError: the identity dim_total = intersection + image is
    checked per window, not on the last one only."""
    from entrolen import entropy
    from entrolen.exact_linalg import BitEchelon

    calls = []
    split = entropy._quotient_split

    def counted(*args):
        calls.append(len(args[2]))
        return split(*args)

    reduce = BitEchelon.reduce
    monkeypatch.setattr(entropy, "_quotient_split", counted)
    # on window 2 the M translates reach the image unreduced modulo V
    monkeypatch.setattr(
        BitEchelon, "reduce", lambda ech, x: x if len(calls) == 2 else reduce(ech, x)
    )
    M, N = bernoulli(CZ3, 1), cyclic_presentation(CZ3, T_MINUS_1)
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        estimate_quotient(M, N, BOXES, 4)
    assert calls == [3, 5]
    monkeypatch.setattr(BitEchelon, "reduce", reduce)
    assert len(estimate_quotient(M, N, BOXES, 4).rows) == 4


def test_stability_window_does_not_move_quotient_dims():
    """On random rank-2 GF(2)[Z] presentations the split stops at the same
    dims with stability windows 3 and 15, both stabilized; with no growth
    budget it stops at E_0 = F, unstabilized, with an upper-bound image."""
    from entrolen.shift_modules import _quotient_split

    rng = random.Random(53)
    support = [(k,) for k in range(-2, 3)]
    for _ in range(30):
        M = _random_presentation(rng, CZ2, 2, support)
        N = _random_presentation(rng, CZ2, 2, support)
        F = BOXES.set_at(rng.randint(1, 5))
        short, long_, none = (
            _quotient_split(M, N, F, StabilizationConfig(stability_window=w, max_steps=m))
            for w, m in ((3, 30), (15, 30), (3, 0))
        )
        assert short.stabilized and long_.stabilized
        assert short.steps >= 3 and long_.steps >= 15
        assert (short.dim_intersection, short.dim_image) == (
            long_.dim_intersection,
            long_.dim_image,
        )
        assert not none.stabilized and none.steps == 0
        assert none.dim_intersection == none.dim_window_meet == short.dim_window_meet
        assert none.dim_sub == short.dim_sub
        assert none.dim_image >= short.dim_image


def test_zero_divisor_scan_submodule_rows_are_the_estimate():
    for x, cocycle, scheme in ((E_PLUS_S, CX3, BOXZ2), (T_MINUS_1, CZ3, BOXES)):
        rep = zero_divisor_scan(x, cocycle, scheme, 6, 2)
        sub = cyclic_presentation(cocycle, x)
        assert rep.submodule.rows == estimate(sub, scheme, 6).rows
        assert rep.quotient.rows == estimate_quotient(
            bernoulli(cocycle, 1), sub, scheme, 6
        ).rows


def test_addition_check_validation():
    M = bernoulli(CZ3, 1)
    with pytest.raises(ValueError, match="n_max"):
        addition_check(M, M, BOXES, 0, Fraction(1, 20))
    with pytest.raises(ValueError, match="scheme group"):
        addition_check(M, M, BOXZ2, 3, Fraction(1, 20))
