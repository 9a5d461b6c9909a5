"""End-to-end acceptance suite.

Each test prints one pass/fail line (visible under pytest -s); stated
runtime budgets are asserted with perf counters.  Randomized property
sweeps are seeded (ENTROLEN_SEED overrides) and run at least 200 cases
per property.
"""

import os
import random
import time
from fractions import Fraction

from entrolen.crossed_product import (
    act,
    CocycleData,
    format_element,
    frobenius_cocycle,
    multiply,
    parse_element,
    trivial_cocycle,
    validate_cocycle,
)
from entrolen.entropy import (
    addition_check,
    certified_upper_bound,
    estimate,
    integrality_report,
    zero_divisor_scan,
)
from entrolen.exact_linalg import Echelon, intersect, PrimeField, QuadraticField
from entrolen.folner import boundary_ratio, Boxes, BoxTimesZ2
from entrolen.groups import (
    ball,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    set_product,
    translate,
    ZCrossZ2,
)
from entrolen.shift_modules import (
    bernoulli,
    cyclic_presentation,
    SubshiftPresentation,
    trajectory_echelon,
)
from entrolen.tiling import build_net, check_quasi_tiling, greedy_quasi_tile, net_density

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = QuadraticField(2)
GF5 = PrimeField(5)
Z = FreeAbelian(1)
Z2 = FreeAbelian(2)
ZZ2 = ZCrossZ2()
BOXES_Z = Boxes(Z)
BOXES_Z2 = Boxes(Z2)
BOXZ2 = BoxTimesZ2(ZZ2)

SEED = int(os.environ.get("ENTROLEN_SEED", "0"))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_bernoulli_exactness():
    t0 = time.perf_counter()
    ok = True
    for rank in (1, 3):
        est = estimate(bernoulli(trivial_cocycle(GF2, Z), rank), BOXES_Z, 30)
        for row in est.rows:
            frac = row.ratio
            ok = ok and frac == Fraction(rank) and frac.denominator == 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(1, "bernoulli exactness", ok, f"{elapsed:.2f}s")


def test_criterion_02_fractional_entropy_zero_divisor():
    t0 = time.perf_counter()
    c = trivial_cocycle(GF3, ZZ2)
    x = parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")
    rep = zero_divisor_scan(x, c, BOXZ2, 30, 6)
    ok = all(row.ratio == Fraction(1, 2) for row in rep.submodule.rows)
    ok = ok and integrality_report(rep.submodule) == Fraction(1, 2)
    ok = ok and rep.verdict == "zero-divisor"
    ok = ok and format_element(rep.witness) == "1*(0,0) + 2*(0,1)"  # e - s
    ok = ok and multiply(rep.witness, x, c).is_zero()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "fractional entropy + annihilator witness", ok, f"{elapsed:.2f}s")


def test_criterion_03_additivity_suite():
    t0 = time.perf_counter()
    M_Z = bernoulli(trivial_cocycle(GF2, Z), 1)
    M_Z2 = bernoulli(trivial_cocycle(GF2, Z2), 1)
    M_X = bernoulli(trivial_cocycle(GF3, ZZ2), 1)
    N_Z = cyclic_presentation(
        trivial_cocycle(GF2, Z), parse_element(GF2, Z, "1*(0) + 1*(1)")
    )
    N_Z2 = cyclic_presentation(
        trivial_cocycle(GF2, Z2), parse_element(GF2, Z2, "1*(0,0) + 1*(1,0)")
    )
    N_X = cyclic_presentation(
        trivial_cocycle(GF3, ZZ2), parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")
    )

    suite = [
        ("K[Z] / (t-1)", M_Z, N_Z, BOXES_Z),
        ("K[Z^2] / (t1-1)", M_Z2, N_Z2, BOXES_Z2),
        ("GF3[ZxZ2] / (e+s)", M_X, N_X, BOXZ2),
        ("M / 0", M_Z, SubshiftPresentation(M_Z.cocycle, M_Z.rank, ()), BOXES_Z),
        ("M / M", M_Z, M_Z, BOXES_Z),
    ]
    ok = True
    details = []
    for name, M, N, scheme in suite:
        rep = addition_check(M, N, scheme, 30, Fraction(1, 20))
        case_ok = (
            abs(rep.discrepancy) <= Fraction(1, 20)
            and all(w.dim_total == w.dim_intersection + w.dim_image for _, _, w in rep.windows)
            and rep.lower_bound_ok_all
            and rep.all_stabilized
        )
        ok = ok and case_ok
        details.append(f"{name}: disc={rep.discrepancy}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(3, "additivity suite", ok, f"{elapsed:.1f}s; " + "; ".join(details))


def test_criterion_04_non_zero_divisor_control():
    c = trivial_cocycle(GF3, Z)
    x = parse_element(GF3, Z, "2*(0) + 1*(1)")  # t - 1
    rep = zero_divisor_scan(x, c, BOXES_Z, 30, 10)
    ok = rep.witness is None and rep.verdict == "no evidence up to budget"
    ok = ok and all(row.ratio == 1 for row in rep.submodule.rows)
    ok = ok and all(
        row.ratio == Fraction(1, 2 * row.n + 1) for row in rep.quotient.rows
    )
    ok = ok and rep.quotient.all_stabilized
    _report(4, "non-zero-divisor control", ok)


def test_criterion_05_quasi_tiling_validity():
    ok = True
    details = []
    for eps in (Fraction(1, 10), Fraction(1, 4)):
        A = BOXES_Z.set_at(20)
        tiling = greedy_quasi_tile(A, [BOXES_Z.set_at(2)], eps)
        rep = check_quasi_tiling(A, tiling)
        ok = ok and rep.passed
        if eps == Fraction(1, 10):
            cover = rep.conditions[2].ratio
            ok = ok and cover == Fraction(40, 41)
            details.append(f"Z cover {cover}")
        A2 = BOXES_Z2.set_at(10)
        tiling2 = greedy_quasi_tile(A2, [BOXES_Z2.set_at(2)], eps)
        rep2 = check_quasi_tiling(A2, tiling2)
        ok = ok and rep2.passed
        details.append(f"Z^2 eps={eps} cover {rep2.conditions[2].ratio}")
    _report(5, "quasi-tiling validity", ok, "; ".join(details))


def test_criterion_06_certified_bound_dominance():
    M_Z = bernoulli(trivial_cocycle(GF2, Z), 1)
    cert = certified_upper_bound(M_Z, BOXES_Z, Fraction(1, 10), [5], 5)
    ok = cert.bound == Fraction(109, 90)
    suite = [
        (bernoulli(trivial_cocycle(GF2, Z), 1), BOXES_Z),
        (bernoulli(trivial_cocycle(GF2, Z), 3), BOXES_Z),
        (bernoulli(trivial_cocycle(GF2, Z2), 1), BOXES_Z2),
        (bernoulli(trivial_cocycle(GF3, ZZ2), 1), BOXZ2),
        (
            cyclic_presentation(
                trivial_cocycle(GF2, Z), parse_element(GF2, Z, "1*(0) + 1*(1)")
            ),
            BOXES_Z,
        ),
        (
            cyclic_presentation(
                trivial_cocycle(GF2, Z2), parse_element(GF2, Z2, "1*(0,0) + 1*(1,0)")
            ),
            BOXES_Z2,
        ),
        (
            cyclic_presentation(
                trivial_cocycle(GF3, ZZ2), parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")
            ),
            BOXZ2,
        ),
    ]
    for pres, scheme in suite:
        est = estimate(pres, scheme, 12)
        bound = certified_upper_bound(pres, scheme, Fraction(1, 10), [2], 2).bound
        ok = ok and bound >= est.estimate
    _report(6, "certified bound dominance", ok, f"bernoulli bound {cert.bound}")


def test_criterion_07_folner_diagnostics():
    C1 = FiniteSubset(Z, [(-1,), (0,), (1,)])
    ok = all(
        boundary_ratio(BOXES_Z, C1, n) == Fraction(4, 2 * n + 1)
        for n in range(1, 41)
    )
    C2 = FiniteSubset(Z2, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    ok = ok and all(
        boundary_ratio(BOXES_Z2, C2, n) == Fraction(16 * n + 8, (2 * n + 1) ** 2)
        for n in range(1, 41)
    )
    at40 = boundary_ratio(BOXES_Z2, C2, 40)
    ok = ok and at40 == Fraction(8, 81) and at40 < Fraction(3, 20)
    _report(7, "folner boundary diagnostics", ok, f"Z^2 at n=40: {at40}")


def test_criterion_08_cocycle_validation():
    budget = 5000  # covers all of ball(2)^3 for these groups
    trivial_rep = validate_cocycle(trivial_cocycle(GF3, ZZ2), budget, SEED)
    frob = frobenius_cocycle(GF4, Z)
    frob_rep = validate_cocycle(frob, budget, SEED)
    ok = trivial_rep.ok and frob_rep.ok
    ok = ok and trivial_rep.triples_checked == len(ball(ZZ2, 2)) ** 3
    ok = ok and frob_rep.triples_checked == len(ball(Z, 2)) ** 3
    g0 = (1,)
    w = GF4.make(0, 1)

    def bad_rho(g, h):
        return w if (g, h) == (Z.identity, g0) else GF4.one

    bad = CocycleData(GF4, Z, frobenius=True, rho=bad_rho)
    bad_rep = validate_cocycle(bad, budget, SEED)
    ok = ok and not bad_rep.ok
    ok = ok and "rho(e, g)" in bad_rep.failure and "(1)" in bad_rep.failure
    _report(8, "cocycle validation", ok)


def test_criterion_09_net_density():
    E = FiniteSubset(Z, [(0,), (1,)])
    F = set_product(E, E.inverse())
    net = build_net(E, F, BOXES_Z.set_at(30))
    ok = net.covered
    alpha = Fraction(1, len(F)) - Fraction(1, 10)
    ok = ok and all(net_density(net, BOXES_Z, n) >= alpha for n in range(5, 31))
    ok = ok and net_density(net, BOXES_Z, 10) == Fraction(11, 21)
    _report(9, "net density", ok, f"n=10 density {net_density(net, BOXES_Z, 10)}")


def _sample_element(rng, group):
    if isinstance(group, FreeAbelian):
        return tuple(rng.randrange(-6, 7) for _ in range(group.dim))
    if isinstance(group, ZCrossZ2):
        return (rng.randrange(-6, 7), rng.randrange(2))
    return tuple(rng.randrange(-4, 5) for _ in range(3))


def _property_group_axioms(rng):
    count = 0
    for group in (Z, Z2, ZZ2, Heisenberg()):
        for _ in range(60):
            g, h, k = (_sample_element(rng, group) for _ in range(3))
            assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
            assert group.mul(g, group.inv(g)) == group.identity
            assert group.mul(g, group.identity) == g
            count += 1
    return count


def _property_modular_identity(rng):
    fields = [GF2, GF3, GF5, GF4]
    count = 0
    for _ in range(200):
        field = fields[rng.randrange(len(fields))]
        elems = list(field.elements())

        def rand_vecs():
            vecs = []
            for _ in range(rng.randrange(1, 4)):
                vec = {}
                for j in range(5):
                    c = elems[rng.randrange(len(elems))]
                    if c:
                        vec[j] = c
                vecs.append(vec)
            return vecs

        U = Echelon(field, rand_vecs())
        V = Echelon(field, rand_vecs())
        U_plus_V = Echelon(field, [*U.rref().values(), *V.rref().values()])
        assert U.dim + V.dim == U_plus_V.dim + intersect(U, V).dim
        count += 1
    return count


def _property_trajectory_shape(rng):
    c3 = trivial_cocycle(GF3, Z)
    cx = trivial_cocycle(GF3, ZZ2)
    presentations = [
        cyclic_presentation(c3, parse_element(GF3, Z, "1*(0) + 1*(1)")),
        cyclic_presentation(c3, parse_element(GF3, Z, "1*(0) + 2*(2)")),
        bernoulli(c3, 2),
        cyclic_presentation(cx, parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")),
    ]
    count = 0
    for _ in range(200):
        p = presentations[rng.randrange(len(presentations))]
        group = p.group
        els = [_sample_element(rng, group) for _ in range(rng.randrange(1, 6))]
        els2 = [_sample_element(rng, group) for _ in range(rng.randrange(1, 6))]
        F1 = FiniteSubset(group, els)
        F2 = FiniteSubset(group, els2)
        union = F1.union(F2)
        d1, d2, du = (
            trajectory_echelon(p, F1).dim,
            trajectory_echelon(p, F2).dim,
            trajectory_echelon(p, union).dim,
        )
        assert du <= d1 + d2  # sub-additive
        assert du >= max(d1, d2)  # monotone
        g = _sample_element(rng, group)
        assert trajectory_echelon(p, translate(g, F1)).dim == d1  # equivariant
        count += 1
    return count


def _property_lambda_composition(rng):
    cocycles = [
        trivial_cocycle(GF3, ZZ2),
        frobenius_cocycle(GF4, Z),
        frobenius_cocycle(GF4, ZZ2),
    ]
    count = 0
    for _ in range(200):
        c = cocycles[rng.randrange(len(cocycles))]
        group, field = c.group, c.field
        elems = [x for x in field.elements() if x]
        supp = ball(group, 1).sorted_elements()
        vecs = []
        for _ in range(rng.randrange(1, 3)):
            vec = {
                (h, 0): elems[rng.randrange(len(elems))]
                for h in supp
                if rng.random() < 0.5
            }
            if vec:
                vecs.append(vec)
        if not vecs:
            vecs = [{(group.identity, 0): field.one}]
        g = _sample_element(rng, group)
        h = _sample_element(rng, group)
        gh = group.mul(g, h)
        assert Echelon(field, [act(g, act(h, v, c), c) for v in vecs]).rref() == Echelon(
            field, [act(gh, v, c) for v in vecs]
        ).rref()
        count += 1
    return count


def _property_estimate_monotone(rng):
    """Per-window monotonicity under submodules whose coefficient span
    sits inside the ambient one (field combinations of the ambient
    generators), plus the unconditional quotient bound."""
    from entrolen.entropy import estimate_quotient

    c3 = trivial_cocycle(GF3, Z)
    count = 0
    while count < 200:
        m_gens = []
        for _ in range(2):
            vec = {
                ((k,), j): rng.randrange(1, 3)
                for k in (-1, 0, 1)
                for j in range(2)
                if rng.random() < 0.4
            }
            if vec:
                m_gens.append(vec)
        if not m_gens:
            continue
        n_gens = []
        for _ in range(rng.randrange(1, 3)):
            acc = {}
            for gvec in m_gens:
                coeff = rng.randrange(3)
                if not coeff:
                    continue
                for lbl, v in gvec.items():
                    nv = (acc.get(lbl, 0) + coeff * v) % 3
                    if nv:
                        acc[lbl] = nv
                    else:
                        acc.pop(lbl, None)
            if acc:
                n_gens.append(acc)
        if not n_gens:
            continue
        M = SubshiftPresentation(c3, 2, m_gens)
        N = SubshiftPresentation(c3, 2, n_gens)
        est_M = estimate(M, BOXES_Z, 3)
        est_N = estimate(N, BOXES_Z, 3)
        est_Q = estimate_quotient(M, N, BOXES_Z, 3)
        for rm, rn, rq in zip(est_M.rows, est_N.rows, est_Q.rows):
            assert rn.ratio <= rm.ratio
            assert rq.ratio <= rm.ratio
        count += 1
    return count


def test_criterion_10_property_suites():
    suites = [
        ("group axioms", _property_group_axioms),
        ("modular identity", _property_modular_identity),
        ("trajectory shape", _property_trajectory_shape),
        ("lambda composition", _property_lambda_composition),
        ("estimate monotonicity", _property_estimate_monotone),
    ]
    ok = True
    details = []
    for name, prop in suites:
        rng = random.Random(SEED)
        count = prop(rng)
        ok = ok and count >= 200
        details.append(f"{name}: {count}")
    _report(10, "property suites", ok, "; ".join(details))
