import itertools
import random

import pytest

from entrolen.crossed_product import (
    act,
    check_direct_finiteness_witness,
    CocycleData,
    CrossedElement,
    find_annihilator,
    format_element,
    frobenius_cocycle,
    multiply,
    parse_element,
    trivial_cocycle,
    validate_cocycle,
)
from entrolen.exact_linalg import PrimeField, QuadraticField, RationalField
from entrolen.groups import ball, FreeAbelian, Heisenberg, ZCrossZ2

from linalg_reference import span_dim

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = QuadraticField(2)
GF5 = PrimeField(5)
QQ = RationalField()
Z = FreeAbelian(1)
ZZ2 = ZCrossZ2()
W = GF4.make(0, 1)


def test_multiply_char2():
    c = trivial_cocycle(GF2, Z)
    x = parse_element(GF2, Z, "1*(0) + 1*(1)")
    assert format_element(multiply(x, x, c)) == "1*(0) + 1*(2)"


def test_multiply_unital():
    c = trivial_cocycle(GF3, ZZ2)
    x = parse_element(GF3, ZZ2, "2*(0,1) + 1*(3,0)")
    one = CrossedElement.one(GF3, ZZ2)
    assert multiply(x, one, c) == x
    assert multiply(one, x, c) == x


def test_multiply_twisted_gf4():
    c = frobenius_cocycle(GF4, Z)
    wt = CrossedElement(GF4, Z, {(1,): W})
    prod = multiply(wt, wt, c)
    # w * frob(w) = w * w^2 = w^3 = 1
    assert prod == CrossedElement(GF4, Z, {(2,): GF4.one})


def test_multiply_associative_sampled():
    rng = random.Random(5)
    for c in (trivial_cocycle(GF3, ZZ2), frobenius_cocycle(GF4, Z)):
        field, group = c.field, c.group
        elems = [x for x in field.elements() if x]
        supp = ball(group, 1).sorted_elements()
        for _ in range(40):
            xs = []
            for _ in range(3):
                terms = {
                    g: elems[rng.randrange(len(elems))]
                    for g in supp
                    if rng.random() < 0.5
                }
                xs.append(CrossedElement(field, group, terms))
            x, y, z = xs
            assert multiply(multiply(x, y, c), z, c) == multiply(
                x, multiply(y, z, c), c
            )


def test_validate_trivial_and_frobenius():
    assert validate_cocycle(trivial_cocycle(GF3, ZZ2)).ok
    assert validate_cocycle(trivial_cocycle(GF2, Heisenberg())).ok
    assert validate_cocycle(frobenius_cocycle(GF4, Z)).ok
    assert validate_cocycle(frobenius_cocycle(GF4, ZZ2)).ok
    assert validate_cocycle(frobenius_cocycle(QuadraticField(3), Heisenberg())).ok


def test_validate_mutated_rho_fails_with_witness():
    base = frobenius_cocycle(GF4, Z)
    e = Z.identity
    g0 = (1,)

    def bad_rho(g, h):
        if (g, h) == (e, g0):
            return W
        return GF4.one

    bad = CocycleData(GF4, Z, frobenius=True, rho=bad_rho)
    report = validate_cocycle(bad)
    assert not report.ok
    assert "rho(e, g)" in report.failure
    assert "(1)" in report.failure


def test_builtin_cocycle_labels_cannot_be_forged():
    frob = frobenius_cocycle(GF4, Z)
    # a caller-supplied rho takes the twisted path, even one that is always 1
    mine = CocycleData(GF4, Z, frobenius=True, rho=lambda g, h: GF4.one)
    assert not mine.is_plain
    x = parse_element(GF4, Z, "1*(1)")
    y = CrossedElement(GF4, Z, {(0,): W})
    assert multiply(x, y, mine) == multiply(x, y, frob)
    assert format_element(multiply(x, y, mine)) == "1+1*w*(1)"
    # equality and the label are read off the data (frobenius, rho)
    assert mine == mine and mine != frob
    assert mine != CocycleData(GF4, Z, frobenius=True, rho=lambda g, h: GF4.one)
    assert mine == CocycleData(GF4, Z, frobenius=True, rho=mine.rho)
    assert (mine.label, frob.label) == ("custom", "frobenius")
    assert CocycleData(GF4, Z, frobenius=True) == frob and not frob.is_plain
    assert CocycleData(GF4, Z) == trivial_cocycle(GF4, Z)
    assert CocycleData(GF4, Z).is_plain and CocycleData(GF4, Z).label == "trivial"
    assert trivial_cocycle(GF4, Z) == trivial_cocycle(GF4, Z)


def _rho_with(value, g0, h0):
    """rho over GF(3) that is value at (g0, h0) and 1 elsewhere."""
    return lambda g, h: value if (g, h) == (g0, h0) else GF3.one


@pytest.mark.parametrize(
    "rho,budget,failure,triples,assoc",
    [
        (_rho_with(2, (1,), (0,)), 2000, "rho(g, e) != 1 at g=(1)", 0, 0),
        (
            _rho_with(2, (1,), (1,)),
            2000,
            "cocycle identity fails at ((-2), (1), (1))",
            19,
            0,
        ),
        (
            _rho_with(2, (1,), (1,)),
            1,
            "associativity fails on sampled elements (sample 1)",
            1,
            2,
        ),
    ],
    ids=["unit-right", "cocycle-identity", "associativity"],
)
def test_validate_failure_branches(rho, budget, failure, triples, assoc):
    report = validate_cocycle(CocycleData(GF3, Z, rho=rho), budget)
    assert not report.ok
    assert report.failure == failure
    assert (report.triples_checked, report.associativity_checked) == (triples, assoc)


def test_validate_non_unit_rho_fails_without_crashing():
    e = Z.identity

    def rho(g, h):  # satisfies the cocycle identity but vanishes off e
        return GF3.one if e in (g, h) else GF3.zero

    report = validate_cocycle(CocycleData(GF3, Z, rho=rho))
    assert not report.ok
    assert report.failure == "rho is not a unit at ((-2), (-2))"
    assert report.triples_checked == len(ball(Z, 2)) ** 3


@pytest.mark.parametrize(
    "group",
    [FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), ZZ2, Heisenberg()],
    ids=lambda g: g.name,
)
def test_frobenius_degree_is_a_homomorphism_mod_2(group):
    # validate_cocycle samples neither sigma(e) = id nor the automorphism
    # compatibility; both rest on this premise
    sigma_exp = frobenius_cocycle(GF4, group).sigma_exp
    assert sigma_exp(group.identity) == 0
    B = ball(group, 2).sorted_elements()
    for g in B:
        for h in B:
            assert (sigma_exp(group.mul(g, h)) - sigma_exp(g) - sigma_exp(h)) % 2 == 0


def test_frobenius_needs_quadratic_field():
    with pytest.raises(ValueError):
        frobenius_cocycle(GF3, Z)


def test_act_shift():
    c = trivial_cocycle(GF2, Z)
    v = {((0,), 1): 1}
    assert act((1,), v, c) == {((1,), 1): 1}


def test_act_twisted():
    c = frobenius_cocycle(GF4, Z)
    v = {((0,), 1): W}
    assert act((1,), v, c) == {((1,), 1): GF4.frobenius(W)}
    assert GF4.frobenius(W) == GF4.make(1, 1)


def test_act_preserves_span_dim():
    rng = random.Random(11)
    c = frobenius_cocycle(GF4, Z)
    elems = [x for x in GF4.elements() if x]
    for _ in range(40):
        vecs = []
        for _ in range(rng.randrange(1, 4)):
            vec = {
                ((k,), j): elems[rng.randrange(3)]
                for k in range(-2, 3)
                for j in range(2)
                if rng.random() < 0.4
            }
            if vec:
                vecs.append(vec)
        if not vecs:
            continue
        g = (rng.randrange(-3, 4),)
        assert span_dim(GF4, vecs) == span_dim(GF4, [act(g, v, c) for v in vecs])


def test_lambda_composition_at_subspace_level():
    rng = random.Random(13)
    c = frobenius_cocycle(GF4, ZZ2)
    elems = [x for x in GF4.elements() if x]
    supp = ball(ZZ2, 1).sorted_elements()
    for _ in range(40):
        vecs = []
        for _ in range(rng.randrange(1, 3)):
            vec = {
                (h, 0): elems[rng.randrange(3)] for h in supp if rng.random() < 0.5
            }
            if vec:
                vecs.append(vec)
        if not vecs:
            continue
        g = (rng.randrange(-2, 3), rng.randrange(2))
        h = (rng.randrange(-2, 3), rng.randrange(2))
        gh = ZZ2.mul(g, h)
        via_two = [act(g, act(h, v, c), c) for v in vecs]
        via_one = [act(gh, v, c) for v in vecs]
        from entrolen.exact_linalg import span

        assert span(GF4, via_two) == span(GF4, via_one)


def test_find_annihilator_order_two():
    c = trivial_cocycle(GF3, ZZ2)
    x = parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")
    y = find_annihilator(x, c, 1)
    assert y is not None
    assert format_element(y) == "1*(0,0) + 2*(0,1)"  # e - s over GF(3)
    assert multiply(y, x, c).is_zero()


def test_find_annihilator_none_for_domain_element():
    c = trivial_cocycle(GF3, Z)
    x = parse_element(GF3, Z, "2*(0) + 1*(1)")  # t - 1
    assert find_annihilator(x, c, 10) is None


def test_find_annihilator_none_for_unit():
    c = frobenius_cocycle(GF4, Z)
    x = CrossedElement(GF4, Z, {(0,): W})
    assert find_annihilator(x, c, 4) is None
    with pytest.raises(ValueError):
        find_annihilator(CrossedElement.zero(GF4, Z), c, 2)


@pytest.mark.parametrize(
    "field, cocycle, elem, witness",
    [
        (GF5, trivial_cocycle, "1*(0,0) + 4*(0,1)", "1*(0,0) + 1*(0,1)"),
        (GF5, trivial_cocycle, "2*(0,0) + 1*(1,0) + 3*(0,1) + 4*(1,1)", "1*(0,0) + 1*(0,1)"),
        (GF5, trivial_cocycle, "1*(0,0) + 2*(0,1)", None),
        (QQ, trivial_cocycle, "1/2*(0,0) + 3*(1,0) + 1/2*(0,1) + 3*(1,1)",
         "1/1*(0,0) + -1/1*(0,1)"),
        (QQ, trivial_cocycle, "1*(0,0) + -1*(1,1)", None),
        (GF4, frobenius_cocycle, "1*(0,0) + 0+1*w*(0,1)", "1+0*w*(0,0) + 0+1*w*(0,1)"),
        (GF4, frobenius_cocycle, "1*(0,0) + 1*(0,1)", "1+0*w*(0,0) + 1+0*w*(0,1)"),
        (GF4, frobenius_cocycle, "1*(0,0) + 0+1*w*(1,1)", None),
    ],
)
def test_find_annihilator_witnesses_on_zxz2(field, cocycle, elem, witness):
    """The canonical witness, or None, at radius 3 on GF(5), Q and the
    Frobenius-twisted GF(4) group rings of ZxZ2."""
    c = cocycle(field, ZZ2)
    y = find_annihilator(parse_element(field, ZZ2, elem), c, 3)
    assert (None if y is None else format_element(y)) == witness


def _right_annihilated(x, c, radius, twisted=True):
    """Whether some nonzero y on ball(radius) has x y = 0.  Write y as the
    sum of g c_g: x (g c_g) = (x g) c_g, and the entry at k of v c is
    v_k sigma_k(c), so sigma_k^-1 at each label k makes the system in the
    c_g linear.  twisted=False leaves sigma_k out."""
    F, group = x.field, x.group
    exp = c.sigma_exp if twisted else (lambda k: 0)
    rows = []
    for g in ball(group, radius).sorted_elements():
        xg = multiply(x, CrossedElement(F, group, {g: F.one}), c)
        rows.append({k: F.apply_auto(v, -exp(k)) for k, v in xg.terms.items()})
    return span_dim(F, rows) < len(rows)


@pytest.mark.parametrize(
    "field, cocycle", [(GF4, frobenius_cocycle), (GF3, trivial_cocycle)],
    ids=["gf4-frobenius", "gf3"],
)
def test_left_search_finds_every_right_zero_divisor_on_zxz2(field, cocycle):
    """find_annihilator looks for y x = 0 only; on every nonzero x on
    ball(1) a right search at radius 2 reaches the same verdict, so these
    rings have no zero divisor that the one-sided search misses."""
    c = cocycle(field, ZZ2)
    supp = ball(ZZ2, 1).sorted_elements()
    elems = [
        CrossedElement(field, ZZ2, {g: a for g, a in zip(supp, coeffs) if a})
        for coeffs in itertools.product(field.elements(), repeat=len(supp))
        if any(coeffs)
    ]
    assert len(elems) == {GF4: 255, GF3: 80}[field]
    left = [find_annihilator(x, c, 2) is not None for x in elems]
    assert left == [_right_annihilated(x, c, 2) for x in elems]
    # scalars do not commute past x under the twist: without sigma_k^-1
    # the right search is wrong
    naive = sum(l != _right_annihilated(x, c, 2, False) for l, x in zip(left, elems))
    assert naive == (6 if c.frobenius else 0)


def _coboundary_cocycle(group):
    """sigma trivial and rho(g, h) = f(g) f(h) f(gh)^-1 over GF(5), with
    f(g) = 2^(g.g): a valid cocycle whose rho takes values other than 1.
    phi(x) = sum f(g) x_g g is a ring isomorphism onto the untwisted ring."""

    def f(g):
        return pow(2, sum(a * a for a in g), 5)

    def rho(g, h):
        return GF5.mul(GF5.mul(f(g), f(h)), GF5.inv(f(group.mul(g, h))))

    def phi(x):
        return CrossedElement(GF5, group, {g: GF5.mul(f(g), a) for g, a in x.terms.items()})

    return CocycleData(GF5, group, rho=rho), phi


@pytest.mark.parametrize("group", [Z, ZZ2], ids=["Z", "ZxZ2"])
def test_coboundary_twist_transports_to_the_plain_product(group):
    c, phi = _coboundary_cocycle(group)
    plain = trivial_cocycle(GF5, group)
    assert validate_cocycle(c).ok
    supp = ball(group, 1).sorted_elements()
    assert any(c.rho(g, h) != GF5.one for g in supp for h in supp)
    rng = random.Random(11)

    def sample():
        terms = {g: rng.randrange(1, 5) for g in supp if rng.random() < 0.6}
        return CrossedElement(GF5, group, terms or {group.identity: 1})

    elems = [sample() for _ in range(24)]
    if group == ZZ2:  # 1 + u*s: twisted zero divisor iff u is 2 or 3
        elems += [parse_element(GF5, group, f"1*(0,0) + {u}*(0,1)") for u in range(1, 5)]
    for x, y in zip(elems, elems[1:] + elems[:1]):
        assert phi(multiply(x, y, c)) == multiply(phi(x), phi(y), plain)
    witnesses = 0
    for x in elems:
        y = find_annihilator(x, c, 2)
        y_plain = find_annihilator(phi(x), plain, 2)
        assert (y is None) == (y_plain is None)
        if y is not None:
            witnesses += 1
            assert multiply(phi(y), phi(x), plain).is_zero()
    assert witnesses == (2 if group == ZZ2 else 0)


def test_direct_finiteness_witnesses():
    c = trivial_cocycle(GF3, Z)
    t = parse_element(GF3, Z, "1*(1)")
    tinv = parse_element(GF3, Z, "1*(-1)")
    assert check_direct_finiteness_witness(t, tinv, c) == "consistent"
    assert check_direct_finiteness_witness(t, t, c) == "not a witness"
    c4 = frobenius_cocycle(GF4, Z)
    u = CrossedElement(GF4, Z, {(0,): W})
    uinv = CrossedElement(GF4, Z, {(0,): GF4.inv(W)})
    assert check_direct_finiteness_witness(u, uinv, c4) == "consistent"


def test_parse_format_roundtrip():
    cases = [
        (GF3, ZZ2, "1*(0,0) + 2*(1,1)"),
        (GF2, Z, "1*(-3) + 1*(0) + 1*(5)"),
        (GF4, Z, "0+1*w*(0) + 1+1*w*(2)"),
    ]
    for field, group, text in cases:
        x = parse_element(field, group, text)
        assert format_element(x) == text
        assert parse_element(field, group, format_element(x)) == x
    assert parse_element(GF3, Z, "0").is_zero()
    with pytest.raises(ValueError):
        parse_element(GF3, Z, "0*(1)")
    # duplicate symbols are combined; exact cancellations vanish
    assert parse_element(GF3, Z, "1*(0) + 2*(0)").is_zero()


def test_element_arithmetic_helpers():
    x = parse_element(GF3, Z, "1*(0) + 2*(4)")
    y = parse_element(GF3, Z, "2*(0)")
    assert format_element(x.add(y)) == "2*(4)"
    assert x.sub(x).is_zero()
    assert x.neg().add(x).is_zero()
    assert format_element(x.scale(2)) == "2*(0) + 1*(4)"
    assert set(x.support()) == {(0,), (4,)}
