from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrolen.folner import (
    boundary,
    boundary_ratio,
    Boxes,
    BoxTimesZ2,
    default_scheme,
    exterior,
    interior,
    nested_sets,
    verify_exhaustion,
    WordBalls,
)
from entrolen.groups import ball, FiniteSubset, FreeAbelian, Heisenberg, translate, ZCrossZ2

Z = FreeAbelian(1)
Z2 = FreeAbelian(2)


def zset(*ks):
    return FiniteSubset(Z, [(k,) for k in ks])


def zrange(a, b):
    return zset(*range(a, b + 1))


C1 = zset(-1, 0, 1)


def test_interval_example():
    A = zrange(0, 10)
    assert interior(A, C1) == zrange(1, 9)
    assert exterior(A, C1) == zrange(-1, 11)
    assert boundary(A, C1) == zset(-1, 0, 10, 11)


def test_singleton_c():
    A = zset(0, 3, 7)
    Ce = zset(0)
    assert interior(A, Ce) == A
    assert exterior(A, Ce) == A
    assert len(boundary(A, Ce)) == 0


def test_z2_box_boundary_count():
    A = Boxes(Z2).set_at(3)
    C = FiniteSubset(Z2, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    assert len(boundary(A, C)) == 9 * 9 - 5 * 5


def _brute_force_sets(A, C):
    """Definition-chasing oracle over an enumerated candidate window."""
    group = A.group
    mul = group.mul
    candidates = {mul(a, group.inv(c)) for a in A.elements for c in C.elements}
    ins = {x for x in candidates if all(mul(x, c) in A.elements for c in C.elements)}
    outs = {
        x for x in candidates if any(mul(x, c) in A.elements for c in C.elements)
    }
    return ins, outs


@settings(max_examples=80)
@given(
    st.sets(st.integers(-8, 8), min_size=1, max_size=10),
    st.sets(st.integers(-3, 3), min_size=1, max_size=5),
)
def test_against_brute_force_z(a_elems, c_elems):
    A = zset(*a_elems)
    C = zset(*c_elems)
    ins, outs = _brute_force_sets(A, C)
    assert set(interior(A, C).elements) == ins
    assert set(exterior(A, C).elements) == outs
    assert set(boundary(A, C).elements) == outs - ins


def test_empty_c_rejected():
    with pytest.raises(ValueError):
        interior(zset(0), FiniteSubset(Z, []))


@settings(max_examples=60)
@given(
    st.sets(st.integers(-8, 8), min_size=1, max_size=10),
    st.sets(st.integers(-3, 3), max_size=4),
)
def test_identity_in_c_gives_sandwich(a_elems, c_elems):
    A = zset(*a_elems)
    C = zset(0, *c_elems)  # force e into C
    assert interior(A, C).is_subset(A)
    assert A.is_subset(exterior(A, C))


def test_folner_sets():
    assert len(Boxes(Z).set_at(10)) == 21
    assert len(BoxTimesZ2(ZCrossZ2()).set_at(2)) == 10
    assert len(WordBalls(Heisenberg()).set_at(1)) == 5


def test_boundary_ratio_values():
    assert boundary_ratio(Boxes(Z), C1, 10) == Fraction(4, 21)
    C2 = FiniteSubset(Z2, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    assert boundary_ratio(Boxes(Z2), C2, 40) == Fraction(648, 6561) == Fraction(8, 81)
    assert boundary_ratio(Boxes(Z), zset(0), 7) == 0


def test_closed_forms_against_enumeration():
    sch = Boxes(Z)
    for n in range(1, 25):
        assert boundary_ratio(sch, C1, n) == Fraction(4, 2 * n + 1)
    sch2 = Boxes(Z2)
    C2 = FiniteSubset(Z2, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    for n in range(1, 12):
        assert boundary_ratio(sch2, C2, n) == Fraction(16 * n + 8, (2 * n + 1) ** 2)


def test_box_ratio_strictly_decreasing():
    sch = Boxes(Z2)
    C2 = FiniteSubset(Z2, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    ratios = [boundary_ratio(sch, C2, n) for n in range(1, 15)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


@settings(max_examples=50)
@given(
    st.sets(st.integers(-6, 6), min_size=1, max_size=8),
    st.sets(st.integers(-2, 2), min_size=1, max_size=4),
    st.integers(-5, 5),
)
def test_translation_invariance(a_elems, c_elems, g):
    A = zset(*a_elems)
    C = zset(*c_elems)
    assert len(boundary(translate((g,), A), C)) == len(boundary(A, C))


def test_verify_exhaustion_passes():
    assert verify_exhaustion(Boxes(Z), 20).ok
    assert verify_exhaustion(BoxTimesZ2(ZCrossZ2()), 10).ok
    assert verify_exhaustion(WordBalls(Heisenberg()), 6).ok


@pytest.mark.parametrize("group", [Heisenberg(), Z2], ids=lambda g: g.name)
def test_word_balls_grow_by_one_shells_pass(group, monkeypatch):
    grown = [F for _, F in nested_sets(WordBalls(group), 9)]
    assert grown == [ball(group, n) for n in range(10)]
    # neither the grown windows nor the exhaustion check call ball again
    def no_ball(*args):
        raise AssertionError("ball regrown from the identity")

    monkeypatch.setattr("entrolen.folner.ball", no_ball)
    assert [F for _, F in nested_sets(WordBalls(group), 9)] == grown
    assert verify_exhaustion(WordBalls(group), 9).ok


BUILT_IN = [
    *(Boxes(FreeAbelian(d)) for d in (1, 2, 3, 4)),
    BoxTimesZ2(ZCrossZ2()),
    *(WordBalls(g) for g in (Z, Z2, FreeAbelian(3), ZCrossZ2(), Heisenberg())),
]


@pytest.mark.parametrize("scheme", BUILT_IN, ids=lambda s: f"{s.group.name}-{s.name}")
def test_nested_sets_grow_every_built_in_scheme_from_shells(scheme, monkeypatch):
    """F_n grown shell by shell is set_at(n), with no set_at call."""
    expected = [scheme.set_at(n) for n in range(7)]

    def no_set_at(self, n):
        raise AssertionError("a window was built by set_at")

    monkeypatch.setattr(type(scheme), "set_at", no_set_at)
    assert [F for _, F in nested_sets(scheme, 6)] == expected


class _BrokenScheme:
    group = Z

    def set_at(self, n):
        if n == 0:
            return FiniteSubset(Z, [])
        return Boxes(Z).set_at(n)


class _NonNested:
    group = Z

    def set_at(self, n):
        return zset(n)


class _HalfLines:
    """F_n = [0, n]: nested and containing e, but never covering ball(1)."""

    group = Z

    def set_at(self, n):
        return zrange(0, n)


def test_verify_exhaustion_failures():
    rep = verify_exhaustion(_BrokenScheme(), 5)
    assert not rep.ok
    assert "identity" in rep.first_violation
    rep2 = verify_exhaustion(_NonNested(), 5)
    assert not rep2.ok
    assert "not contained" in rep2.first_violation
    rep3 = verify_exhaustion(_HalfLines(), 5)
    assert not rep3.ok
    assert rep3.first_violation == "ball(1) not covered by any F_m with m <= 5"


def test_default_schemes():
    assert isinstance(default_scheme(Z2), Boxes)
    assert isinstance(default_scheme(ZCrossZ2()), BoxTimesZ2)
    assert isinstance(default_scheme(Heisenberg()), WordBalls)


def test_folner_sets_contain_identity():
    for scheme in (Boxes(Z), Boxes(Z2), BoxTimesZ2(ZCrossZ2()), WordBalls(Heisenberg())):
        for n in range(4):
            assert scheme.group.identity in scheme.set_at(n)
