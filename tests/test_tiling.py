import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from entrolen.folner import Boxes
from entrolen.groups import FiniteSubset, FreeAbelian, set_product, translate
from entrolen.tiling import (
    _match_quotas,
    build_net,
    check_alpha_cover,
    check_epsilon_disjoint,
    check_quasi_tiling,
    greedy_quasi_tile,
    net_density,
    ow_upper_bound,
    QuasiTiling,
    TilingFailed,
)

Z = FreeAbelian(1)
Z2 = FreeAbelian(2)


def zset(*ks):
    return FiniteSubset(Z, [(k,) for k in ks])


def zrange(a, b):
    return zset(*range(a, b + 1))


def test_eps_disjoint_overlapping_pair():
    res = check_epsilon_disjoint([zrange(0, 3), zrange(3, 6)], Fraction(3, 10))
    assert res.ok
    w1, w2 = res.witnesses
    assert w1.is_subset(zrange(0, 3)) and w2.is_subset(zrange(3, 6))
    assert not (w1.elements & w2.elements)
    assert Fraction(len(w1), 4) > Fraction(7, 10)
    assert Fraction(len(w2), 4) > Fraction(7, 10)
    assert zset(4, 5, 6).is_subset(w2)


def test_eps_disjoint_trivial_when_disjoint():
    fam = [zrange(0, 2), zrange(10, 12), zrange(20, 22)]
    res = check_epsilon_disjoint(fam, Fraction(1, 100))
    assert res.ok
    assert list(res.witnesses) == fam


def test_eps_disjoint_impossible_by_counting():
    A = zrange(0, 3)
    assert not check_epsilon_disjoint([A, A], Fraction(3, 10)).ok


def test_eps_disjoint_needs_matching_fallback():
    # maximal greedy removal starves the smaller second set, but a valid
    # assignment exists; the exact matching decision must find it
    A = zrange(0, 9)
    B = zrange(5, 9)
    res = check_epsilon_disjoint([A, B], Fraction(1, 2))
    assert res.ok
    w1, w2 = res.witnesses
    assert not (w1.elements & w2.elements)
    assert Fraction(len(w1), len(A)) > Fraction(1, 2)
    assert Fraction(len(w2), len(B)) > Fraction(1, 2)


def test_eps_disjoint_matching_deep_augmenting_paths():
    # the interval takes every singleton's element in the greedy pass; the
    # exact matching must hand them back without deep recursion
    positions = random.Random(17).sample(range(2000), 500)
    family = [zrange(0, 1999)] + [zset(p) for p in positions]
    res = check_epsilon_disjoint(family, Fraction(1, 2))
    assert res.ok
    seen = set()
    for W, A in zip(res.witnesses, family):
        assert W.is_subset(A)
        assert Fraction(len(W), len(A)) > Fraction(1, 2)
        assert not (W.elements & seen)
        seen |= W.elements


def test_match_quotas_decides_halls_condition():
    # quotas are reachable exactly when every subfamily's union is at least
    # as large as its total quota (Hall's theorem with multiplicities)
    rng = random.Random(23)
    for _ in range(400):
        families = [
            sorted(rng.sample(range(10), rng.randint(1, 10)))
            for _ in range(rng.randint(1, 5))
        ]
        quotas = [rng.randint(0, len(f)) for f in families]
        hall = all(
            len(set().union(*(families[i] for i in sub))) >= sum(quotas[i] for i in sub)
            for r in range(1, len(families) + 1)
            for sub in itertools.combinations(range(len(families)), r)
        )
        claimed = _match_quotas(families, quotas)
        assert (claimed is not None) == hall
        if claimed is not None:
            assert [len(c) for c in claimed] == quotas
            assert all(c <= set(f) for c, f in zip(claimed, families))
            assert sum(map(len, claimed)) == len(set().union(*claimed))


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(-10, 10), st.integers(1, 6)), min_size=1, max_size=4
    ),
    st.fractions(min_value="1/100", max_value="99/100"),
)
def test_eps_disjoint_witnesses_are_exact(intervals, eps):
    family = [zrange(a, a + w - 1) for a, w in intervals]
    res = check_epsilon_disjoint(family, eps)
    if res.ok:
        seen = set()
        for W, A in zip(res.witnesses, family):
            assert W.is_subset(A)
            assert Fraction(len(W), len(A)) > 1 - eps
            assert not (W.elements & seen)
            seen |= W.elements


def test_alpha_cover_examples():
    A = zrange(0, 9)
    fam = [zrange(0, 4), zset(7, 8)]
    assert check_alpha_cover(A, fam, Fraction(7, 10))
    assert not check_alpha_cover(A, fam, Fraction(71, 100))
    assert check_alpha_cover(A, [A], 1)
    assert not check_alpha_cover(A, [], Fraction(1, 10))


def test_check_quasi_tiling_pass_example():
    A = zrange(-20, 20)
    tile = zrange(-2, 2)
    centers = zset(-18, -13, -8, -3, 2, 7, 12, 17)
    t = QuasiTiling((tile,), (centers,), Fraction(1, 10))
    report = check_quasi_tiling(A, t)
    assert report.passed
    assert report.conditions[2].ratio == Fraction(40, 41)


def test_check_quasi_tiling_empty_centers_fails_cover():
    A = zrange(-20, 20)
    t = QuasiTiling((zrange(-2, 2),), (zset(),), Fraction(1, 10))
    report = check_quasi_tiling(A, t)
    assert not report.passed
    assert not report.conditions[2].passed


def test_check_quasi_tiling_overlapping_centers_fail_disjointness():
    A = zrange(-20, 20)
    t = QuasiTiling((zrange(-2, 2),), (zset(0, 1),), Fraction(1, 10))
    report = check_quasi_tiling(A, t)
    assert not report.conditions[0].passed


def test_greedy_z_line():
    A = zrange(-20, 20)
    tiling = greedy_quasi_tile(A, [zrange(-2, 2)], Fraction(1, 10))
    assert [g[0] for g in tiling.centers[0]] == [-18, -13, -8, -3, 2, 7, 12, 17]
    report = check_quasi_tiling(A, tiling)
    assert report.passed
    assert report.conditions[2].ratio == Fraction(40, 41)


def test_greedy_failure_when_tile_too_large():
    with pytest.raises(TilingFailed):
        greedy_quasi_tile(zrange(-2, 2), [zrange(-5, 5)], Fraction(1, 10))


def test_greedy_two_tile_sizes():
    A = zrange(-20, 20)
    tiling = greedy_quasi_tile(A, [zrange(-4, 4), zrange(-1, 1)], Fraction(1, 10))
    report = check_quasi_tiling(A, tiling)
    assert report.passed
    assert len(tiling.centers[1]) > 0  # the small tile fills edge remainder


def test_greedy_eps_validation():
    A = zrange(-20, 20)
    with pytest.raises(ValueError):
        greedy_quasi_tile(A, [zrange(-2, 2)], Fraction(1, 3))
    with pytest.raises(ValueError):
        greedy_quasi_tile(A, [], Fraction(1, 10))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 15), st.integers(0, 2), st.fractions(min_value="1/20", max_value="1/4"))
def test_greedy_output_always_passes_checker(n, r, eps):
    A = zrange(-n, n)
    tile = zrange(-r, r)
    try:
        tiling = greedy_quasi_tile(A, [tile], eps)
    except TilingFailed:
        assume(False)
    assert check_quasi_tiling(A, tiling).passed


def test_build_net_evens():
    E = zset(0, 1)
    window = zrange(-10, 10)
    net = build_net(E, zset(0, 1), window)
    assert sorted(g[0] for g in net.points) == list(range(-10, 11, 2))
    assert net.covered


def test_build_net_singleton_base():
    window = zrange(-4, 4)
    net = build_net(zset(0), zset(0), window)
    assert net.points == window
    assert net.covered


def test_build_net_coverage_failure_reported():
    E = zset(0, 1, 2)
    net = build_net(E, zset(0), zrange(-9, 9))  # F too small
    assert not net.covered
    assert len(net.uncovered) > 0


@settings(max_examples=40)
@given(st.sets(st.integers(-3, 3), min_size=1, max_size=4))
def test_net_with_difference_set_covers(e_elems):
    E = zset(*e_elems)
    F = set_product(E, E.inverse())
    net = build_net(E, F, zrange(-15, 15))
    assert net.covered
    # translates of E from net points are pairwise disjoint
    seen = set()
    for g in net.points:
        cells = translate(g, E).elements
        assert not (cells & seen)
        seen |= cells


def test_net_density_values():
    E = zset(0, 1)
    F = set_product(E, E.inverse())
    net = build_net(E, F, zrange(-20, 20))
    sch = Boxes(Z)
    assert net_density(net, sch, 10) == Fraction(11, 21)
    assert all(
        net_density(net, sch, n) >= Fraction(1, len(F)) - Fraction(1, 10)
        for n in range(5, 21)
    )
    with pytest.raises(ValueError):
        net_density(net, sch, 25)  # window too small


def test_net_density_trivial_base():
    net = build_net(zset(0), zset(0), zrange(-10, 10))
    assert net_density(net, Boxes(Z), 10) == 1


def test_ow_upper_bound_values():
    assert ow_upper_bound(1, Fraction(1, 10), [Fraction(1)]) == Fraction(109, 90)
    # small eps pushes the bound toward the best ratio
    r = Fraction(2, 3)
    assert ow_upper_bound(1, Fraction(1, 1000), [r]) - r < Fraction(1, 100)
    with pytest.raises(ValueError):
        ow_upper_bound(1, Fraction(1, 10), [])
    with pytest.raises(ValueError):
        ow_upper_bound(1, Fraction(1, 2), [Fraction(1)])


def test_ow_upper_bound_monotone():
    rng = random.Random(2)
    for _ in range(100):
        M = rng.randrange(1, 4)
        eps1 = Fraction(rng.randrange(1, 20), 100)
        eps2 = eps1 + Fraction(rng.randrange(1, 5), 100)
        ratios = [Fraction(rng.randrange(0, 8), 4) for _ in range(3)]
        ratios2 = [r + Fraction(rng.randrange(0, 3), 4) for r in ratios]
        assert ow_upper_bound(M, eps1, ratios) <= ow_upper_bound(M, eps1, ratios2)
        if max(ratios) >= M:
            assert ow_upper_bound(M, eps1, ratios) <= ow_upper_bound(M, eps2, ratios)


def test_greedy_z2_boxes():
    sch = Boxes(Z2)
    A = sch.set_at(10)
    tile = sch.set_at(2)
    for eps in (Fraction(1, 10), Fraction(1, 4)):
        tiling = greedy_quasi_tile(A, [tile], eps)
        report = check_quasi_tiling(A, tiling)
        assert report.passed
    tiling = greedy_quasi_tile(A, [tile], Fraction(1, 10))
    assert check_quasi_tiling(A, tiling).conditions[2].ratio == Fraction(400, 441)
