import random

import pytest
from hypothesis import given, settings, strategies as st

from entrolen.groups import (
    ball,
    FiniteSubset,
    format_group_element,
    FreeAbelian,
    group_from_name,
    Heisenberg,
    parse_group_element,
    set_product,
    shells,
    translate,
    ZCrossZ2,
)

Z = FreeAbelian(1)
Z2 = FreeAbelian(2)
H = Heisenberg()
ZZ2 = ZCrossZ2()
ALL_GROUPS = [Z, Z2, H, ZZ2]

coord = st.integers(min_value=-6, max_value=6)


def element_strategy(group):
    if isinstance(group, FreeAbelian):
        return st.tuples(*[coord] * group.dim)
    if isinstance(group, ZCrossZ2):
        return st.tuples(coord, st.integers(0, 1))
    return st.tuples(coord, coord, coord)


def test_mul_examples():
    assert Z2.mul((1, 2), (3, -1)) == (4, 1)
    assert H.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert ZZ2.mul((2, 1), (3, 1)) == (5, 0)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms_sampled(group):
    @settings(max_examples=120)
    @given(
        element_strategy(group), element_strategy(group), element_strategy(group)
    )
    def run(g, h, k):
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, group.identity) == g
        assert group.mul(group.identity, g) == g
        assert group.mul(g, group.inv(g)) == group.identity
        assert group.mul(group.inv(g), g) == group.identity

    run()


def test_generators_symmetric_with_identity():
    for group in ALL_GROUPS:
        gens = group.generators()
        assert group.identity in gens
        assert set(gens) == {group.inv(s) for s in gens}


def test_ball_z_radius2():
    assert set(ball(Z, 2).elements) == {(k,) for k in range(-2, 3)}
    assert len(ball(Z, 2)) == 5


def test_ball_z2_diamond():
    b = ball(Z2, 2)
    assert len(b) == 13
    assert all(abs(a) + abs(c) <= 2 for a, c in b)


def test_ball_heisenberg_contains_both_products():
    b = ball(H, 2)
    assert (1, 1, 1) in b  # xy
    assert (1, 1, 0) in b  # yx


def test_ball_nesting_and_base():
    for group in ALL_GROUPS:
        prev = ball(group, 0)
        assert set(prev.elements) == {group.identity}
        for r in range(1, 5):
            cur = ball(group, r)
            assert prev.is_subset(cur)
            prev = cur


def _bfs_ball(group, r):
    """Products of at most r generators, by plain breadth-first search."""
    cur = {group.identity}
    for _ in range(r):
        cur = {group.mul(g, s) for g in cur for s in group.generators()}
    return cur


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_shells_partition_balls_and_grown_windows(group):
    """The first r + 1 shells of start are disjoint and make up
    ball(r) * start, for start = (e,) and for a two-point window."""
    balls = [_bfs_ball(group, r) for r in range(7)]
    s = group.generators()[-1]
    far = group.mul(s, group.mul(s, s))
    for start in ((group.identity,), (group.identity, far)):
        union = set()
        for r, shell in zip(range(7), shells(group, start)):
            assert not union & shell
            union |= shell
            assert union == {group.mul(b, w) for b in balls[r] for w in start}
    for r in range(7):
        assert ball(group, r).elements == balls[r]


def test_translate_examples():
    A = FiniteSubset(Z, [(0,), (1,), (2,)])
    assert set(translate((2,), A).elements) == {(2,), (3,), (4,)}
    B = FiniteSubset(H, [(0, 0, 0), (1, 0, 0)])
    assert set(translate((0, 0, 1), B).elements) == {(0, 0, 1), (1, 0, 1)}


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_translate_is_bijection(group):
    @settings(max_examples=60)
    @given(element_strategy(group), st.sets(element_strategy(group), max_size=8))
    def run(g, elems):
        A = FiniteSubset(group, elems)
        gA = translate(g, A)
        assert len(gA) == len(A)
        assert translate(group.inv(g), gA) == A

    run()


SET_TRANSLATE_GROUPS = [FreeAbelian(d) for d in (1, 2, 3, 4)] + [ZZ2, H]


def _random_element(rng, group):
    if isinstance(group, ZCrossZ2):
        return (rng.randint(-9, 9), rng.randint(0, 1))
    return tuple(rng.randint(-9, 9) for _ in group.identity)


@pytest.mark.parametrize("group", SET_TRANSLATE_GROUPS, ids=lambda g: g.name)
def test_set_translates_match_elementwise_mul(group):
    """Each group's set-level translates equal the per-element products;
    on ZxZ2 half the sampled g carry the bit, so t + s wraps."""
    rng = random.Random(f"set-translate-{group.name}")
    for _ in range(40):
        elems = {_random_element(rng, group) for _ in range(rng.randint(0, 12))}
        g = _random_element(rng, group)
        assert group.left_translate(g, elems) == {group.mul(g, a) for a in elems}
        assert group.right_translate(g, elems) == {group.mul(a, g) for a in elems}
        A = FiniteSubset(group, elems)
        assert translate(g, A).elements == {group.mul(g, a) for a in elems}


def test_heisenberg_left_and_right_translates_differ():
    x, y = (1, 0, 0), (0, 1, 0)
    assert H.left_translate(x, {y}) == {(1, 1, 1)}
    assert H.right_translate(x, {y}) == {(1, 1, 0)}


@pytest.mark.parametrize("group", SET_TRANSLATE_GROUPS, ids=lambda g: g.name)
def test_translate_checks_g_once_at_the_boundary(group):
    """The set-level translates check nothing per element, so
    translate must reject a bad g before calling them."""
    A = FiniteSubset(group, [group.identity, group.generators()[-1]])
    e = group.identity
    bad = [e + (0,), e[:-1], e[:-1] + (0.5,)]
    if isinstance(group, ZCrossZ2):
        bad.append((0, 2))
    for g in bad:
        with pytest.raises(ValueError):
            translate(g, A)


def test_set_product():
    A = FiniteSubset(Z, [(0,), (1,)])
    B = FiniteSubset(Z, [(10,), (20,)])
    assert set(set_product(A, B).elements) == {(10,), (11,), (20,), (21,)}
    assert set(B.inverse().elements) == {(-10,), (-20,)}


def test_mixed_groups_rejected():
    A = FiniteSubset(Z, [(0,)])
    B = FiniteSubset(Z2, [(0, 0)])
    with pytest.raises(ValueError):
        set_product(A, B)
    with pytest.raises(ValueError):
        Z.mul((1,), (1, 2))
    with pytest.raises(ValueError):
        FiniteSubset(ZZ2, [(0, 2)])


def test_element_serialization():
    assert format_group_element((1, 2)) == "(1,2)"
    assert format_group_element((3, 1)) == "(3,1)"
    assert format_group_element((1, 0, 0)) == "(1,0,0)"
    assert parse_group_element(Z2, "(1, 2)") == (1, 2)
    assert parse_group_element(ZZ2, "(-3,1)") == (-3, 1)
    with pytest.raises(ValueError):
        parse_group_element(Z, "(a)")
    with pytest.raises(ValueError):
        parse_group_element(Z2, "(1)")


def test_group_from_name():
    assert group_from_name("Z") == Z
    assert group_from_name("Z^2") == Z2
    assert group_from_name("zxz2") == ZZ2
    assert group_from_name("Heisenberg") == H
    with pytest.raises(ValueError):
        group_from_name("F2")


def test_iteration_is_sorted():
    A = FiniteSubset(Z2, [(1, 0), (-1, 2), (0, 0)])
    assert list(A) == [(-1, 2), (0, 0), (1, 0)]
