"""The box bit masks behind Folner boundaries and greedy tiling on Z^d and
ZxZ2 against the set path they replace, which stays the reference: it is
what boundary, exterior, interior and greedy_quasi_tile run when
groups.hull_box refuses a box, as it does here when patched to."""

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from entrolen import folner, tiling
from entrolen.folner import boundary, exterior, interior
from entrolen.groups import (
    ball,
    BoxBits,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    hull_box,
    ZCrossZ2,
)
from entrolen.tiling import greedy_quasi_tile, TilingFailed

SEED = int(os.environ.get("ENTROLEN_SEED", "0"))
GROUPS = [FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), ZCrossZ2()]
RADIUS = {1: 9, 2: 4, 3: 3}  # of the window a random set is drawn from


@contextmanager
def set_path(module):
    """Run module's routines with every box refused, i.e. on sets."""
    with mock.patch.object(module, "hull_box", lambda *args, **kwargs: None):
        yield


def cols(S):
    """The columns of a set, as hull_box and BoxBits.mask take it."""
    return list(zip(*S))


def _element(rng, group, r):
    if isinstance(group, ZCrossZ2):
        return (rng.randint(-r, r), rng.randint(0, 1))
    return tuple(rng.randint(-r, r) for _ in range(group.dim))


def _window(group):
    """The cells a random set is drawn from: a box around the identity."""
    if isinstance(group, ZCrossZ2):
        return [(n, t) for n in range(-12, 13) for t in (0, 1)]
    return _box(group.dim, RADIUS[group.dim])


def _box(dim, r):
    if dim == 1:
        return [(a,) for a in range(-r, r + 1)]
    return [(a, *h) for a in range(-r, r + 1) for h in _box(dim - 1, r)]


def _sparse(rng, group, density):
    """A random subset of _window(group) with holes, never empty."""
    cells = _window(group)
    picked = [h for h in cells if rng.random() < density]
    return FiniteSubset(group, picked or cells[:1])


def _small(rng, group, size, r=2):
    """A random set of up to size elements near the identity; e need not
    be in it, and on ZxZ2 some elements carry the torsion bit."""
    return FiniteSubset(group, {_element(rng, group, r) for _ in range(size)})


def test_mask_and_members_invert_each_other():
    rng = random.Random(SEED)
    for group in GROUPS:
        for _ in range(20):
            A = _sparse(rng, group, rng.choice([0.2, 0.5, 0.9]))
            box = hull_box(group, (cols(A), cols([group.identity])), len(A) * 100)
            mask = box.mask(cols(A))
            assert mask.bit_count() == len(A)
            assert box.members(mask) == A.elements
    assert BoxBits((0,), (3,)).members(0) == frozenset()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_shift_is_the_left_translate(group):
    """group.shift(box, mask(A), g) is mask(gA) for every g with gA inside
    the box, the torsion bit of ZxZ2 included."""
    rng = random.Random(SEED + 1)
    for _ in range(30):
        A = _sparse(rng, group, 0.4)
        G = _small(rng, group, 6)
        box = hull_box(group, (cols(A), cols([group.identity, *G])), 100 * len(A))
        mask = box.mask(cols(A))
        for g in G:
            moved = group.left_translate(g, A.elements)
            assert group.shift(box, mask, g) == box.mask(cols(moved))
            assert box.members(group.shift(box, mask, g)) == moved


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_boundary_calculus_masks_equal_sets(group):
    """Random sparse A with holes, C without e in most cases, and on ZxZ2
    elements with the torsion bit: the three sets agree with the set
    path, and most cases do run on masks."""
    rng = random.Random(SEED + 2)
    boxed = 0
    for case in range(40):
        A = _sparse(rng, group, rng.choice([0.5, 0.7, 0.95]))
        C = _small(rng, group, rng.randint(1, 6), r=1 + case % 2)
        steps = [group.inv(c) for c in C]
        boxed += hull_box(group, (cols(A), cols([group.identity, *steps])), len(A)) is not None
        got = [f(A, C) for f in (boundary, exterior, interior)]
        with set_path(folner):
            assert got == [f(A, C) for f in (boundary, exterior, interior)]
    assert boxed >= 20, boxed
    if isinstance(group, ZCrossZ2):
        C = FiniteSubset(group, [(1, 1), (-2, 1)])
        A = _sparse(rng, group, 0.6)
        with set_path(folner):
            expected = boundary(A, C)
        assert boundary(A, C) == expected


def _greedy(A, tiles, eps):
    try:
        return greedy_quasi_tile(A, tiles, eps).centers
    except TilingFailed as exc:
        return ("failed", str(exc), exc.cover)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_greedy_masks_equal_sets(group):
    """Same centers, or the same TilingFailed and cover, as the set path,
    on random targets with holes and random tiles."""
    rng = random.Random(SEED + 3)
    boxed = placed = 0
    for case in range(25):
        A = _sparse(rng, group, rng.choice([0.7, 0.9, 1.0]))
        tiles = [_small(rng, group, rng.randint(1, 5), r=1) for _ in range(rng.randint(1, 3))]
        if case % 2:  # a one-cell tile fills what the others leave
            tiles.append(_small(rng, group, 1))
        eps = rng.choice([Fraction(1, 10), Fraction(1, 5), Fraction(1, 4)])
        reach = [group.identity, *(h for T in tiles for h in T)]
        boxed += hull_box(group, (cols(A), cols(reach)), len(A)) is not None
        got = _greedy(A, tiles, eps)
        placed += got[0] != "failed"
        with set_path(tiling):
            assert got == _greedy(A, tiles, eps)
    assert boxed >= 15 and placed >= 5, (boxed, placed)


def _refuse_masks():
    def refused(*args):
        raise AssertionError("a mask was built")

    return mock.patch.object(BoxBits, "mask", refused)


def test_far_element_gets_no_box():
    """An element such as (10^8, 0) in C or in a tile makes the box over 4
    times |A|: no mask is built and the set path answers."""
    Z2 = FreeAbelian(2)
    A = FiniteSubset(Z2, _box(2, 3))
    far = FiniteSubset(Z2, [(0, 0), (10**8, 0)])
    assert hull_box(Z2, (cols(A), cols([(0, 0), (-(10**8), 0)])), len(A)) is None
    with _refuse_masks():
        got = boundary(A, far), exterior(A, far), interior(A, far)
    shifted = {(a - 10**8, b) for a, b in A.elements}
    assert got[1].elements == A.elements | shifted
    assert got[2].elements == frozenset()
    assert got[0] == got[1]
    with _refuse_masks(), pytest.raises(TilingFailed) as failed:
        greedy_quasi_tile(A, [far], Fraction(1, 4))
    assert failed.value.cover == 0
    with set_path(tiling), pytest.raises(TilingFailed) as reference:
        greedy_quasi_tile(A, [far], Fraction(1, 4))
    assert str(failed.value) == str(reference.value)


def test_heisenberg_stays_on_sets():
    H = Heisenberg()
    A, C = ball(H, 3), ball(H, 1)
    assert hull_box(H, (cols(A), cols(C)), len(A)) is None
    with _refuse_masks():
        assert boundary(A, C).elements == exterior(A, C).elements - interior(A, C).elements
        assert _greedy(ball(H, 4), [C], Fraction(1, 4))
