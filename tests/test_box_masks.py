"""The box bit masks behind Folner boundaries on every group, and behind
greedy tiling on Z^d and ZxZ2, against the set path they replace, which
stays the reference: it is what boundary, exterior, interior,
boundary_sizes and greedy_quasi_tile run when groups.box refuses a box,
as it does here when patched to."""

import os
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from entrolen import folner, tiling
from entrolen.folner import (
    boundary,
    boundary_size,
    boundary_sizes,
    Boxes,
    BoxTimesZ2,
    exterior,
    interior,
    WordBalls,
)
from entrolen.groups import (
    ball,
    box,
    BoxBits,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    ZCrossZ2,
)
from entrolen.tiling import greedy_quasi_tile, TilingFailed

SEED = int(os.environ.get("ENTROLEN_SEED", "0"))
GROUPS = [FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), ZCrossZ2()]
RADIUS = {1: 9, 2: 4, 3: 3}  # of the window a random set is drawn from


@contextmanager
def set_path(module):
    """Run module's routines with every box refused, i.e. on sets."""
    with mock.patch.object(module, "box", lambda *args, **kwargs: None):
        yield


def cols(S):
    """The columns of a set, as box and BoxBits.mask take it."""
    return list(zip(*S))


def _element(rng, group, r):
    if isinstance(group, ZCrossZ2):
        return (rng.randint(-r, r), rng.randint(0, 1))
    return tuple(rng.randint(-r, r) for _ in group.identity)


def _window(group):
    """The cells a random set is drawn from: a box around the identity."""
    if isinstance(group, ZCrossZ2):
        return [(n, t) for n in range(-12, 13) for t in (0, 1)]
    dim = len(group.identity)
    return _box(dim, RADIUS[dim])


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
            table = box(group, cols(A), [group.identity], len(A) * 100)
            mask = table.mask(cols(A))
            assert mask.bit_count() == len(A)
            assert table.members(mask) == A.elements
    assert BoxBits((0,), (3,)).members(0) == frozenset()


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_shift_is_the_left_translate(group):
    """group.shift(box, mask(A), g) is mask(gA) for every g with gA inside
    the box, the torsion bit of ZxZ2 included: these groups are abelian,
    so the box of the right translates holds the left ones."""
    rng = random.Random(SEED + 1)
    for _ in range(30):
        A = _sparse(rng, group, 0.4)
        G = _small(rng, group, 6)
        table = box(group, cols(A), [group.identity, *G], 100 * len(A))
        mask = table.mask(cols(A))
        for g in G:
            moved = group.left_translate(g, A.elements)
            assert group.shift(table, mask, g) == table.mask(cols(moved))
            assert table.members(group.shift(table, mask, g)) == moved


@pytest.mark.parametrize("group", [*GROUPS, Heisenberg()], ids=lambda g: g.name)
def test_boundary_calculus_masks_equal_sets(group):
    """Random sparse A with holes, C without e in most cases, on ZxZ2
    elements with the torsion bit, and on the Heisenberg group steps with
    a*y != 0: the three sets agree with the set path, and most cases do
    run on masks."""
    rng = random.Random(SEED + 2)
    boxed = 0
    for case in range(40):
        A = _sparse(rng, group, rng.choice([0.5, 0.7, 0.95]))
        C = _small(rng, group, rng.randint(1, 6), r=1 + case % 2)
        steps = [group.inv(c) for c in C]
        reach = [group.identity, *steps]
        boxed += box(group, cols(A), reach, folner.SPREAD * len(A)) is not None
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


@pytest.mark.parametrize("group", [*GROUPS, Heisenberg()], ids=lambda g: g.name)
def test_boundary_size_counts_the_boundary(group):
    """boundary_size is len(boundary) on masks, on sets, and on a set with
    one far element, for which groups.box refuses the box."""
    rng = random.Random(SEED + 5)
    for case in range(12):
        if isinstance(group, Heisenberg):
            A = FiniteSubset(group, rng.sample(sorted(ball(group, 3)), 40 + case))
            C = FiniteSubset(group, rng.sample(sorted(ball(group, 1)), 1 + case % 5))
        else:
            A = _sparse(rng, group, rng.choice([0.5, 0.9]))
            C = _small(rng, group, rng.randint(1, 5), r=1 + case % 2)
        assert boundary_size(A, C) == len(boundary(A, C))
        with set_path(folner):
            assert boundary_size(A, C) == len(boundary(A, C))
    far = tuple(10**8 if i == 0 else 0 for i in range(len(group.identity)))
    A = FiniteSubset(group, [*ball(group, 2), far])
    C = ball(group, 1)
    steps = [group.inv(c) for c in C]
    assert box(group, cols(A), [group.identity, *steps], folner.SPREAD * len(A)) is None
    assert boundary_size(A, C) == len(boundary(A, C)) > 0


@pytest.mark.parametrize("group", [*GROUPS, Heisenberg()], ids=lambda g: g.name)
def test_empty_set_has_empty_boundary_calculus(group):
    """An empty A, or empty steps, get no box; an empty A's exterior,
    interior and boundary are empty, and boundary_size counts 0."""
    A, C = FiniteSubset(group), ball(group, 1)
    assert box(group, cols(A), [group.identity], 100) is None
    assert box(group, cols(C), [], 100) is None
    assert [f(A, C) for f in (boundary, exterior, interior)] == [A] * 3
    assert boundary_size(A, C) == 0


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
        boxed += box(group, cols(A), reach, 4 * len(A)) is not None
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
    """An element such as (10^8, 0) in C or in a tile makes the box over
    folner.SPREAD times |A|, and so over the tiler's 4 |A|: no mask is
    built and the set path answers."""
    Z2 = FreeAbelian(2)
    A = FiniteSubset(Z2, _box(2, 3))
    far = FiniteSubset(Z2, [(0, 0), (10**8, 0)])
    assert box(Z2, cols(A), [(0, 0), (-(10**8), 0)], folner.SPREAD * len(A)) is None
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
    """greedy_quasi_tile builds no mask on the Heisenberg group, where a
    center's translate c*T is a left translate, not a shift."""
    H = Heisenberg()
    with _refuse_masks():
        assert _greedy(ball(H, 4), [ball(H, 1)], Fraction(1, 4))


def test_heisenberg_balls_fold_on_masks():
    """ball(n) of the Heisenberg group with C = ball(1) fits the default
    folner.SPREAD, so its boundaries are folded on masks, per window and
    over a run: no set is right translated, and they are the set path's."""
    H = Heisenberg()
    C, balls = ball(H, 1), [ball(H, n) for n in range(1, 7)]
    with set_path(folner):
        expected = [boundary(F, C) for F in balls]
    with mock.patch.object(Heisenberg, "right_translate", side_effect=AssertionError("sets")):
        assert [boundary(F, C) for F in balls] == expected
        assert list(boundary_sizes(H, WordBalls(H).shells(), C, 6)) == [
            (n, len(F), len(B)) for n, F, B in zip(range(1, 7), balls, expected)]


def _heisenberg_set(rng):
    """A random set in [-5, 5]^2 x [-8, 8] with holes: no ball, and with
    negative coordinates on every axis."""
    cells = [(a, b, c) for a in range(-5, 6) for b in range(-5, 6) for c in range(-8, 9)]
    return FiniteSubset(Heisenberg(), [h for h in cells if rng.random() < 0.3])


@pytest.mark.parametrize("group", [*GROUPS, Heisenberg()], ids=lambda g: g.name)
def test_right_shift_is_the_right_translate(group):
    """group.shift(box, mask(A), g) is mask(Ag) in the box that groups.box
    grants A and the steps with e; Ag = gA off the Heisenberg group, and
    on ZxZ2 some steps carry the torsion bit.  On the Heisenberg group the
    steps have |y| <= 3 and z != 0, so c moves by z + a*y."""
    rng = random.Random(SEED + 6)
    for _ in range(30):
        if isinstance(group, Heisenberg):
            A = _heisenberg_set(rng)
            steps = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.choice([-4, -1, 2, 5]))
                     for _ in range(6)]
        else:
            A, steps = _sparse(rng, group, 0.4), sorted(_small(rng, group, 6))
        table = box(group, cols(A), [group.identity, *steps], 100 * len(A))
        mask = table.mask(cols(A))
        for g in steps:
            moved = group.right_translate(g, A.elements)
            assert moved == group.left_translate(g, A.elements) or isinstance(group, Heisenberg)
            for h in moved:  # BoxBits.get raises outside the box
                table.get((h, 0))
            assert group.shift(table, mask, g) == table.mask(cols(moved))
            assert table.members(group.shift(table, mask, g)) == moved


def _coordinate_box(group, r):
    """The coordinate box of radius r, the torsion bit of ZxZ2 free."""
    if isinstance(group, ZCrossZ2):
        return FiniteSubset(group, [(n, t) for n in range(-r, r + 1) for t in (0, 1)])
    return FiniteSubset(group, _box(len(group.identity), r))


SCHEMES = [
    *(scheme(group) for group in GROUPS
      for scheme in (Boxes if isinstance(group, FreeAbelian) else BoxTimesZ2, WordBalls)),
    WordBalls(Heisenberg()),
]
N_MAX = {"Z": 12, "Z^2": 6, "Z^3": 3, "ZxZ2": 8, "Heisenberg": 4}


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.group.name}-{s.name}")
@pytest.mark.parametrize("shape", ["ball", "box"])
@pytest.mark.parametrize("r", [0, 1, 2, 4])
def test_boundary_sizes_equal_per_window_boundaries(monkeypatch, scheme, shape, r):
    """The masks of one run-wide table give each window's size and
    boundary as boundary_size does on that window, and as the set path's
    boundary does; the Heisenberg box C has steps with z != 0.  Both
    paths run whatever the table's size: on masks with SPREAD patched
    high, on per-window sets with SPREAD patched to 0."""
    group = scheme.group
    C = ball(group, r) if shape == "ball" else _coordinate_box(group, r)
    n_max = N_MAX[group.name]
    expected = []
    for n in range(1, n_max + 1):
        F = scheme.set_at(n)
        with set_path(folner):
            on_sets = len(boundary(F, C))
        assert boundary_size(F, C) == on_sets
        expected.append((n, len(F), on_sets))
    for spread in (folner.SPREAD, 10**9, 0):
        monkeypatch.setattr(folner, "SPREAD", spread)
        assert list(boundary_sizes(group, scheme.shells(), C, n_max)) == expected


@pytest.mark.parametrize("group, C, n_max", [
    (FreeAbelian(12), ball(FreeAbelian(12), 1), 2),
    (FreeAbelian(2), ball(FreeAbelian(2), 20), 1),
    (Heisenberg(), ball(Heisenberg(), 4), 4),
], ids=["Z^12-balls", "Z^2-wide-C", "Heisenberg-wide-C"])
def test_boundary_sizes_stay_on_sets_where_the_table_is_wide(group, C, n_max):
    """L1 balls of Z^12 fill under 1/10^7 of their hull's table (7^12
    cells for ball(2) C^{-1}, 313 cells in F_2), and a C much wider than
    the windows spans a table of many cells per window cell: no mask is
    built, and each window is measured on its own."""
    windows = WordBalls(group)
    with mock.patch.object(BoxBits, "mask", side_effect=AssertionError("mask built")):
        got = list(boundary_sizes(group, windows.shells(), C, n_max))
    assert got == [(n, len(F), boundary_size(F, C))
                   for n in range(1, n_max + 1) for F in [windows.set_at(n)]]
