import random
from dataclasses import astuple
from fractions import Fraction
from itertools import islice

import pytest

from entrolen import shift_modules
from entrolen.crossed_product import (
    act,
    CocycleData,
    frobenius_cocycle,
    parse_element,
    trivial_cocycle,
)
from entrolen.exact_linalg import (
    Echelon,
    PrimeField,
    QuadraticField,
    RationalField,
    rank_echelon,
    span,
    Subspace,
)
from entrolen.entropy import _splits
from entrolen.folner import Boxes, BoxTimesZ2, WordBalls
from entrolen.groups import (
    ball,
    FiniteSubset,
    FreeAbelian,
    Heisenberg,
    shells,
    translate,
    ZCrossZ2,
)
from entrolen.shift_modules import (
    _Packer,
    _quotient_split,
    _SplitRows,
    bernoulli,
    cyclic_presentation,
    parse_presentation_text,
    PresentationError,
    serialize_presentation,
    StabilizationConfig,
    SubshiftPresentation,
    trajectory_echelon,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()
Z = FreeAbelian(1)
ZZ2 = ZCrossZ2()

CZ2 = trivial_cocycle(GF2, Z)
CZ3 = trivial_cocycle(GF3, Z)
CX3 = trivial_cocycle(GF3, ZZ2)
CZQ = trivial_cocycle(QQ, Z)

BOXES = Boxes(Z)
BOXZ2 = BoxTimesZ2(ZZ2)

T_MINUS_1 = parse_element(GF3, Z, "2*(0) + 1*(1)")
E_PLUS_S = parse_element(GF3, ZZ2, "1*(0,0) + 1*(0,1)")


def zwindow(n):
    return BOXES.set_at(n)


def test_bernoulli_trajectory_dims():
    p = bernoulli(CZ3, 1)
    F = FiniteSubset(Z, [(k,) for k in range(-2, 3)])
    assert trajectory_echelon(p, F).dim == 5
    assert trajectory_echelon(p, FiniteSubset(Z, [])).dim == 0
    p3 = bernoulli(CZ3, 3)
    for n in range(1, 6):
        assert trajectory_echelon(p3, zwindow(n)).dim == 3 * (2 * n + 1)


def test_order_two_relation_halves_dimension():
    sub = cyclic_presentation(CX3, E_PLUS_S)
    for n in range(1, 8):
        assert trajectory_echelon(sub, BOXZ2.set_at(n)).dim == 2 * n + 1


def test_presentation_validation():
    with pytest.raises(ValueError):
        SubshiftPresentation(CZ3, 0, [])
    with pytest.raises(ValueError):
        SubshiftPresentation(CZ3, 1, [{}])
    with pytest.raises(ValueError):
        SubshiftPresentation(CZ3, 1, [{((0,), 3): 1}])
    with pytest.raises(ValueError):
        cyclic_presentation(CZ3, parse_element(GF3, Z, "0"))


def test_ses_dims_polynomial_hyperplane():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, T_MINUS_1)
    for n in (2, 5, 9):
        s = _quotient_split(M, N, zwindow(n))
        assert (s.dim_total, s.dim_intersection, s.dim_image) == (
            2 * n + 1,
            2 * n,
            1,
        )
        assert s.stabilized


def test_ses_dims_zero_submodule():
    M = bernoulli(CZ3, 1)
    zero = SubshiftPresentation(M.cocycle, M.rank, ())
    s = _quotient_split(M, zero, zwindow(4))
    assert (s.dim_total, s.dim_intersection, s.dim_image) == (9, 0, 9)
    assert s.stabilized


def test_ses_dims_full_submodule():
    M = bernoulli(CZ3, 1)
    s = _quotient_split(M, M, zwindow(4))
    assert (s.dim_total, s.dim_intersection, s.dim_image) == (9, 9, 0)
    assert s.stabilized


def test_quotient_dims():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, T_MINUS_1)
    for n in (1, 4, 7):
        q = _quotient_split(M, N, zwindow(n))
        assert q.dim_image == 1 and q.stabilized
    Mx = bernoulli(CX3, 1)
    Nx = cyclic_presentation(CX3, E_PLUS_S)
    for n in (1, 3, 6):
        q = _quotient_split(Mx, Nx, BOXZ2.set_at(n))
        assert q.dim_image == 2 * n + 1 and q.stabilized


def test_budget_exhaustion_is_flagged():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, T_MINUS_1)
    q = _quotient_split(
        M, N, zwindow(3), StabilizationConfig(stability_window=3, max_steps=0)
    )
    assert not q.stabilized
    # the unstabilized value is still an upper bound for the true quotient
    assert q.dim_image >= 1


def test_ses_dims_empty_window():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, T_MINUS_1)
    q = _quotient_split(M, N, FiniteSubset(Z, []))
    assert (q.dim_total, q.dim_intersection, q.dim_image) == (0, 0, 0)
    assert q.stabilized and q.steps == 3


def _coefficient(rng, field):
    if isinstance(field, RationalField):
        return rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3)])
    return rng.randrange(1, len(field.elements()))


def _random_presentation(rng, cocycle, rank, radius=1):
    """One to three generators on the ball of this radius with random
    nonzero coefficients (over Q: 1, -1 or 2/3)."""
    field, support = cocycle.field, ball(cocycle.group, radius).sorted_elements()
    labels = [(g, j) for g in support for j in range(rank)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(labels, min(rng.randint(1, 4), len(labels)))
        gens.append({l: _coefficient(rng, field) for l in support})
    return SubshiftPresentation(cocycle, rank, gens)


@pytest.mark.parametrize(
    "cocycle, radii",
    [
        (trivial_cocycle(GF3, FreeAbelian(2)), (1, 3)),
        (trivial_cocycle(GF3, ZZ2), (2, 6)),
        (frobenius_cocycle(QuadraticField(2), Z), (3, 9)),
        (trivial_cocycle(GF3, Heisenberg()), (1, 2)),
        (trivial_cocycle(QQ, FreeAbelian(2)), (1, 3)),
        (trivial_cocycle(QQ, Heisenberg()), (1, 2)),
    ],
    ids=["gf3-Z^2", "gf3-ZxZ2", "gf4-Z-frobenius", "gf3-Heisenberg", "q-Z^2",
         "q-Heisenberg"],
)
def test_quotient_split_matches_the_dict_kernel(monkeypatch, cocycle, radii):
    """The bit kernel, and over Q the integer rows, give the SesDims of
    the dict Echelon on Fraction rows."""
    rng = random.Random(29)
    budgets = (None, StabilizationConfig(stability_window=2, max_steps=1))
    for _ in range(4):
        rank = rng.randint(1, 2)
        M = _random_presentation(rng, cocycle, rank)
        N = _random_presentation(rng, cocycle, rank)
        for n in radii:
            for approx in budgets:
                F = ball(cocycle.group, n)
                fast = _quotient_split(M, N, F, approx)
                with monkeypatch.context() as m:
                    m.setattr(shift_modules, "rank_echelon", Echelon)
                    assert _quotient_split(M, N, F, approx) == fast


@pytest.mark.parametrize(
    "cocycle, scheme, order",
    [
        (trivial_cocycle(GF3, FreeAbelian(2)), Boxes(FreeAbelian(2)), (1, 2, 3, 1, 4)),
        (CX3, BOXZ2, (1, 2, 4, 6, 3, 1, 4)),
        (trivial_cocycle(GF3, Heisenberg()), WordBalls(Heisenberg()), (1, 2, 1, 3)),
        (frobenius_cocycle(QuadraticField(2), Z), BOXES, (1, 3, 6, 3, 1, 4)),
        (trivial_cocycle(RationalField(), Z), BOXES, (1, 3, 6, 3, 1, 4)),
        (trivial_cocycle(PrimeField(5), Z), BOXES, (1, 3, 6, 3, 1, 4)),
        (trivial_cocycle(QQ, FreeAbelian(2)), Boxes(FreeAbelian(2)), (1, 2, 3, 1, 4)),
        (trivial_cocycle(QQ, ZZ2), BOXZ2, (1, 2, 4, 6, 3, 1, 4)),
    ],
    ids=["gf3-Z^2-boxes", "gf3-ZxZ2-boxz2", "gf3-Heisenberg-balls",
         "gf4-Z-frobenius", "q-Z", "gf5-Z", "q-Z^2-boxes", "q-ZxZ2"],
)
def test_shared_split_rows_equal_fresh_splits(cocycle, scheme, order):
    """One _SplitRows carried across the windows F_n, n in order, gives on
    each window all seven SesDims fields of a split with a fresh one.  The
    order nests, then restarts (F_3, F_1, F_4: each echelon starts over),
    under the default budget, max_steps=0 and stability_window=1.  Each
    window runs twice; the second run grows nothing, so it equals the
    first only if the window's copies left the running V and T + V as
    they were.

    Then the budget changes between windows of one _SplitRows, so that
    E = ball(steps) * F and F do not nest together: F_1 under max_steps=3,
    then F_2 under max_steps=0 (F nests, E shrinks), F_2 and F_3 under
    the default, F_3 under max_steps=0 (E shrinks), and F_2 under the
    default (E, about ball(3) * F_2, holds F_3, but F shrinks), then F_4.
    The image may be carried over only when both nest."""
    rng = random.Random(37)
    budgets = (None, StabilizationConfig(max_steps=0), StabilizationConfig(stability_window=1))
    three, zero = StabilizationConfig(max_steps=3), StabilizationConfig(max_steps=0)
    mixed = ((1, three), (2, zero), (2, None), (3, None), (3, zero), (2, None), (4, None))
    for _ in range(2):
        rank = rng.randint(1, 2)
        M = _random_presentation(rng, cocycle, rank)
        N = _random_presentation(rng, cocycle, rank)
        for approx in budgets:
            rows = _SplitRows(M, N)
            for n in order:
                F = scheme.set_at(n)
                fresh = astuple(_quotient_split(M, N, F, approx))
                for _ in range(2):
                    assert astuple(_quotient_split(M, N, F, approx, rows)) == fresh
        # and free of rank 2 by one generator, whose image grows with F,
        # moved off e so that the N translates beyond F matter
        g = cocycle.group.generators()[-1]
        far = SubshiftPresentation(cocycle, 2, [act(g, N.generators[0], cocycle)])
        free = (bernoulli(cocycle, 2), far)
        for M, N in ((M, N), free):
            rows = _SplitRows(M, N)
            for n, approx in mixed:
                F = scheme.set_at(n)
                fresh = astuple(_quotient_split(M, N, F, approx))
                assert astuple(_quotient_split(M, N, F, approx, rows)) == fresh, (n, approx)


def _odd_rho(field):
    """A caller-supplied rho whose values move with g, not with the sigma
    exponent class of g alone."""
    return lambda g, h: field.one if (g[0] + g[-1] * h[0]) % 2 == 0 else 2  # -1 or w


_PACKER_GROUPS = (Z, FreeAbelian(2), ZZ2, Heisenberg())
_PACKER_COCYCLES = [
    *(CocycleData(field, G, frobenius) for G in _PACKER_GROUPS
      for field, frobenius in ((GF2, False), (GF3, False), (QuadraticField(2), False),
                               (QuadraticField(2), True))),
    CocycleData(GF3, FreeAbelian(2), rho=_odd_rho(GF3)),
    CocycleData(QuadraticField(2), Heisenberg(), True, _odd_rho(QuadraticField(2))),
]


@pytest.mark.parametrize("cocycle", _PACKER_COCYCLES, ids=repr)
def test_packer_rows_equal_act_and_pack(monkeypatch, cocycle, box=False):
    """For every g of a window, all at once in the descending scan, then
    one at a time in a random order, a _Packer's rows are
    root.pack(act(g, v, c)) bit for bit: on the bit kernel, plain and
    Frobenius, and for a caller-supplied rho, which keeps act + pack, at
    ranks 1 and 2 on a table packer, whose table ends with the same labels
    in the same order as the table of those packs.  With box set (the
    inputs of test_exact_linalg.test_box_shifts_equal_packed_act), the
    packer is the box packer that entropy._box_rows grants around ball(3),
    at ranks 1-3 with generator terms on ball(2), and the rows are packed
    on its own groups.BoxBits.  Without a rho the packer calls act once per
    generator and sigma exponent class."""
    from entrolen.entropy import _box_rows
    from entrolen.folner import default_scheme

    calls = []
    monkeypatch.setattr(shift_modules, "act", lambda g, v, c: calls.append(g) or act(g, v, c))
    rng = random.Random(53)
    group, order = cocycle.group, cocycle.field.auto_order
    window = ball(group, 3).sorted_elements()[::-1]
    for rank in (1, 2, 3) if box else (1, 2):
        p = _random_presentation(rng, cocycle, rank, 2 if box else 1)
        if box:
            packer = _box_rows(p, lambda: default_scheme(group).set_at(3))
            reference = packer.root
            assert packer.covers(window)
        else:
            packer, reference = _Packer(p, rank_echelon(cocycle.field)), rank_echelon(cocycle.field)
        calls.clear()

        def packed(gs):
            return [reference.pack(act(g, v, cocycle)) for g in gs for v in p.generators]

        assert list(packer.rows(window)) == packed(window)
        for g in rng.sample(window, len(window)):
            assert list(packer.rows([g])) == packed([g])
        if cocycle.rho is None:
            classes = {cocycle.sigma_exp(g) % order for g in window}
            assert len(calls) == len(p.generators) * len(classes)
        if not box:
            assert list(packer.root.bits) == list(reference.bits)


def _shell_case(cocycle, *windows):
    """(cocycle, window element sets, whether each one restarts the chain)
    from (window, restarts) pairs."""
    return cocycle, [F.elements for F, _ in windows], [r for _, r in windows]


_Z2 = FreeAbelian(2)
_H = Heisenberg()


@pytest.mark.parametrize(
    "cocycle, windows, restarts",
    [
        # on Z every interval [-n, n] is a level of the chain from [-1, 1]:
        # the order nests, goes back and repeats; then a translate, the
        # empty window and {e} each restart it
        _shell_case(CZ3, (zwindow(1), True), (zwindow(2), False), (zwindow(4), False),
                    (zwindow(3), False), (zwindow(1), False), (zwindow(5), False),
                    (translate((1,), zwindow(1)), True), (zwindow(2), True),
                    (FiniteSubset._raw(Z, frozenset()), True), (zwindow(0), True)),
        # S*box(n) is no box on Z^2, but S*ball(n) = ball(n + 1)
        _shell_case(trivial_cocycle(GF3, _Z2),
                    *((Boxes(_Z2).set_at(n), True) for n in (1, 2)),
                    (ball(_Z2, 2), True), (ball(_Z2, 3), False), (ball(_Z2, 2), False),
                    (Boxes(_Z2).set_at(1), True), (ball(_Z2, 4), True),
                    (ball(_Z2, 4), False), (Boxes(_Z2).set_at(3), True)),
        _shell_case(CX3, *((BOXZ2.set_at(n), i == 0) for i, n in enumerate((1, 2, 4, 3, 1, 5)))),
        # ball(1) holds {e}, so {e} restarts the chain; ball(2) is its level 2
        _shell_case(trivial_cocycle(GF3, _H),
                    *((ball(_H, n), i in (0, 4)) for i, n in enumerate((1, 2, 1, 3, 0, 2)))),
    ],
    ids=["gf3-Z", "gf3-Z^2", "gf3-ZxZ2-boxz2", "gf3-Heisenberg-balls"],
)
def test_split_rows_shells_equal_fresh_shells(cocycle, windows, restarts):
    """The shells that one _SplitRows yields beyond each window, taken one
    to four at a time, are those groups.shells grows from the window, each
    with its packed N rows; a window that is a level of the run's chain
    reads them from the chain, and any other restarts it."""
    rng = random.Random(89)
    M, N = (_random_presentation(rng, cocycle, 1) for _ in range(2))
    rows = _SplitRows(M, N)
    for i, (F, restart) in enumerate(zip(windows, restarts)):
        chain, k = rows.chain, 1 + i % 4
        got = list(islice(rows.shells(F), k))
        want = list(islice(shells(cocycle.group, F), 1, k + 1))
        assert [shell for shell, _ in got] == want, i
        assert [packed for _, packed in got] == [
            tuple(rows.translates(rows.N, shell)) for shell in want
        ]
        assert (rows.chain is not chain) == restart, i


@pytest.mark.parametrize(
    "cocycle, scheme, n_max, far",
    [
        (trivial_cocycle(GF3, FreeAbelian(2)), Boxes(FreeAbelian(2)), 15, 0),
        (CX3, BOXZ2, 20, 0),
        (trivial_cocycle(GF3, Heisenberg()), WordBalls(Heisenberg()), 4, 0),
        (frobenius_cocycle(QuadraticField(2), Z), BOXES, 20, 0),
        (CZ3, BOXES, 20, 6),
        (trivial_cocycle(QQ, Z), BOXES, 20, 6),
        (trivial_cocycle(QQ, ZZ2), BOXZ2, 20, 0),
    ],
    ids=["gf3-Z^2-boxes", "gf3-ZxZ2-boxz2", "gf3-Heisenberg-balls",
         "gf4-Z-frobenius", "gf3-Z-far", "q-Z-far", "q-ZxZ2-boxz2"],
)
def test_long_runs_match_the_dict_kernel(monkeypatch, cocycle, scheme, n_max, far):
    """_splits over many nested windows gives every SesDims field of every
    window alike on the bit kernel, whose running V and T + V are
    back-substituted a few new rows at a time, once per window's copy, or
    over Q on integer rows, and on the dict kernel's Fraction rows.  With
    far > 0, N's generator also gets a term far steps off e, whose
    translates meet T only on later windows."""
    rng = random.Random(43)
    for _ in range(2):
        rank = rng.randint(1, 2)
        M = _random_presentation(rng, cocycle, rank)
        N = _random_presentation(rng, cocycle, rank)
        if far:
            gen = dict(N.generators[0])
            gen[(far,), 0] = cocycle.field.one
            N = SubshiftPresentation(cocycle, rank, [gen, *N.generators[1:]])
        fast = _splits(M, N, scheme, n_max, None)
        with monkeypatch.context() as m:
            m.setattr(shift_modules, "rank_echelon", Echelon)
            assert _splits(M, N, scheme, n_max, None) == fast


def _poly_mod(field, a, b):
    """a mod b for coefficient lists over field, lowest degree first, with
    no trailing zeros; Euclid's division step by step, exact over Q too."""
    a, inv = list(a), field.inv(b[-1])
    while len(a) >= len(b):
        c, shift = field.mul(a[-1], inv), len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(c, bi))
        while a and not a[-1]:
            a.pop()
    return a


def _poly_gcd(field, a, b):
    while b:
        a, b = b, _poly_mod(field, a, b)
    return a


def _poly(field, vec):
    """A rank-1 vector over K[Z] as a polynomial times the unit t^-low."""
    low = min(g for (g,), _ in vec)
    p = [field.zero] * (max(g for (g,), _ in vec) - low + 1)
    for ((g,), _), c in vec.items():
        p[g - low] = c
    return p


def _gcd_oracle_pairs(seed, cocycle=CZ3, count=60, reach=10):
    """count rank-1 pairs M = (m), N = (g_1[, g_2]) over K[Z], K = GF(3) or
    Q, with one to three terms per generator at offsets in [-reach, reach],
    each with the dimension of the image of T_F(M) in K[Z]/N as a function
    of |F|.

    K[t^+-1] is a PID, so (M + N)/N = (gcd(g, m))/(g) is K[t]/(h) for
    g = gcd of N's generators and h = g / gcd(g, m), with m a unit modulo
    h; the images of t^k m for k in an interval of |F| integers then span
    min(|F|, deg h) dimensions."""
    rng, field = random.Random(seed), cocycle.field

    def coefficient():
        if field == QQ:
            return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        return rng.randint(1, 2)

    def generator():
        offsets = rng.sample(range(-reach, reach + 1), rng.randint(1, 3))
        return {((k,), 0): coefficient() for k in offsets}

    for _ in range(count):
        M = SubshiftPresentation(cocycle, 1, [generator()])
        N = SubshiftPresentation(cocycle, 1, [generator() for _ in range(rng.randint(1, 2))])
        g = _poly(field, N.generators[0])
        for v in N.generators[1:]:
            g = _poly_gcd(field, g, _poly(field, v))
        deg_h = len(g) - len(_poly_gcd(field, g, _poly(field, M.generators[0])))
        yield M, N, lambda size, d=deg_h: min(size, d)


def _oracle_windows(seed, cocycle=CZ3):
    """(window, SesDims, oracle image dimension) over F_n = [-n, n], n <= 6."""
    for M, N, oracle in _gcd_oracle_pairs(seed, cocycle):
        for n, size, split in _splits(M, N, BOXES, 6, None):
            yield (M.generators, N.generators, n), split, oracle(size)


@pytest.mark.parametrize("seed", [0, 1])
def test_quotient_image_is_at_least_the_gcd_oracle(seed):
    """V lies in N, so no window's image is below the exact one."""
    low = [(w, s.dim_image, want) for w, s, want in _oracle_windows(seed)
           if s.dim_image < want]
    assert not low


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", [0, 1])
def test_stabilized_quotient_image_equals_the_gcd_oracle(seed):
    """A window flagged stabilized should carry the exact image dimension;
    with generators up to 10 steps from e the stopping rule stops early."""
    wrong = [(w, s.dim_image, want) for w, s, want in _oracle_windows(seed)
             if s.stabilized and s.dim_image != want]
    assert not wrong


@pytest.mark.parametrize("seed", [0, 1])
def test_quotient_image_over_q_is_at_least_the_gcd_oracle(seed):
    """The same referee over Q[Z], by Euclid on Fraction coefficients,
    for the quotient rows on primitive integer rows."""
    windows = list(_oracle_windows(seed, CZQ))
    assert len(windows) == 360
    low = [(w, s.dim_image, want) for w, s, want in windows if s.dim_image < want]
    assert not low


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", [0, 1])
def test_stabilized_quotient_image_over_q_equals_the_gcd_oracle(seed):
    """Over Q the stopping rule stops early on the same kind of inputs."""
    wrong = [(w, s.dim_image, want) for w, s, want in _oracle_windows(seed, CZQ)
             if s.stabilized and s.dim_image != want]
    assert not wrong


def test_stabilization_config_validation():
    with pytest.raises(ValueError):
        StabilizationConfig(stability_window=0)
    with pytest.raises(ValueError):
        StabilizationConfig(max_steps=-1)


def test_intersection_dim_monotone_in_budget():
    M = bernoulli(CZ3, 1)
    N = cyclic_presentation(CZ3, parse_element(GF3, Z, "1*(2) + 2*(0)"))
    F = zwindow(5)
    caps = []
    for steps in range(5):
        s = _quotient_split(M, N, F, StabilizationConfig(stability_window=5, max_steps=steps))
        caps.append(s.dim_intersection)
    assert caps == sorted(caps)


def test_union_additivity_and_monotonicity():
    rng = random.Random(17)
    p = cyclic_presentation(CZ3, parse_element(GF3, Z, "1*(0) + 1*(1) + 2*(3)"))
    for _ in range(30):
        F1 = FiniteSubset(Z, [(rng.randrange(-5, 6),) for _ in range(rng.randrange(1, 5))])
        F2 = FiniteSubset(Z, [(rng.randrange(-5, 6),) for _ in range(rng.randrange(1, 5))])
        union = F1.union(F2)
        t1, t2, tu = (
            Subspace.from_echelon(trajectory_echelon(p, F)) for F in (F1, F2, union)
        )
        # T_{F1 u F2} = T_{F1} + T_{F2}
        assert tu == span(p.field, t1.basis_rows() + t2.basis_rows())
        assert tu.dim <= t1.dim + t2.dim
        if F1.is_subset(F2):
            assert t1.dim <= t2.dim


def test_equivariance_and_generator_bound():
    rng = random.Random(23)
    p = cyclic_presentation(CX3, E_PLUS_S)
    coeff_dim = p.coefficient_span().dim
    for _ in range(30):
        F = FiniteSubset(
            ZZ2,
            [
                (rng.randrange(-4, 5), rng.randrange(2))
                for _ in range(rng.randrange(1, 6))
            ],
        )
        g = (rng.randrange(-4, 5), rng.randrange(2))
        gF = translate(g, F)
        assert trajectory_echelon(p, gF).dim == trajectory_echelon(p, F).dim
        assert trajectory_echelon(p, F).dim <= len(F) * coeff_dim


def test_serialize_parse_roundtrip():
    p = SubshiftPresentation(
        CX3, 2, [{((0, 0), 0): 1, ((1, 1), 1): 2}, {((0, 1), 0): 1}]
    )
    text = serialize_presentation(p)
    q = parse_presentation_text(text)
    assert q == p
    assert serialize_presentation(q) == text


def test_serialize_writes_only_what_parse_reads():
    def f(g):
        return 2 if g == (1,) else 1

    def rho(g, h):  # a coboundary: a valid cocycle the cocycle= header cannot name
        return GF3.mul(GF3.mul(f(g), f(h)), GF3.inv(f(Z.mul(g, h))))

    assert rho((1,), (-1,)) == 2
    gens = [{((0,), 0): 1, ((1,), 0): 2}]
    twisted = SubshiftPresentation(CocycleData(GF3, Z, rho=rho), 1, gens)
    with pytest.raises(ValueError, match="rho"):
        serialize_presentation(twisted)
    p = SubshiftPresentation(CocycleData(GF3, Z), 1, gens)
    text = serialize_presentation(p)
    assert "cocycle=trivial\n" in text
    q = parse_presentation_text(text)
    assert q == p and q.cocycle == CZ3
    assert serialize_presentation(q) == text


def test_parse_headers_and_defaults():
    p = parse_presentation_text("group=Z\nfield=gf3\nrank=1\n(0)|1|1\n")
    assert p.cocycle.label == "trivial"
    assert p.rank == 1
    p2 = parse_presentation_text(
        "group=Z\nfield=gf4\ncocycle=frobenius\nrank=1\n(0)|1|1\n"
    )
    assert p2.cocycle.label == "frobenius"


def test_parse_duplicate_keys_summed():
    p = parse_presentation_text("group=Z\nfield=gf3\nrank=1\n(0)|1|1;(0)|1|1\n")
    assert p.generators[0] == {((0,), 0): 2}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("group=Z\nfield=gf2\nrank=1\n(0)|0|1\n", "zero coefficient"),
        ("group=Z\nfield=gf2\nrank=1\n(0)|1|9\n", "coordinate"),
        ("group=Z\nfield=gf2\nrank=1\n(0)|1|1;(0)|1|1\n", "vanishes"),
        ("group=Z\nfield=gf2\nrank=1\nnonsense line\n", "key=value"),
        ("group=Z\nrank=1\n(0)|1|1\n", "missing header"),
        ("group=Z\nfield=gf2\nrank=1\nvolume=3\n(0)|1|1\n", "unknown header"),
        ("group=Z\nfield=gf3\ncocycle=frobenius\nrank=1\n(0)|1|1\n", "quadratic"),
        (
            "group=Z\nfield=gf2\ngroup=Z\nrank=1\n(0)|1|1\n",
            "line 3, col 1: duplicate header 'group'",
        ),
        ("field=gf2\ngroup=Q\nrank=1\n(0)|1|1\n", "line 2, col 1: unknown group 'Q'"),
        (
            "# header\ngroup=Z\nrank=1\nfield=gf6\n(0)|1|1\n",
            "line 4, col 1: unsupported field size 6",
        ),
        ("rank=x\ngroup=Z\nfield=gf2\n(0)|1|1\n", "line 1, col 1: bad rank 'x'"),
        ("group=Z\nfield=gf2\nrank=0\n(0)|1|1\n", "line 3, col 1: rank must be >= 1"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(PresentationError) as err:
        parse_presentation_text(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "line,col,fragment",
    [
        ("(0)|1|1;(0)|1|", 9, "bad coordinate '' in '(0)|1|'"),
        ("(0)|1|1; (0)|1|", 10, "bad coordinate '' in '(0)|1|'"),
        ("(0)|1|1;(0)|0|1", 9, "zero coefficient in term '(0)|0|1'"),
        ("(0)|1|1;(1)|1|1;(0)|1|1;(1)|1|1", 25, "vanishes"),
        ("(1)|1|1 ; (0)|1", 11, "expected (g)|coeff|coord"),
        ("  (5)|0|1", 3, "zero coefficient in term '(5)|0|1'"),
    ],
)
def test_file_term_errors_name_their_column(line, col, fragment):
    with pytest.raises(PresentationError) as err:
        parse_presentation_text(f"group=Z\nfield=gf2\nrank=1\n{line}\n")
    assert (err.value.line, err.value.col) == (4, col)
    assert fragment in err.value.message


def test_parse_error_location():
    with pytest.raises(PresentationError) as err:
        parse_presentation_text("group=Z\nfield=gf2\nrank=1\n(0)|1|1;(5)|0|1\n")
    assert err.value.line == 4
    assert err.value.col > 1
