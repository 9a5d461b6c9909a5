import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrolen.exact_linalg import (
    _is_prime,
    _quadratic_modulus,
    BitEchelon,
    Echelon,
    field_from_name,
    intersect,
    PrimeField,
    QuadraticField,
    RationalField,
    rank_echelon,
    span,
    Subspace,
)
from entrolen.groups import ball, FreeAbelian, Heisenberg, ZCrossZ2

from linalg_reference import gauss_jordan, normal_form, quotient_dim, span_dim

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF4 = QuadraticField(2)
GF5 = PrimeField(5)
GF9 = QuadraticField(3)
QQ = RationalField()

FINITE_FIELDS = [GF2, GF3, GF4, GF5, GF9]


@pytest.mark.parametrize("field", FINITE_FIELDS, ids=lambda f: f.name)
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    sample = elems if len(elems) <= 5 else elems[:5]
    for x in elems:
        assert field.add(x, field.zero) == x
        assert field.mul(x, field.one) == x
        assert field.add(x, field.neg(x)) == field.zero
        if x:
            assert field.mul(x, field.inv(x)) == field.one
    for x, y, z in itertools.product(sample, repeat=3):
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(
            field.mul(x, y), field.mul(x, z)
        )
        assert field.mul(x, y) == field.mul(y, x)
        assert field.submul(x, y, z) == field.sub(x, field.mul(y, z))


def test_rational_field():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.fmt(Fraction(3)) == "3/1"


def test_quadratic_modulus_is_lexicographically_smallest():
    assert GF4.modulus == (1, 1)  # x^2 + x + 1
    assert GF9.modulus == (0, 1)  # x^2 + 1


def test_gf4_structure():
    w = GF4.make(0, 1)
    w2 = GF4.mul(w, w)
    assert w2 == GF4.make(1, 1)  # w^2 = w + 1
    assert GF4.mul(w, w2) == GF4.one  # w^3 = 1
    assert GF4.add(w, w) == GF4.zero  # characteristic 2


@pytest.mark.parametrize("field", [GF4, GF9], ids=lambda f: f.name)
def test_frobenius(field):
    for x in field.elements():
        assert field.frobenius(field.frobenius(x)) == x
        for y in field.elements():
            assert field.frobenius(field.mul(x, y)) == field.mul(
                field.frobenius(x), field.frobenius(y)
            )
    assert field.apply_auto(field.make(0, 1), 2) == field.make(0, 1)


@pytest.mark.parametrize("field", [GF4, GF9, QuadraticField(5)], ids=lambda f: f.name)
def test_frobenius_is_pth_power(field):
    for x in field.elements():
        power = x
        for _ in range(field.p - 1):
            power = field.mul(power, x)
        assert field.frobenius(x) == power


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_is_exact_below_its_bound():
    assert [n for n in range(5000) if _is_prime(n)] == [
        n for n in range(5000) if _trial_division_prime(n)
    ]
    # Carmichael numbers, and the least strong pseudoprimes to the first
    # 1, 2, 4, 7, 9 and 12 prime bases
    for n in (561, 1105, 2047, 1373653, 3215031751, 341550071728321,
              3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1)
    assert _is_prime(2**31 - 1)
    with pytest.raises(ValueError, match="unsupported field size"):
        _is_prime(2**89 - 1)  # prime, but above the proven bound


def test_quadratic_modulus_matches_root_search():
    for p in (n for n in range(2, 120) if _trial_division_prime(n)):
        first = next(
            (a, b)
            for a in range(p)
            for b in range(p)
            if all((t * t + a * t + b) % p for t in range(p))
        )
        assert _quadratic_modulus(p) == first


def test_field_parse_fmt_roundtrip():
    for field in FINITE_FIELDS:
        for x in field.elements():
            assert field.parse(field.fmt(x)) == x
    assert GF3.parse("-1") == 2
    assert GF4.parse("1") == GF4.one


def test_field_from_name():
    assert field_from_name("gf2") == GF2
    assert field_from_name("gf4") == GF4
    assert field_from_name("gf9") == GF9
    assert field_from_name("q") == QQ
    with pytest.raises(ValueError):
        field_from_name("gf6")
    with pytest.raises(ValueError):
        field_from_name("gf8")  # p^3 unsupported
    with pytest.raises(ValueError):
        field_from_name("gf1")
    big = 2**61 - 1
    assert field_from_name(f"gf{big}") == PrimeField(big)
    assert field_from_name(f"gf{big * big}") == QuadraticField(big)


def test_span_examples():
    assert span_dim(GF2, [{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert span_dim(GF2, []) == 0
    monomials = [{k: 1} for k in range(-2, 3)]
    assert span_dim(GF3, monomials) == 5


def test_membership_examples():
    V = span(GF2, [{0: 1, 1: 1}])
    U = span(GF2, [{0: 1}, {1: 1}])
    assert V.contains({})
    assert U.contains({0: 1, 1: 1})
    assert not V.contains({0: 1})


def test_intersect_examples():
    U = span(QQ, [{0: Fraction(1)}, {1: Fraction(1)}])
    V = span(QQ, [{0: Fraction(1), 1: Fraction(1)}])
    assert intersect(U, V).dim == 1
    L1 = span(QQ, [{0: Fraction(1)}])
    L2 = span(QQ, [{1: Fraction(1)}])
    assert intersect(L1, L2).dim == 0


def test_quotient_dim_examples():
    U = span(GF3, [{0: 1}, {1: 1}])
    W = span(GF3, [{0: 1, 1: 1}])
    assert quotient_dim(U, W) == 1
    assert quotient_dim(W, U) == 0  # W inside U
    zero = span(GF3, [])
    assert quotient_dim(U, zero) == 2
    # both formulas agree
    assert quotient_dim(U, W) == U.dim - intersect(U, W).dim


def _random_vectors(rng, field, n_labels, count):
    elems = list(field.elements())
    vecs = []
    for _ in range(count):
        vec = {}
        for j in range(n_labels):
            c = elems[rng.randrange(len(elems))]
            if c:
                vec[j] = c
        vecs.append(vec)
    return vecs


def test_modular_identity_gf5():
    rng = random.Random(7)
    for _ in range(250):
        U = span(GF5, _random_vectors(rng, GF5, 6, rng.randrange(1, 5)))
        V = span(GF5, _random_vectors(rng, GF5, 6, rng.randrange(1, 5)))
        U_plus_V = span(GF5, U.basis_rows() + V.basis_rows())
        assert U.dim + V.dim == U_plus_V.dim + intersect(U, V).dim


def test_intersection_against_enumeration_gf2():
    """Oracle: enumerate all vectors of both spans over <= 4 labels."""
    rng = random.Random(3)

    def all_vectors(sub):
        rows = sub.basis_rows()
        vecs = set()
        for coeffs in itertools.product([0, 1], repeat=len(rows)):
            acc = {}
            for c, row in zip(coeffs, rows):
                if c:
                    for l, v in row.items():
                        nv = (acc.get(l, 0) + v) % 2
                        if nv:
                            acc[l] = nv
                        else:
                            acc.pop(l, None)
            vecs.add(tuple(sorted(acc.items())))
        return vecs

    for _ in range(60):
        U = span(GF2, _random_vectors(rng, GF2, 4, rng.randrange(1, 4)))
        V = span(GF2, _random_vectors(rng, GF2, 4, rng.randrange(1, 4)))
        meet = all_vectors(U) & all_vectors(V)
        assert len(meet) == 2 ** intersect(U, V).dim
        assert len(all_vectors(U)) == 2 ** U.dim


@settings(max_examples=60)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(1, 4), max_size=5),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
def test_echelon_determinism_under_permutation(vecs, rng):
    vecs = [{k: v % 5 for k, v in vec.items() if v % 5} for vec in vecs]
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    assert span(GF5, vecs) == span(GF5, shuffled)
    assert span(GF5, vecs).basis_rows() == span(GF5, shuffled).basis_rows()


def test_subspace_basis_shape():
    U = span(GF3, [{2: 1, 5: 2}, {2: 2, 5: 1}, {0: 1, 2: 1}])
    pivots = sorted(U.rows)
    assert list(pivots) == sorted(pivots)
    for piv, row in zip(pivots, U.basis_rows()):
        assert row[piv] == 1
        assert min(row) == piv
    # reduced: no pivot appears in another row
    for piv in pivots:
        for other in U.basis_rows():
            if other.get(piv) and min(other) != piv:
                raise AssertionError("not fully reduced")


def test_field_mismatch_rejected():
    U = span(GF2, [{0: 1}])
    V = span(GF3, [{0: 1}])
    with pytest.raises(ValueError):
        intersect(U, V)


def test_echelon_reduce_is_projection():
    ech = Echelon(GF3)
    ech.add({0: 1, 1: 2})
    ech.add({1: 1, 2: 1})
    vec = {0: 2, 1: 1, 2: 2}
    rem = ech.reduce(vec)
    # remainder is unchanged by further reduction and has no pivot labels
    assert ech.reduce(rem) == rem
    assert all(l not in ech.rows for l in rem)


def test_inv_of_zero_raises():
    for field in FINITE_FIELDS + [QQ]:
        with pytest.raises(ZeroDivisionError):
            field.inv(field.zero)


def _nonzero(rng, field):
    return rng.randrange(1, len(field.elements()))


def _combination(field, terms):
    """The sum of c*vec over the (c, vec) pairs in terms."""
    out = {}
    for c, vec in terms:
        for lbl, v in vec.items():
            s = field.add(out.get(lbl, field.zero), field.mul(c, v))
            if s:
                out[lbl] = s
            else:
                del out[lbl]
    return out


def _random_combination(rng, field, vecs):
    return _combination(field, [(_nonzero(rng, field), vec) for vec in vecs])


def _growth(rng, group, field):
    """Sparse vectors over (g, j) labels on balls of radius 1, 2, 3 in turn,
    so labels keep arriving as on nested windows; about one vector in three
    is a combination of earlier ones and lies in their span."""
    vecs = []
    for radius in (1, 2, 3):
        labels = [(g, j) for g in ball(group, radius).sorted_elements() for j in (0, 1)]
        for _ in range(rng.randint(4, 12)):
            if vecs and rng.random() < 1 / 3:
                picked = rng.sample(vecs, rng.randint(1, min(3, len(vecs))))
                vecs.append(_random_combination(rng, field, picked))
            else:
                support = rng.sample(labels, rng.randint(1, 4))
                vecs.append({l: _nonzero(rng, field) for l in support})
    return vecs


def _support(x):
    """The label bits of a packed row: an int, or a pair of bit planes."""
    return x if isinstance(x, int) else x[0] | x[1]


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "group",
    [FreeAbelian(1), FreeAbelian(2), ZCrossZ2(), Heisenberg()],
    ids=lambda g: g.name,
)
def test_int_kernels_match_dict_echelon(group, field):
    rng = random.Random(61)
    for _ in range(15):
        vecs = _growth(rng, group, field)
        fast, ref = rank_echelon(field), Echelon(field)
        assert type(fast) is not Echelon
        # normal forms are taken after half of the inserts and again after
        # the rest, on rows as add left them
        done = 0
        for stop in (len(vecs) // 2, len(vecs)):
            for vec in vecs[done:stop]:
                assert (fast.add(fast.pack(vec)) is None) == (ref.add(vec) is None)
                assert fast.dim == ref.dim
            done, added = stop, vecs[:stop]
            probes = _growth(rng, group, field) + [
                _random_combination(rng, field, rng.sample(added, 2)) for _ in range(10)
            ]
            for vec in probes:
                rem = fast.reduce(fast.pack(vec))
                assert (_support(rem) == 0) == (not ref.reduce(vec))
                assert _support(rem) & fast.pivots == 0  # the full normal form
                # one normal form per coset: vec + c*v for v in the span
                shifted = [(1, vec), (_nonzero(rng, field), rng.choice(added))]
                assert fast.reduce(fast.pack(_combination(field, shifted))) == rem
        # the reduced rows of U modulo V span (U + V) / V in a sibling that
        # packs with V's label bits
        cut = rng.randint(0, len(vecs))
        V = rank_echelon(field)
        for vec in vecs[:cut]:
            V.add(V.pack(vec))
        image = V.sibling()
        for vec in probes:
            image.add(V.reduce(image.pack(vec)))
        assert image.dim == quotient_dim(span(field, probes), span(field, vecs[:cut]))


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "group",
    [FreeAbelian(1), FreeAbelian(2), FreeAbelian(3), ZCrossZ2()],
    ids=lambda g: g.name,
)
def test_box_shifts_equal_packed_act(monkeypatch, group, field):
    """The box packer's translates are pack(act(g, v)) on its own BoxBits,
    for every g in ball(3), negative coordinates included, and over GF(4)
    with the Frobenius twist too: the box inputs of the one packer test."""
    from entrolen.crossed_product import frobenius_cocycle, trivial_cocycle
    from test_shifts import test_packer_rows_equal_act_and_pack

    cocycles = [trivial_cocycle(field, group)]
    if field == GF4:
        cocycles.append(frobenius_cocycle(field, group))
    for cocycle in cocycles:
        test_packer_rows_equal_act_and_pack(monkeypatch, cocycle, box=True)


def test_box_bits_are_the_label_order():
    """BoxBits numbers the labels of its box 0, 1, ... in tuple order, and
    refuses a label outside the box instead of wrapping it."""
    from entrolen.groups import BoxBits

    bits = BoxBits((-1, 0), (1, 1), 2)
    labels = sorted(((a, t), j) for a in (-1, 0, 1) for t in (0, 1) for j in (0, 1))
    assert [bits.get(lbl) for lbl in labels] == list(range(12))
    assert bits.strides == (4, 2)
    for outside in (((2, 0), 0), ((-2, 1), 1), ((0, 2), 0)):
        with pytest.raises(ValueError):
            bits.get(outside)


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=lambda f: f.name)
def test_int_row_steps_are_field_arithmetic(field):
    """The packed row step x - x1*row and the normalization x / x1, for
    rows and x on two labels with every coefficient; over GF(3) label 0
    sees all nine sums of the bitsliced addition."""
    ech = rank_echelon(field)
    ech.pack({0: 1, 1: 1})  # label 0 gets bit 0, label 1 bit 1

    def pack(vec):  # sparse vectors hold no zero coefficient
        return ech.pack({l: v for l, v in vec.items() if v})

    elems = list(field.elements())
    for r0, x0, x1 in itertools.product(elems, elems, elems[1:]):
        row, x = pack({0: r0, 1: 1}), pack({0: x0, 1: x1})
        assert ech._sub(x, row, 1) == pack({0: field.submul(x0, x1, r0)})
        assert ech._unit(x, 1) == pack({0: field.mul(field.inv(x1), x0), 1: 1})


@pytest.mark.parametrize("field", FINITE_FIELDS, ids=lambda f: f.name)
def test_copy_leaves_the_original_unchanged(field):
    """copy() leaves the original's pivots, dim and normal forms as they
    were.  The bit kernel's copy may back-substitute the original's rows in
    place; the dict kernel's leaves its rows and solved flag too.  After
    the copy, adding to, reducing with and back-substituting the copy
    change nothing in the original; the dict kernel's copy shares the row
    dicts, so none may be rewritten in place."""
    rng = random.Random(67)
    for _ in range(10):
        vecs = _growth(rng, FreeAbelian(2), field)
        cut = rng.randint(1, len(vecs) - 1)
        ech = rank_echelon(field)
        same = ech.sibling()  # the same row space, whose normal forms are unique
        for vec in vecs[:cut]:
            ech.add(ech.pack(vec))
            same.add(same.pack(vec))
        probes = [ech.pack(vec) for vec in vecs]
        forms = [same.reduce(x) for x in probes]
        if rng.random() < 0.5:  # copy a back-substituted echelon too
            ech.reduce(probes[-1])  # the dict kernel back-substitutes here
            ech.copy()  # and the bit kernel here

        def state():
            rows = {piv: dict(row) if isinstance(row, dict) else row
                    for piv, row in ech.rows.items()}
            return rows, getattr(ech, "pivots", None), ech.solved, ech.dim

        at_copy = state()
        twin = ech.copy()
        before = state()
        assert type(twin) is type(ech) and twin.rows == ech.rows
        assert getattr(twin, "bits", None) is getattr(ech, "bits", None)
        if type(ech) is Echelon:
            assert before == at_copy
        else:
            assert (before[1], before[3]) == (at_copy[1], at_copy[3])  # pivots, dim
            assert [ech.reduce(x) for x in probes] == forms
        for vec in vecs[cut:]:
            twin.add(twin.pack(vec))
            twin.reduce(twin.pack(vec))  # back-substitutes the dict copy's rows
            twin.copy()  # and the bit copy's
        twin.add(twin.pack(vecs[0]))
        assert state() == before
        assert twin.dim == span(field, vecs).dim
        assert [ech.reduce(x) for x in probes] == forms


def _by_bit(x) -> dict:
    """A packed row as a dict keyed by -bit, so that the dict Echelon's
    pivot, the minimal label, is the bit kernel's, the highest bit; a
    coefficient is bit 0 of its value on the first plane, bit 1 on the
    second."""
    lo, hi = (x, 0) if isinstance(x, int) else x
    return {-b: (lo >> b & 1) | (hi >> b & 1) << 1
            for b in range((lo | hi).bit_length()) if (lo | hi) >> b & 1}


def _packed(field, vec: dict):
    """The packed row of a dict keyed by -bit; _by_bit inverts it."""
    lo = sum(1 << -k for k, c in vec.items() if c & 1)
    hi = sum(1 << -k for k, c in vec.items() if c & 2)
    return lo if field == GF2 else (lo, hi)


@pytest.mark.parametrize("field", [GF2, GF3, GF4], ids=lambda f: f.name)
@pytest.mark.parametrize(
    "group",
    [FreeAbelian(1), FreeAbelian(2), ZCrossZ2(), Heisenberg()],
    ids=lambda g: g.name,
)
def test_copies_back_substitute_incrementally(group, field):
    """A running echelon grows in batches and is copied after each one, as
    a quotient run copies its V once per window.  After each copy, its rows
    and the copy's are the reduced echelon rows of the row space, which a
    dict Echelon over the label bits computes from scratch: no row holds
    another row's pivot bit.  The copy then takes a few rows that stay
    unsolved, and its normal forms of probes and of their coset shifts are
    that Echelon's, packed.  Every other batch starts with the lowest bit
    that a row holds but no row has as its pivot, alone: a label first
    seen long ago becomes a pivot below the pivots of rows that hold it."""
    rng = random.Random(79)
    for _ in range(8):
        vecs = _growth(rng, group, field)
        run, ref = rank_echelon(field), Echelon(field)
        done, cuts = 0, sorted(rng.sample(range(2, len(vecs)), 3)) + [len(vecs)]
        for i, cut in enumerate(cuts):
            batch = [run.pack(vec) for vec in vecs[done:cut]]
            held = 0
            for row in run.rows.values():
                held |= _support(row)
            if i % 2 and (held := held & ~run.pivots):
                low = (held & -held).bit_length() - 1
                assert run.add(_packed(field, {-low: 1})) == low
                assert ref.add({-low: 1}) == -low
            for x in batch:
                assert (run.add(x) is None) == (ref.add(_by_bit(x)) is None)
            done, added = cut, vecs[:cut]
            twin = run.copy()
            solved = {-piv: _packed(field, row) for piv, row in ref.rref().items()}
            assert run.rows == twin.rows == solved
            for piv, row in run.rows.items():
                assert _support(row) & run.pivots == 1 << piv
            twin_ref = ref.copy()
            for vec in _growth(rng, group, field)[:4]:
                x = twin.pack(vec)
                assert (twin.add(x) is None) == (twin_ref.add(_by_bit(x)) is None)
            probes = _growth(rng, group, field) + [
                _random_combination(rng, field, rng.sample(added, 2)) for _ in range(5)
            ]
            for vec in probes:
                x = twin.pack(vec)
                rem = twin.reduce(x)
                assert rem == _packed(field, twin_ref.reduce(_by_bit(x)))
                assert _support(rem) & twin.pivots == 0
                shifted = [(1, vec), (_nonzero(rng, field), rng.choice(added))]
                assert twin.reduce(twin.pack(_combination(field, shifted))) == rem


def test_rank_echelon_picks_the_kernel_by_field():
    for field in (GF2, GF3, GF4):
        ech = rank_echelon(field)
        assert type(ech) is BitEchelon and ech.field == field
        assert ech.sibling().bits is ech.bits
    for field in (GF5, GF9, QQ):
        ech = rank_echelon(field)
        assert type(ech) is Echelon and ech.field == field
        assert ech.sibling().pack is ech.pack is ech.copy().pack
    # over GF(p) and GF(p^2) the rows are the vectors; over Q they are the
    # primitive integer rows, here -20 * vec / 3, positive at the pivot
    vec = {(0, 0): 3, (1, 0): 4}
    assert rank_echelon(GF5).pack(vec) is vec
    ech = rank_echelon(QQ)
    row = ech.pack({(1, 0): Fraction(9, 10), (0, 0): Fraction(-3, 4)})
    assert row == {(0, 0): 5, (1, 0): -6}
    assert all(type(v) is int for v in row.values())
    assert ech.add(row) == (0, 0) and ech.rows == {(0, 0): row}
    assert Echelon(QQ).pack(vec) is vec  # span, intersect and Subspace keep Fractions


def _rational(rng, digits=20):
    """A nonzero Fraction with numerator and denominator of up to 20 digits."""
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**digits),
                    rng.randrange(1, 10**digits))


def test_integer_rows_match_gauss_jordan_over_q():
    """rank_echelon(Q) on primitive integer rows against the dense
    Gauss-Jordan oracle on Fractions, with 20-digit numerators and
    denominators, every vector a random multiple of another, so that its
    integer content is not 1, and normal forms and reduced rows asked for
    between the inserts: dims and reduce-to-zero verdicts agree, a normal
    form is the oracle's times a nonzero rational, and each reduced row is
    the oracle's row times its pivot entry, primitive with that entry
    positive."""
    rng = random.Random(83)
    labels = [(i, j) for i in range(6) for j in (0, 1)]

    def vector():
        c = _rational(rng)
        return {l: c * _rational(rng, 3) for l in rng.sample(labels, rng.randint(1, 5))}

    def combination(vecs, k):
        return _combination(QQ, [(_rational(rng), v) for v in rng.sample(vecs, k)])

    def integral(row):
        return all(type(v) is int for v in row.values()) and math.gcd(*row.values()) == 1

    for _ in range(25):
        vecs = [vector() for _ in range(rng.randint(3, 9))]
        vecs += [combination(vecs, 3) for _ in range(rng.randint(1, 4))]
        rng.shuffle(vecs)
        ech, added = rank_echelon(QQ), []
        for vec in vecs:
            row = ech.pack(vec)
            assert integral(row) and row.keys() == vec.keys()
            assert len({Fraction(x) / vec[l] for l, x in row.items()}) == 1
            inside = not normal_form(QQ, gauss_jordan(QQ, added), vec)
            assert (ech.add(row) is None) == inside
            added.append(vec)
            ref = gauss_jordan(QQ, added)
            assert set(ech.rows) == set(ref) and ech.dim == len(ref)
            roll = rng.random()
            if roll < 1 / 3:
                rows = ech.rref()
                assert rows.keys() == ref.keys()
                for piv, row in rows.items():
                    assert integral(row) and row[piv] > 0
                    assert {l: Fraction(x, row[piv]) for l, x in row.items()} == ref[piv]
            elif roll < 2 / 3:
                for probe in [vector(), vector(), combination(added, min(2, len(added)))]:
                    got, want = ech.reduce(ech.pack(probe)), normal_form(QQ, ref, probe)
                    assert (not got) == (not want)
                    if want:
                        factor = Fraction(got[min(want)]) / want[min(want)]
                        assert factor and {l: factor * v for l, v in want.items()} == got


@pytest.mark.parametrize("field", [GF5, GF9, QQ], ids=lambda f: f.name)
def test_dict_echelon_matches_gauss_jordan(field):
    """add, reduce, rref and Subspace.contains against the dense oracle,
    with normal forms and reduced rows asked for between the inserts, so
    rows back-substituted once must be redone after the next add."""
    rng = random.Random(73)
    labels = [(i, j) for i in range(6) for j in (0, 1)]

    def coefficient():
        if field == QQ:
            return Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4))
        return _nonzero(rng, field)

    def vector():
        return {l: coefficient() for l in rng.sample(labels, rng.randint(1, 5))}

    def combination(vecs, k):
        return _combination(field, [(coefficient(), v) for v in rng.sample(vecs, k)])

    def probes(added):
        return [vector(), vector(), combination(added, min(2, len(added)))]

    for _ in range(25):
        vecs = [vector() for _ in range(rng.randint(3, 9))]
        vecs += [combination(vecs, 3) for _ in range(rng.randint(1, 4))]
        rng.shuffle(vecs)
        ech, added = Echelon(field), []
        for vec in vecs:
            inside = not normal_form(field, gauss_jordan(field, added), vec)
            assert (ech.add(vec) is None) == inside
            added.append(vec)
            ref = gauss_jordan(field, added)
            assert set(ech.rows) == set(ref)
            roll = rng.random()
            if roll < 1 / 3:
                assert ech.rref() == ref
            elif roll < 2 / 3:
                for probe in probes(added):
                    assert ech.reduce(probe) == normal_form(field, ref, probe)
        S = Subspace.from_echelon(ech)
        assert S.rows == ref and S.dim == ech.dim
        for probe in probes(added):
            assert S.contains(probe) == (not normal_form(field, ref, probe))
