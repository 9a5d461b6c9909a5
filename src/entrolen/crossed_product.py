"""Arithmetic in twisted group algebras K*G.

A ring element is a finite formal sum of group symbols with nonzero field
coefficients.  The product is twisted by a pair (sigma, rho): sigma sends
group elements to field automorphisms (realized as a Frobenius exponent,
the only automorphism we implement beyond the identity) and rho is a
unit-valued two-cocycle.  The single-symbol product rule is

    (r * g) (s * h) = r * sigma_g(s) * rho(g, h) * (g h)

extended bilinearly.  Validation of the cocycle conditions is sample
based on word balls and never a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .exact_linalg import Echelon, RationalField
from .groups import (
    ball,
    FiniteSubset,
    format_group_element,
    FreeAbelian,
    Heisenberg,
    parse_group_element,
    shells,
    ZCrossZ2,
)


class CrossedElement:
    """Finite formal sum of group symbols with nonzero field coefficients."""

    __slots__ = ("field", "group", "terms")

    def __init__(self, field, group, terms: dict):
        cleaned = {}
        for g, c in terms.items():
            group.check(g)
            if c:
                cleaned[g] = c
        self.field = field
        self.group = group
        self.terms = cleaned

    @classmethod
    def _raw(cls, field, group, terms: dict) -> "CrossedElement":
        obj = object.__new__(cls)
        obj.field = field
        obj.group = group
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, field, group) -> "CrossedElement":
        return cls._raw(field, group, {})

    @classmethod
    def one(cls, field, group) -> "CrossedElement":
        return cls._raw(field, group, {group.identity: field.one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {self.group.identity: self.field.one}

    def support(self) -> FiniteSubset:
        return FiniteSubset._raw(self.group, frozenset(self.terms))

    def _require_same_ring(self, other: "CrossedElement"):
        if self.field != other.field or self.group != other.group:
            raise ValueError("operands live in different crossed products")

    def add(self, other: "CrossedElement") -> "CrossedElement":
        self._require_same_ring(other)
        out = dict(self.terms)
        for g, c in other.terms.items():
            _add_term(self.field, out, g, c)
        return CrossedElement._raw(self.field, self.group, out)

    def neg(self) -> "CrossedElement":
        F = self.field
        return CrossedElement._raw(
            F, self.group, {g: F.neg(c) for g, c in self.terms.items()}
        )

    def sub(self, other: "CrossedElement") -> "CrossedElement":
        return self.add(other.neg())

    def scale(self, coeff) -> "CrossedElement":
        F = self.field
        if not coeff:
            return CrossedElement.zero(F, self.group)
        return CrossedElement._raw(
            F, self.group, {g: F.mul(coeff, c) for g, c in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, CrossedElement)
            and self.field == other.field
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.group, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"<{format_element(self) or '0'}>"


def format_element(x: CrossedElement) -> str:
    """Canonical text form: terms sorted by group element, joined " + "."""
    fmt = x.field.fmt
    return " + ".join(
        f"{fmt(x.terms[g])}*{format_group_element(g)}" for g in sorted(x.terms)
    )


def _add_term(field, acc: dict, key, coeff):
    """acc[key] += coeff, dropping the entry when the sum is an exact zero."""
    nv = field.add(acc.get(key, field.zero), coeff)
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def _read_term(field, group, term: str, g_text: str, coeff_text: str, coord_text, rank):
    """Key and coefficient of one term, from its group, coefficient and
    coordinate texts; rank None means the term has no coordinate and the
    key is g, else the key is the free-module label (g, coord - 1)."""
    if rank is not None:
        try:
            coord = int(coord_text)
        except ValueError:
            raise ValueError(f"bad coordinate {coord_text!r} in {term!r}") from None
        if not (1 <= coord <= rank):
            raise ValueError(f"coordinate {coord} outside 1..{rank}")
    coeff = field.parse(coeff_text)
    g = parse_group_element(group, g_text)
    if not coeff:
        raise ValueError(f"zero coefficient in term {term!r}")
    return (g if rank is None else (g, coord - 1)), coeff


def _parse_terms(field, group, text: str, rank: int | None = None, col: int = 1) -> dict:
    """Sum the " + "-joined terms coeff*(g) of text, dropping exact zeros.

    With a rank every term carries a 1-based coordinate suffix |coord and
    the keys are free-module labels (g, coord - 1); without, they are g.
    An error names the 1-based column of its term, text[0] being column col.
    """
    out: dict = {}
    shape = "coeff*(g)" if rank is None else "coeff*(g)|coord"
    for raw in text.split(" + "):
        part = raw.strip()
        try:
            body, coord_text = part, None
            if rank is not None:
                body, bar, coord_text = part.rpartition("|")
                if not bar:
                    raise ValueError(f"term {part!r} needs a |coord suffix")
            if "*(" not in body:
                raise ValueError(f"bad term {part!r} (expected {shape})")
            coeff_text, g_body = body.rsplit("*(", 1)
            key, coeff = _read_term(
                field, group, part, "(" + g_body, coeff_text, coord_text, rank
            )
        except ValueError as exc:
            raise ValueError(f"col {col + len(raw) - len(raw.lstrip())}: {exc}") from None
        _add_term(field, out, key, coeff)
        col += len(raw) + len(" + ")
    return out


def parse_element(field, group, text: str) -> CrossedElement:
    """Parse the "coeff*(g) + coeff*(g)" format; inverse of format_element."""
    s = text.strip()
    if not s or s == "0":
        return CrossedElement.zero(field, group)
    return CrossedElement._raw(field, group, _parse_terms(field, group, text))


def _abelianized_degree(group, g) -> int:
    """A homomorphism to Z (mod 2 for the torsion bit) feeding the
    Frobenius exponent; the commutator coordinate of Heisenberg drops."""
    if isinstance(group, FreeAbelian):
        return sum(g)
    if isinstance(group, ZCrossZ2):
        return g[0] + g[1]
    if isinstance(group, Heisenberg):
        return g[0] + g[1]
    raise ValueError(f"no Frobenius grading for {group!r}")


class CocycleData:
    """Twist data (sigma, rho).  With frobenius set, sigma_g is
    Frobenius^deg(g) on a quadratic field, otherwise the identity;
    rho=None means rho is identically 1, else rho(g, h) gives its unit
    values.  The label, is_plain and equality are read off this data.
    """

    __slots__ = ("field", "group", "frobenius", "rho", "is_plain")

    def __init__(self, field, group, frobenius=False, rho=None):
        if frobenius and field.auto_order != 2:
            raise ValueError("Frobenius twist needs a quadratic field")
        self.field = field
        self.group = group
        self.frobenius = bool(frobenius)
        self.rho = rho
        self.is_plain = not frobenius and rho is None

    def sigma_exp(self, g) -> int:
        return _abelianized_degree(self.group, g) if self.frobenius else 0

    @property
    def label(self) -> str:
        if self.rho is not None:
            return "custom"
        return "frobenius" if self.frobenius else "trivial"

    def _key(self):
        return (self.field, self.group, self.frobenius, self.rho)

    def __eq__(self, other):
        if not isinstance(other, CocycleData):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CocycleData({self.field.name}, {self.group.name}, {self.label})"


def trivial_cocycle(field, group) -> CocycleData:
    return CocycleData(field, group)


def frobenius_cocycle(field, group) -> CocycleData:
    """sigma(g) = Frobenius^deg(g) on GF(p^2), rho identically 1."""
    return CocycleData(field, group, frobenius=True)


def cocycle_from_name(name: str, field, group) -> CocycleData:
    key = name.strip().lower()
    if key == "trivial":
        return trivial_cocycle(field, group)
    if key == "frobenius":
        return frobenius_cocycle(field, group)
    raise ValueError(f"unknown cocycle {name!r} (expected trivial or frobenius)")


def _vector(x: CrossedElement) -> dict:
    """x as a rank-1 free-module vector, with labels (g, 0)."""
    return {(g, 0): c for g, c in x.terms.items()}


def multiply(x: CrossedElement, y: CrossedElement, c: CocycleData) -> CrossedElement:
    """Bilinear extension of the single-symbol rule: the sum over g of
    x_g * act(g, y)."""
    x._require_same_ring(y)
    if c.field != x.field or c.group != x.group:
        raise ValueError("cocycle data does not match the operands' ring")
    F = x.field
    fmul = F.mul
    y_vec = _vector(y)
    acc: dict = {}
    for g, r in x.terms.items():
        for (gh, _), a in act(g, y_vec, c).items():
            _add_term(F, acc, gh, fmul(r, a))
    return CrossedElement._raw(F, x.group, acc)


def act(g, vec: dict, c: CocycleData) -> dict:
    """Left multiplication by the symbol of g on a free-module vector.

    Labels are (group element, coordinate) pairs; the coefficient at
    (h, j) moves to sigma_g(coeff) * rho(g, h) at (g h, j).  The map is
    invertible and K-semilinear, so spans keep their dimension.
    """
    group = c.group
    mul_g = group.mul
    if c.is_plain:
        return {(mul_g(g, h), j): a for (h, j), a in vec.items()}
    F = c.field
    exp = c.sigma_exp(g)
    rho = c.rho
    one = F.one
    fmul = F.mul
    out = {}
    for (h, j), a in vec.items():
        coeff = F.apply_auto(a, exp)
        if rho is not None:
            u = rho(g, h)
            if u != one:
                coeff = fmul(coeff, u)
        out[(mul_g(g, h), j)] = coeff
    return out


def _sample_coefficients(field):
    if isinstance(field, RationalField):
        return [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3), Fraction(-7, 5)]
    elems = field.elements()  # a range; len() overflows on huge fields, slices do not
    return list(elems[:6]) + list(elems[-3:]) if elems[9:] else list(elems)


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    checked_radius: int
    triples_checked: int
    associativity_checked: int
    failure: str | None = None


def validate_cocycle(c: CocycleData, sample_budget: int = 2000, seed: int = 0) -> CocycleReport:
    """Check the unit conditions, the cocycle identity, that rho takes
    unit values and multiply-associativity on deterministic samples.

    sigma is the identity or Frobenius^deg, with deg a homomorphism to
    Z/2 and K commutative, so sigma(e) = id and the automorphism
    compatibility hold by construction and are not sampled.  Triples are
    drawn from ball(2)^3 in canonical order, truncated to the budget.
    The first violation stops the scan and is reported with its
    witnessing tuple.
    """
    if sample_budget < 1:
        raise ValueError("sample_budget must be >= 1")
    F = c.field
    group = c.group
    e = group.identity
    B = ball(group, 2).sorted_elements()
    one = F.one
    rho = c.rho if c.rho is not None else lambda g, h: one
    coeffs = _sample_coefficients(F)

    def fail(msg, n_triples, n_assoc):
        return CocycleReport(False, 2, n_triples, n_assoc, msg)

    # unit conditions: rho(g, e) = rho(e, g) = 1
    for g in B:
        if rho(g, e) != one:
            return fail(f"rho(g, e) != 1 at g={format_group_element(g)}", 0, 0)
        if rho(e, g) != one:
            return fail(f"rho(e, g) != 1 at g={format_group_element(g)}", 0, 0)

    # cocycle identity on sampled triples
    n_triples = 0
    mul_g = group.mul
    for g1, g2, g3 in islice(product(B, repeat=3), sample_budget):
        n_triples += 1
        lhs = F.mul(rho(g1, g2), rho(mul_g(g1, g2), g3))
        rhs = F.mul(F.apply_auto(rho(g2, g3), c.sigma_exp(g1)), rho(g1, mul_g(g2, g3)))
        if lhs != rhs:
            return fail(
                "cocycle identity fails at "
                f"({format_group_element(g1)}, {format_group_element(g2)}, "
                f"{format_group_element(g3)})",
                n_triples,
                0,
            )

    # rho takes unit values on sampled pairs
    for g1, g2 in islice(product(B, repeat=2), sample_budget):
        if not rho(g1, g2):
            return fail(
                "rho is not a unit at "
                f"({format_group_element(g1)}, {format_group_element(g2)})",
                n_triples,
                0,
            )

    # associativity of the bilinear product on seeded random elements
    rng = random.Random(seed)
    supp = ball(group, 1).sorted_elements()
    nonzero = [x for x in coeffs if x]
    n_assoc = min(12, max(3, sample_budget // 100))

    def random_element():
        terms = {}
        for g in supp:
            if rng.random() < 0.6:
                terms[g] = nonzero[rng.randrange(len(nonzero))]
        if not terms:
            terms[e] = nonzero[0]
        return CrossedElement._raw(F, group, terms)

    for k in range(n_assoc):
        x, y, z = random_element(), random_element(), random_element()
        left = multiply(multiply(x, y, c), z, c)
        right = multiply(x, multiply(y, z, c), c)
        if left != right:
            return fail(
                f"associativity fails on sampled elements (sample {k})",
                n_triples,
                k + 1,
            )

    return CocycleReport(True, 2, n_triples, n_assoc)


def _canonical_scaling(x: CrossedElement) -> CrossedElement:
    """Scale so the coefficient at the minimal support element is 1."""
    piv = min(x.terms)
    c = x.terms[piv]
    if c == x.field.one:
        return x
    return x.scale(x.field.inv(c))


def find_annihilator(x: CrossedElement, c: CocycleData, window_radius: int):
    """Search for nonzero y supported on ball(window_radius) with y x = 0.

    The window grows one ball layer at a time, so the first dependency
    found has the smallest word radius.  Rows g*x are accumulated into an
    echelon augmented by coefficient-tracking labels; the first row whose
    product part dies yields the dependency, which is rescaled canonically
    and re-verified through multiply.  Returns None when the window holds
    no annihilator.
    """
    if x.is_zero():
        raise ValueError("x must be nonzero")
    if window_radius < 0:
        raise ValueError("window_radius must be >= 0")
    F = x.field
    group = x.group
    x_vec = _vector(x)
    ech = Echelon(F)
    for shell in islice(shells(group, (group.identity,)), window_radius + 1):
        for g in sorted(shell):
            row = {(0, h): coeff for (h, _), coeff in act(g, x_vec, c).items()}
            row[(1, g)] = F.one
            piv = ech.add(row)
            if piv is not None and piv[0] == 1:
                combo = ech.rows[piv]
                y = CrossedElement._raw(
                    F, group, {h: v for (_, h), v in combo.items()}
                )
                y = _canonical_scaling(y)
                if not multiply(y, x, c).is_zero():
                    raise RuntimeError("annihilator candidate failed verification")
                return y
    return None


def check_direct_finiteness_witness(
    x: CrossedElement, y: CrossedElement, c: CocycleData
) -> str:
    """If x y = 1, report whether y x = 1; otherwise "not a witness"."""
    if not multiply(x, y, c).is_one():
        return "not a witness"
    return "consistent" if multiply(y, x, c).is_one() else "inconsistent"
