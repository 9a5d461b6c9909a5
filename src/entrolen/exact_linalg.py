"""Exact field arithmetic and deterministic sparse subspace calculus.

Fields: GF(p), the quadratic extension GF(p^2) with its Frobenius
automorphism, and the rationals.  Field elements are plain values (small
ints for the finite fields, Fraction for the rationals) and every zero
element is falsy; the field object supplies the operations, so vectors
stay lightweight dicts from column labels to nonzero coefficients.  For the
dimension-only paths, rank_echelon packs them into the bit rows of one
BitEchelon class over GF(2), GF(3) and GF(4), in the row format that
_ROW_FORMATS keeps per field, and over Q into the primitive integer rows
of _RANK_ROWS in the dict Echelon.  In both echelons add eliminates at
the pivot end only; they back-substitute on different policies, each the
faster one measured on its workloads (see the two classes).

Column labels may be any mutually orderable hashable values.  The dict
Echelon is the one subspace type, and its rref(), the reduced row echelon
basis, serves every reader of rows: it is unique for a given row space,
so dimensions, bases and intersections do not depend on the order
spanning vectors arrive in.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above _MR_BOUND cannot be
    decided and raises ValueError instead of being called composite."""
    if n >= _MR_BOUND:
        raise ValueError(f"unsupported field size: cannot decide whether {n} is prime")
    if n < 2 or n in _MR_BASES:
        return n >= 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """GF(p), elements stored as ints in [0, p)."""

    p: int

    zero = 0
    one = 1
    auto_order = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def name(self) -> str:
        return f"gf{self.p}"

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def check(self, c):
        if not (isinstance(c, int) and c in self.elements()):
            raise ValueError(f"not an element of {self.name}: {c!r}")

    def submul(self, a, b, c):
        """a - b*c, the fused row-operation kernel."""
        return (a - b * c) % self.p

    def apply_auto(self, x, power):
        return x

    def elements(self):
        return range(self.p)

    def fmt(self, x) -> str:
        return str(x)

    def parse(self, s: str):
        try:
            return int(s.strip()) % self.p
        except ValueError:
            raise ValueError(f"bad GF({self.p}) element {s!r}") from None


def _quadratic_modulus(p: int) -> tuple[int, int]:
    """Lexicographically smallest (a, b) with x^2+ax+b irreducible over GF(p)."""
    if p == 2:
        return 1, 1  # x^2 + x + 1, the only irreducible quadratic over GF(2)
    for a in range(p):
        for b in range(p):
            # irreducible iff a^2 - 4b is a non-residue (Euler's criterion)
            if pow(a * a - 4 * b, (p - 1) // 2, p) == p - 1:
                return a, b
    raise ValueError(f"no irreducible quadratic over GF({p})")


@dataclass(frozen=True)
class QuadraticField:
    """GF(p^2) = GF(p)[w]/(w^2 + a*w + b), elements packed as c0 + c1*p.

    The modulus is the lexicographically smallest irreducible monic
    quadratic, so the construction is deterministic; for p = 2 it is
    x^2 + x + 1 and w^2 = w + 1.  The only nontrivial automorphism is the
    Frobenius x -> x^p, of order 2.
    """

    p: int

    zero = 0
    one = 1
    auto_order = 2

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        a, b = _quadratic_modulus(self.p)
        object.__setattr__(self, "_mod_a", a)
        object.__setattr__(self, "_mod_b", b)

    @property
    def name(self) -> str:
        return f"gf{self.p * self.p}"

    @property
    def modulus(self) -> tuple[int, int]:
        return (self._mod_a, self._mod_b)

    def add(self, x, y):
        p = self.p
        return (x % p + y % p) % p + ((x // p + y // p) % p) * p

    def sub(self, x, y):
        p = self.p
        return (x % p - y % p) % p + ((x // p - y // p) % p) * p

    def neg(self, x):
        p = self.p
        return (-x % p) % p + ((-(x // p)) % p) * p

    def mul(self, x, y):
        p = self.p
        a1, b1 = x % p, x // p
        a2, b2 = y % p, y // p
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -(A w + B)
        cross = a1 * b2 + a2 * b1
        sq = b1 * b2
        c0 = (a1 * a2 - sq * self._mod_b) % p
        c1 = (cross - sq * self._mod_a) % p
        return c0 + c1 * p

    check = PrimeField.check

    def submul(self, a, b, c):
        return self.sub(a, self.mul(b, c))

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        a, b = x % p, x // p
        # Solve (a + b w)(c + d w) = 1; the norm is nonzero by irreducibility.
        det = (a * a - self._mod_a * a * b + self._mod_b * b * b) % p
        det_inv = pow(det, p - 2, p)
        c = ((a - self._mod_a * b) * det_inv) % p
        d = (-b * det_inv) % p
        return c + d * p

    def frobenius(self, x):
        # x^p = c0 + c1 * w^p, and w^p is the conjugate root -a - w
        c0, c1 = x % self.p, x // self.p
        return self.make(c0 - self._mod_a * c1, -c1)

    def apply_auto(self, x, power):
        return self.frobenius(x) if power % 2 else x

    def elements(self):
        return range(self.p * self.p)

    def make(self, c0: int, c1: int):
        return c0 % self.p + (c1 % self.p) * self.p

    def fmt(self, x) -> str:
        return f"{x % self.p}+{x // self.p}*w"

    _PARSE_RE = re.compile(r"^\s*(-?\d+)\s*\+\s*(-?\d+)\s*\*\s*w\s*$")

    def parse(self, s: str):
        m = self._PARSE_RE.match(s)
        if m:
            return self.make(int(m.group(1)), int(m.group(2)))
        try:
            return self.make(int(s.strip()), 0)
        except ValueError:
            raise ValueError(f"bad GF({self.p}^2) element {s!r}") from None


@dataclass(frozen=True)
class RationalField:
    """The rationals, with exact Fraction arithmetic."""

    zero = Fraction(0)
    one = Fraction(1)
    auto_order = 1

    @property
    def name(self) -> str:
        return "q"

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return 1 / x

    def check(self, c):
        if not isinstance(c, Fraction):
            raise ValueError(f"not an element of {self.name}: {c!r}")

    def submul(self, a, b, c):
        return a - b * c

    def apply_auto(self, x, power):
        return x

    def fmt(self, x) -> str:
        return f"{x.numerator}/{x.denominator}"

    def parse(self, s: str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad rational {s!r}") from None


def field_from_name(name: str):
    key = name.strip().lower()
    if key in ("q", "rational", "rationals"):
        return RationalField()
    if key.startswith("gf"):
        try:
            n = int(key[2:])
        except ValueError:
            raise ValueError(f"bad field name {name!r}") from None
        root = math.isqrt(max(n, 0))
        if root * root == n and _is_prime(root):
            return QuadraticField(root)
        if root * root != n and _is_prime(n):
            return PrimeField(n)
        raise ValueError(f"unsupported field size {n} (need p or p^2)")
    raise ValueError(f"unknown field {name!r}")


def _subtract(field, out: dict, row: dict, piv):
    """out -= out[piv] * row in place, for a row with coefficient 1 at piv."""
    c, submul, zero = out.pop(piv), field.submul, field.zero
    for lbl, v in row.items():
        if lbl != piv:
            if nv := submul(out.get(lbl, zero), c, v):
                out[lbl] = nv
            else:
                del out[lbl]


def _unit(field, vec: dict, piv) -> dict:
    """vec scaled to coefficient 1 at piv."""
    if (c := vec[piv]) == field.one:
        return vec
    inv = field.inv(c)
    return {l: field.mul(inv, v) for l, v in vec.items()}


def _int_subtract(field, out: dict, row: dict, piv):
    """out = (a/g)*out - (b/g)*row in place, for integer rows with a =
    row[piv] > 0, b = out[piv] and g = gcd(a, b): fraction-free."""
    a, b = row[piv], out.pop(piv)
    g = math.gcd(a, b)
    if a != g:
        a //= g
        for lbl in out:
            out[lbl] *= a
    b //= g
    for lbl, v in row.items():
        if lbl != piv:
            if nv := out.get(lbl, 0) - b * v:
                out[lbl] = nv
            else:
                del out[lbl]


def _primitive(field, vec: dict, piv) -> dict:
    """An integer vec over its content, with a positive entry at piv."""
    g = math.gcd(*vec.values())
    if vec[piv] < 0:
        g = -g
    return vec if g == 1 else {l: v // g for l, v in vec.items()}


def _integer_row(vec: dict) -> dict:
    """A rational vec times the lcm of its denominators, over its content:
    the primitive integer row of its line, positive at its minimal label."""
    m = math.lcm(*(v.denominator for v in vec.values()))
    ints = {l: v.numerator * (m // v.denominator) for l, v in vec.items() if v}
    return _primitive(None, ints, min(ints)) if ints else ints


def _nonzero(vec: dict) -> dict:
    """vec without explicit zero coefficients, which would be read as a
    pivot or a residue: vec itself when it has none."""
    return vec if all(vec.values()) else {l: v for l, v in vec.items() if v}


def _reduce(rows: dict, field, vec: dict, sub=_subtract) -> dict:
    """The canonical representative of vec modulo solved rows, which hold
    no pivot label but their own: one row step per pivot label of vec."""
    out = dict(vec)
    for piv in [lbl for lbl in vec if lbl in rows]:
        sub(field, out, rows[piv], piv)
    return out


# The dict Echelon's row formats, as the hooks (pack, sub, unit): pack(vec)
# is a vector's row, sub(field, x, row, piv) clears x at row's pivot in
# place, and unit(field, x, piv) scales a new row.  Over Q, rank_echelon
# takes primitive integer rows, eliminated fraction-free (Bareiss, Math.
# Comp. 22, 1968), so no Fraction is built; field rows have a 1 at the pivot.
_FIELD_ROWS = (lambda vec: vec, _subtract, _unit)
_RANK_ROWS = {RationalField(): (_integer_row, _int_subtract, _primitive)}


class Echelon:
    """Mutable echelon: pivot label -> row, in one of the _FIELD_ROWS or
    _RANK_ROWS formats, whose pivot is the row's minimal label.  The
    pivot labels depend only on the row space, never on insertion order;
    over integer rows a normal form is unique up to a nonzero factor.

    add eliminates at the pivot end only, and the first reduce or rref
    after an add back-substitutes all rows in descending pivot order into
    the unique reduced row echelon form, in which no row holds another
    pivot label.  BitEchelon's policy does not pay here: top-down reduce on
    unsolved integer rows about doubled the time of a Z^2/Q addition-check
    at n=10, where rows fill in."""

    __slots__ = ("field", "rows", "solved", "row_format", "pack", "_sub", "_unit")

    def __init__(self, field, vectors=(), row_format=_FIELD_ROWS):
        self.field, self.row_format = field, row_format
        self.pack, self._sub, self._unit = row_format
        self.rows: dict = {}
        self.solved = True  # no row holds a pivot label but its own
        for vec in vectors:
            self.add(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _solve(self):
        if not self.solved:
            rows, field, sub, unit = self.rows, self.field, self._sub, self._unit
            for piv in sorted(rows, reverse=True):
                rows[piv] = unit(field, _reduce(rows, field, rows.pop(piv), sub), piv)
            self.solved = True

    def reduce(self, vec: dict) -> dict:
        self._solve()
        return _reduce(self.rows, self.field, _nonzero(vec), self._sub)

    def add(self, vec: dict):
        """Insert vec's residue; returns the new pivot label, or None if
        vec was already in the span."""
        rows, field, sub = self.rows, self.field, self._sub
        rem = dict(_nonzero(vec))
        while rem and (piv := min(rem)) in rows:
            sub(field, rem, rows[piv], piv)
        if not rem:
            return None
        rows[piv] = self._unit(field, rem, piv)
        self.solved = False
        return piv

    def sibling(self) -> "Echelon":
        return Echelon(self.field, row_format=self.row_format)

    def copy(self) -> "Echelon":
        """An independent echelon of the same rows; no method rewrites a
        stored row dict in place, so the copy shares them."""
        ech = self.sibling()
        ech.rows, ech.solved = dict(self.rows), self.solved
        return ech

    def rref(self) -> dict:
        """Canonical reduced echelon rows (unique per row space)."""
        self._solve()
        return {piv: dict(row) for piv, row in self.rows.items()}


class BitEchelon:
    """Rows packed into ints in the field's _ROW_FORMATS entry, for
    dimensions and reduce-to-zero verdicts (M4RI without its Gray-code
    tables).  A label's bit is its order of first appearance in the table
    that sibling echelons share, or its index in a groups.BoxBits passed as
    that table, and a row's pivot is its highest bit, with coefficient 1.

    add eliminates at the pivot end only.  copy first back-substitutes the
    rows incrementally: only the rows whose pivot lies at or above the
    lowest pivot added since the last copy are reduced, in increasing pivot
    order, against the rows below them, so that no row holds another pivot
    bit.  A run that copies a growing echelon once per window thus pays for
    each back-substitution once, and every copy inherits it.  reduce
    eliminates top down on the rows as stored, which gives the same unique
    normal form whether or not they were back-substituted."""

    __slots__ = ("field", "bits", "rows", "pivots", "solved",
                 "_row", "_support", "_sub", "_unit")

    def __init__(self, field, bits=None):
        self.field = field
        self._row, self._support, self._sub, self._unit = _ROW_FORMATS[field]
        self.bits = {} if bits is None else bits
        self.rows: dict = {}
        self.pivots = 0  # the mask of all pivot bits
        self.solved = 0  # the pivot mask as of the last back-substitution

    dim = Echelon.dim

    def sibling(self) -> "BitEchelon":
        return BitEchelon(self.field, self.bits)

    def copy(self) -> "BitEchelon":
        """An independent echelon of the same rows, on the shared table.
        Back-substituting first rewrites the original's rows into the
        reduced form of the same row space; its pivots and dim stay."""
        self._solve()
        ech = self.sibling()
        ech.rows, ech.pivots, ech.solved = dict(self.rows), self.pivots, self.solved
        return ech

    def pack(self, vec: dict):
        """The packed row of vec, its labels numbered in vec's order."""
        planes = _planes(vec.values())
        return self.pack_moved([(None, [(vec, planes)])], lambda g, label: label)[0]

    def pack_moved(self, moves, move) -> list:
        """The packed row of each vec with its labels l taken to move(g, l),
        for (g, vecs) in moves and (vec, planes) in vecs, in that order: a
        label new to the table takes the next bit, and bit 0 and bit 1 of
        each coefficient, its _planes, go to the label's bit of two planes,
        which _row combines."""
        bits, row, rows = self.bits, self._row, []
        for g, vecs in moves:
            for vec, planes in vecs:
                lo = hi = 0
                for label, (a, b) in zip(vec, planes):
                    label = move(g, label)
                    k = bits.get(label)
                    if k is None:
                        k = bits[label] = len(bits)
                    k = 1 << k
                    if a:
                        lo |= k
                    if b:
                        hi |= k
                rows.append(row(lo, hi))
        return rows

    def _eliminate(self, x, mask: int):
        """Subtract rows from x, top down, until no pivot bit of mask is set."""
        rows, support, sub = self.rows, self._support, self._sub
        while hit := support(x) & mask:
            top = hit.bit_length() - 1
            x = sub(x, rows[top], top)
        return x

    def _solve(self):
        """A row holds only bits below its pivot, so the rows below the
        lowest fresh pivot hold no fresh pivot bit and stay as they are."""
        if fresh := self.pivots ^ self.solved:
            rows, pivots = self.rows, self.pivots
            low = (fresh & -fresh).bit_length() - 1
            for piv in sorted(p for p in rows if p >= low):
                rows[piv] = self._eliminate(rows[piv], pivots ^ 1 << piv)
            self.solved = pivots

    def reduce(self, x):
        """The full normal form: no pivot bit is left set."""
        return self._eliminate(x, self.pivots)

    def add(self, x):
        """Echelon.add on a packed row; the pivot returned is a bit."""
        rows, support, sub = self.rows, self._support, self._sub
        while (s := support(x)) and (top := s.bit_length() - 1) in rows:
            x = sub(x, rows[top], top)
        if not s:
            return None
        rows[top] = self._unit(x, top)
        self.pivots |= 1 << top
        return top


def _planes(coefficients) -> list:
    """Bit 0 and bit 1 of each coefficient: of the value over GF(2) and
    GF(3), of a + 2b for a + b*w over GF(4)."""
    return [(a & 1, a >> 1) for a in coefficients]


def _gf3_sub(x, row, bit):
    """x - c*row on one-hot planes (ones, twos) for c = x's coefficient at
    bit: one bitsliced addition of row (c = 2) or of -row (c = 1)."""
    a1, a2 = x
    b1, b2 = row if a2 >> bit & 1 else row[::-1]
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _gf3_unit(x, bit):
    return x[::-1] if x[1] >> bit & 1 else x  # times 2 = -1 swaps the planes


def _gf4_sub(x, row, bit):
    """x + c*row on planes (a, b) of a + b*w, w^2 = w + 1, for c = x's
    coefficient at bit: w*r = (rb, ra^rb) and (1+w)*r = (ra^rb, ra)."""
    xa, xb = x
    ra, rb = row
    if xb >> bit & 1:
        ra, rb = (ra ^ rb, ra) if xa >> bit & 1 else (rb, ra ^ rb)
    return xa ^ ra, xb ^ rb


def _gf4_unit(x, bit):
    a, b = x
    if not b >> bit & 1:
        return x
    # times w = (1+w)^-1 when the coefficient is 1+w, else times 1+w = w^-1
    return (b, a ^ b) if a >> bit & 1 else (a ^ b, a)


# Each field's row format, as the hooks (_row, _support, _sub, _unit):
# _row(lo, hi) builds a row from the label masks of coefficient bits 0 and
# 1, _support(x) masks the labels with a nonzero coefficient, _sub(x, row,
# bit) is x minus x's coefficient at bit times row, whose pivot is bit, and
# _unit(x, bit) scales x to 1 at bit.  A GF(2) row is one int; GF(3) and
# GF(4) rows sit on two bit planes (Boothby and Bradshaw's bitslicing),
# one-hot (ones, twos) over GF(3) and (a, b) of a + b*w over GF(4), where
# the field value 2 is w.
_PLANES = (lambda lo, hi: (lo, hi), lambda x: x[0] | x[1])
_ROW_FORMATS = {
    PrimeField(2): (lambda lo, hi: lo, lambda x: x,
                    lambda x, row, bit: x ^ row, lambda x, bit: x),
    PrimeField(3): (*_PLANES, _gf3_sub, _gf3_unit),
    QuadraticField(2): (*_PLANES, _gf4_sub, _gf4_unit),
}


def rank_echelon(field):
    """An empty echelon for dimensions and reduce-to-zero verdicts only:
    the bit kernel over the fields of _ROW_FORMATS, else the dict Echelon,
    on integer rows over Q."""
    if field in _ROW_FORMATS:
        return BitEchelon(field)
    return Echelon(field, row_format=_RANK_ROWS.get(field, _FIELD_ROWS))


def intersect(U: Echelon, V: Echelon) -> Echelon:
    """The echelon of U meet V, in their row format, by the Zassenhaus
    block trick.

    Rows (u, u) for U and then (v, 0) for V are echelonized over tagged
    labels with every tag-0 label ordered before every tag-1 label.  The
    rows whose pivot carries tag 1 are supported entirely on the tag-1
    block and their untagged images form a basis of the intersection.
    """
    if U.field != V.field or U.row_format != V.row_format:
        raise ValueError(f"field or row format mismatch: {U.field.name} vs {V.field.name}")
    tagged = [
        {(t, l): v for l, v in row.items() for t in (0, 1)}
        for row in U.rref().values()
    ] + [{(0, l): v for l, v in row.items()} for row in V.rref().values()]
    ech = Echelon(U.field, tagged, U.row_format)
    tag_1 = (
        {l: v for (_, l), v in row.items()}
        for piv, row in ech.rows.items()
        if piv[0] == 1
    )
    return Echelon(U.field, tag_1, U.row_format)
