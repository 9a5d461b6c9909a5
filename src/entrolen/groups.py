"""Concrete finitely generated amenable groups with exact element arithmetic.

Elements are plain tuples of ints (the order-two component of Z x Z/2 is a
0/1 bit), so equality is structural, hashing is cheap, and the built-in
lexicographic tuple order doubles as the canonical total order used for
deterministic scans and column ordering downstream.  A set inside a box
is also an int mask in the box's BoxBits order, and a right translate A*g
is one shift of it, one per a-slab on the Heisenberg group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations, count, islice, product, repeat
from math import prod
from operator import add, floordiv, mod, mul, sub


@dataclass(frozen=True)
class FreeAbelian:
    """Z^d under componentwise addition."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def name(self) -> str:
        return "Z" if self.dim == 1 else f"Z^{self.dim}"

    @property
    def identity(self):
        return (0,) * self.dim

    def check(self, g):
        if (
            not isinstance(g, tuple)
            or len(g) != self.dim
            or not all(isinstance(x, int) for x in g)
        ):
            raise ValueError(f"not an element of {self.name}: {g!r}")

    def mul(self, g, h):
        if len(g) != self.dim or len(h) != self.dim:
            raise ValueError("operands from a different group")
        return tuple(map(add, g, h))

    def left_translate(self, g, elements):
        """{g*a : a in elements} as a new set, with g unpacked once and no
        per-element check: the caller has checked g and the elements."""
        if self.dim == 1:
            (x,) = g
            return {(x + a,) for (a,) in elements}
        if self.dim == 2:
            x, y = g
            return {(x + a, y + b) for a, b in elements}
        if self.dim == 3:
            x, y, z = g
            return {(x + a, y + b, z + c) for a, b, c in elements}
        return {tuple(map(add, g, a)) for a in elements}

    right_translate = left_translate  # {a*g : a in elements}, the same set

    def shift(self, box, mask: int, g) -> int:
        """The mask of A*g = gA from the mask of A, for A and A*g in the box."""
        s = sum(map(mul, g, box.strides))
        return mask << s if s >= 0 else mask >> -s

    def inv(self, g):
        return tuple(-a for a in g)

    def generators(self):
        """Symmetric generating set {e, +-e_i}, canonically sorted."""
        gens = {self.identity}
        for i in range(self.dim):
            e_i = tuple(1 if j == i else 0 for j in range(self.dim))
            gens.add(e_i)
            gens.add(self.inv(e_i))
        return tuple(sorted(gens))


@dataclass(frozen=True)
class ZCrossZ2:
    """Z x Z/2, elements (n, t) with t in {0, 1}."""

    @property
    def name(self) -> str:
        return "ZxZ2"

    @property
    def identity(self):
        return (0, 0)

    def check(self, g):
        if (
            not isinstance(g, tuple)
            or len(g) != 2
            or not all(isinstance(x, int) for x in g)
            or g[1] not in (0, 1)
        ):
            raise ValueError(f"not an element of ZxZ2: {g!r}")

    def mul(self, g, h):
        if len(g) != 2 or len(h) != 2:
            raise ValueError("operands from a different group")
        return (g[0] + h[0], (g[1] + h[1]) & 1)

    def left_translate(self, g, elements):
        """{g*a : a in elements}; see FreeAbelian.left_translate."""
        x, s = g
        return {(x + a, t ^ s) for a, t in elements}

    right_translate = left_translate

    def shift(self, box, mask: int, g) -> int:
        """FreeAbelian.shift; a torsion bit 1 first swaps each bit pair
        (n, 0), (n, 1), the two innermost labels at each n."""
        x, s = g
        if s:
            evens = (4 ** (box.size >> 1) - 1) // 3  # the bits (n, 0)
            mask = (mask & evens) << 1 | mask >> 1 & evens
        x *= box.strides[0]
        return mask << x if x >= 0 else mask >> -x

    def inv(self, g):
        return (-g[0], g[1])

    def generators(self):
        return ((-1, 0), (0, 0), (0, 1), (1, 0))


@dataclass(frozen=True)
class Heisenberg:
    """Discrete Heisenberg group on triples (a, b, c).

    Product (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'), the upper
    triangular integer matrix encoding; canonical forms are unique.
    """

    @property
    def name(self) -> str:
        return "Heisenberg"

    @property
    def identity(self):
        return (0, 0, 0)

    def check(self, g):
        if (
            not isinstance(g, tuple)
            or len(g) != 3
            or not all(isinstance(x, int) for x in g)
        ):
            raise ValueError(f"not an element of Heisenberg: {g!r}")

    def mul(self, g, h):
        if len(g) != 3 or len(h) != 3:
            raise ValueError("operands from a different group")
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def left_translate(self, g, elements):
        """{g*a : a in elements}; see FreeAbelian.left_translate."""
        x, y, z = g
        return {(x + a, y + b, z + c + x * b) for a, b, c in elements}

    def right_translate(self, g, elements):
        """{a*g : a in elements}, which differs from g*A off the center."""
        x, y, z = g
        return {(a + x, b + y, c + z + a * y) for a, b, c in elements}

    def shift(self, box, mask: int, g) -> int:
        """The mask of A*g from the mask of A, for A and A*g in the box.
        (a, b, c) moves to (a + x, b + y, c + z + a*y): one offset for each
        a, so with a outermost in the box order each a-slab of the mask is
        extracted and shifted once."""
        x, y, z = g
        slab, row, _ = box.strides
        ones, moved = (1 << slab) - 1, 0
        for i, a in enumerate(range(box.lo[0], box.hi[0] + 1)):
            if piece := mask >> i * slab & ones:
                s = (i + x) * slab + y * row + z + a * y
                moved |= piece << s if s >= 0 else piece >> -s
        return moved

    def inv(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def generators(self):
        """{e, x^{+-1}, y^{+-1}} with x=(1,0,0) and y=(0,1,0)."""
        return tuple(
            sorted(
                [
                    (0, 0, 0),
                    (1, 0, 0),
                    (-1, 0, 0),
                    (0, 1, 0),
                    (0, -1, 0),
                ]
            )
        )


_ZD_RE = re.compile(r"^z\^?(\d+)$")


def group_from_name(name: str):
    """Resolve a CLI/file group identifier ("Z", "Z^2", "ZxZ2", "Heisenberg")."""
    key = name.strip().lower()
    if key == "z":
        return FreeAbelian(1)
    m = _ZD_RE.match(key)
    if m:
        d = int(m.group(1))
        if d < 1:
            raise ValueError(f"bad group dimension in {name!r}")
        return FreeAbelian(d)
    if key in ("zxz2", "zxz/2", "z_x_z2"):
        return ZCrossZ2()
    if key in ("heisenberg", "heis", "h3"):
        return Heisenberg()
    raise ValueError(f"unknown group {name!r} (expected Z, Z^d, ZxZ2 or Heisenberg)")


def format_group_element(g) -> str:
    """Serialize as parenthesized comma-separated integers, e.g. "(1,2)"."""
    return "(" + ",".join(str(x) for x in g) + ")"


def parse_group_element(group, text: str):
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"group element must look like (a,b,...): {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError(f"empty group element: {text!r}")
    try:
        g = tuple(int(part.strip()) for part in body.split(","))
    except ValueError:
        raise ValueError(f"non-integer coordinate in group element {text!r}") from None
    group.check(g)
    return g


class FiniteSubset:
    """Immutable finite set of elements of a single group.

    Iteration is in the canonical (lexicographic) element order, so every
    scan over a FiniteSubset is deterministic.
    """

    __slots__ = ("group", "elements", "_sorted")

    def __init__(self, group, elements=()):
        elems = frozenset(elements)
        for g in elems:
            group.check(g)
        self.group = group
        self.elements = elems
        self._sorted = None

    @classmethod
    def _raw(cls, group, frozen):
        """Internal constructor for already-validated elements."""
        obj = object.__new__(cls)
        obj.group = group
        obj.elements = frozen
        obj._sorted = None
        return obj

    def sorted_elements(self):
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements))
        return self._sorted

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.sorted_elements())

    def __contains__(self, g):
        return g in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSubset)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group, self.elements))

    def __repr__(self):
        shown = ",".join(format_group_element(g) for g in self.sorted_elements()[:8])
        more = "" if len(self) <= 8 else f",...({len(self)} total)"
        return f"FiniteSubset[{self.group.name}]{{{shown}{more}}}"

    def _require_same_group(self, other):
        if self.group != other.group:
            raise ValueError(
                f"mixed groups: {self.group.name} vs {other.group.name}"
            )

    def union(self, other):
        self._require_same_group(other)
        return FiniteSubset._raw(self.group, self.elements | other.elements)

    def is_subset(self, other):
        self._require_same_group(other)
        return self.elements <= other.elements

    def inverse(self):
        inv = self.group.inv
        return FiniteSubset._raw(self.group, frozenset(inv(a) for a in self.elements))


def translate(g, A: FiniteSubset) -> FiniteSubset:
    """Left translate gA = {g*a : a in A}; a bijection, so |gA| = |A|."""
    A.group.check(g)
    return FiniteSubset._raw(A.group, frozenset(A.group.left_translate(g, A.elements)))


def set_product(A: FiniteSubset, B: FiniteSubset) -> FiniteSubset:
    """AB = {a*b : a in A, b in B}."""
    A._require_same_group(B)
    left = A.group.left_translate
    product = set()
    for a in A.elements:
        product |= left(a, B.elements)
    return FiniteSubset._raw(A.group, frozenset(product))


def shells(group, start):
    """Yield start, then each new shell S*W - W of W_0 = start,
    W_{k+1} = S*W_k, for the generating set S (which contains e); only the
    last shell is multiplied, as S*W_k - W_k = S*(W_k - W_{k-1}) - W_k.
    The first r + 1 shells of (e,) make up ball(r), those of F ball(r)*F.
    On Z^d, W_k of a box [lo, hi] is the set of points within L1 distance
    k of it, so _box_shells builds each shell in closed form instead."""
    seen = set(start)
    shell = frozenset(seen)
    if isinstance(group, FreeAbelian) and seen:
        columns = list(zip(*seen))
        lo, hi = tuple(map(min, columns)), tuple(map(max, columns))
        if len(seen) == prod(b - a + 1 for a, b in zip(lo, hi)):
            yield shell
            yield from _box_shells(lo, hi)
            return
    gens = [s for s in group.generators() if s != group.identity]  # e*W_k lies in W_k
    left = group.left_translate
    while True:
        yield shell
        grown = set()
        for s in gens:
            grown |= left(s, shell)
        shell = frozenset(grown - seen)
        seen |= shell


def _box_shells(lo: tuple, hi: tuple):
    """Yield shell m = 1, 2, ... of the box [lo, hi] of Z^d, the x with
    sum_i dist(x_i, [lo_i, hi_i]) = m: for each split of m into distances
    k_i (stars and bars: d - 1 bars among m + d - 1 places), the product of
    [lo_i, hi_i] where k_i = 0 and {lo_i - k_i, hi_i + k_i} elsewhere."""
    def at(a, b, k):
        return range(a, b + 1) if k == 0 else (a - k, b + k)

    d = len(lo)
    for m in count(1):
        splits = ([b - a - 1 for a, b in zip((-1, *bars), (*bars, m + d - 1))]
                  for bars in combinations(range(m + d - 1), d - 1))
        yield frozenset(chain.from_iterable(product(*map(at, lo, hi, ks)) for ks in splits))


def ball(group, r: int) -> FiniteSubset:
    """Word ball B_r(S): all products of at most r generators; B_0 = {e}.

    S is the group's fixed symmetric generating set containing e, so the
    balls are nested by construction.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    layers = islice(shells(group, (group.identity,)), r + 1)
    return FiniteSubset._raw(group, frozenset().union(*layers))


class BoxBits:
    """The bit table of the labels (h, j) with lo <= h <= hi coordinatewise
    and 0 <= j < rank: the mixed-radix index of (h, j), lexicographic with
    j innermost, so bit order is label order and a row shifted by
    strides[i] has each label one step further in coordinate i.  At rank 1
    the labels are the elements h, and a set inside the box is the int
    mask of their bits (mask, members; the group's shift translates it)."""

    __slots__ = ("lo", "hi", "strides", "size")

    def __init__(self, lo: tuple, hi: tuple, rank: int = 1):
        strides = [rank]
        for a, b in zip(lo[::-1], hi[::-1]):
            strides.insert(0, strides[0] * (b - a + 1))
        self.lo, self.hi, self.size, self.strides = lo, hi, strides[0], tuple(strides[1:])

    def get(self, label) -> int:
        h, j = label
        if not all(a <= x <= b for x, a, b in zip(h, self.lo, self.hi)):
            raise ValueError(f"label {label!r} outside the box")
        return j + sum((x - a) * k for x, a, k in zip(h, self.lo, self.strides))

    def mask(self, columns) -> int:
        """The mask of a set of elements of the box, given by its columns
        zip(*elements) as box takes them, read as one digit string by
        int(_, 2): each element costs one digit, not the mask's width."""
        count = len(columns[0]) if columns else 0
        index = [self.size - 1 + sum(map(mul, self.lo, self.strides))] * count
        for column, k in zip(columns, self.strides):
            index = map(sub, index, map(mul, column, repeat(k)))
        digits = bytearray(b"0") * self.size
        for i in index:
            digits[i] = 49  # b"1"; digit i is bit size - 1 - i
        return int(digits, 2)

    def members(self, mask: int) -> frozenset:
        """The elements whose bits are set in mask."""
        digits = bin(mask)[:1:-1]  # digits[i] is bit i
        found = [m.start() for m in re.finditer("1", digits)]
        return frozenset(zip(*(
            map(add, repeat(a), map(mod, map(floordiv, found, repeat(k)), repeat(b - a + 1)))
            for a, b, k in zip(self.lo, self.hi, self.strides)
        )))


def box(group, columns, steps, cells: int, rank: int = 1):
    """The BoxBits over the coordinate hull of the right translates A*g,
    g in steps, of the set A of these columns, list(zip(*A)), which
    BoxBits.mask takes too, so one transpose serves both: the box in
    which group.shift moves A's mask.  The Z2 bit of ZxZ2 spans [0, 1].
    On the Heisenberg group c also moves by a*y, linear in a, so each
    step (x, y, z) counts as (x, y, z + a*y) at both ends a of A's hull.
    None for an empty A or steps, and for a box of more than cells cells,
    as one element far from the others makes it."""
    if not columns or not steps:
        return None
    if isinstance(group, Heisenberg):
        ends = min(columns[0]), max(columns[0])
        steps = [(x, y, z + a * y) for x, y, z in steps for a in ends]
    free = 1 if isinstance(group, ZCrossZ2) else len(group.identity)
    hull = list(zip(columns[:free], zip(*steps)))
    torsion = len(group.identity) - free
    lo = tuple(min(a) + min(g) for a, g in hull) + (0,) * torsion
    hi = tuple(max(a) + max(g) for a, g in hull) + (1,) * torsion
    if prod(b - a + 1 for a, b in zip(lo, hi)) > cells:
        return None
    return BoxBits(lo, hi, rank)
