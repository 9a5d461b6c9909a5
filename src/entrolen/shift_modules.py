"""Presentations of shift modules, trajectory subspaces, and quotient
dimension accounting with a stabilizing window approximation.

A presentation fixes a twisted product (cocycle with field and group), an
ambient free-module rank r and finitely many generator vectors; the
presented module is the full trajectory of the generators' span.  All
window computations are exact; the only approximation anywhere is the
growing-window stopping rule for intersections with a submodule, and its
outcome carries an explicit stabilized/budget-exhausted flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from operator import mul

from .crossed_product import (
    _add_term,
    _read_term,
    _vector,
    act,
    cocycle_from_name,
    CocycleData,
    CrossedElement,
)
from .exact_linalg import (
    _planes, BitEchelon, Echelon, field_from_name, rank_echelon,
)
from .groups import (
    FiniteSubset,
    format_group_element,
    group_from_name,
    shells,
)


@dataclass(frozen=True)
class StabilizationConfig:
    """Stopping rule for the growing-window intersection approximation."""

    stability_window: int = 3
    max_steps: int = 30

    def __post_init__(self):
        if self.stability_window < 1:
            raise ValueError("stability_window must be >= 1")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")


DEFAULT_STABILIZATION = StabilizationConfig()


class SubshiftPresentation:
    """Finitely many generators inside the rank-r free module over K*G."""

    __slots__ = ("cocycle", "rank", "generators")

    def __init__(self, cocycle: CocycleData, rank: int, generators):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        gens = []
        group, field = cocycle.group, cocycle.field
        for vec in generators:
            cleaned = {}
            for (g, j), c in vec.items():
                group.check(g)
                field.check(c)
                if not isinstance(j, int) or not (0 <= j < rank):
                    raise ValueError(f"coordinate {j!r} outside 0..{rank - 1}")
                if c:
                    cleaned[(g, j)] = c
            if not cleaned:
                raise ValueError("generators must be nonzero")
            gens.append(cleaned)
        self.cocycle = cocycle
        self.rank = rank
        self.generators = tuple(gens)

    @property
    def field(self):
        return self.cocycle.field

    @property
    def group(self):
        return self.cocycle.group

    def __eq__(self, other):
        return (
            isinstance(other, SubshiftPresentation)
            and self.cocycle == other.cocycle
            and self.rank == other.rank
            and self.generators == other.generators
        )

    def __repr__(self):
        return (
            f"SubshiftPresentation({self.field.name}[{self.group.name}]^"
            f"{self.rank}, {len(self.generators)} generators)"
        )


def bernoulli(cocycle: CocycleData, rank: int) -> SubshiftPresentation:
    """The free module itself: one identity-supported generator per slot."""
    e = cocycle.group.identity
    one = cocycle.field.one
    return SubshiftPresentation(
        cocycle, rank, [{(e, j): one} for j in range(rank)]
    )


def cyclic_presentation(cocycle: CocycleData, x: CrossedElement) -> SubshiftPresentation:
    """Rank-1 presentation of the left principal submodule generated by x."""
    if x.is_zero():
        raise ValueError("x must be nonzero")
    if x.field != cocycle.field or x.group != cocycle.group:
        raise ValueError("element does not match the cocycle's ring")
    return SubshiftPresentation(cocycle, 1, [_vector(x)])


def _check_same_ambient(M: SubshiftPresentation, N: SubshiftPresentation):
    if M.cocycle != N.cocycle or M.rank != N.rank:
        raise ValueError("presentations must share the ambient free module")


def _translates(p: SubshiftPresentation, elements):
    """act(g, v) for g in elements, descending, and v a generator; the
    descending scan keeps fill-in low for shift-structured inputs.  A
    _Packer yields the same rows, packed."""
    c = p.cocycle
    for g in sorted(elements, reverse=True):
        for v in p.generators:
            yield act(g, v, c)


class _Packer:
    """The packed rows of _translates(p, gs) on the table of root, as
    rows(gs) for gs in descending order, root.pack(act(g, v)) bit for bit.
    On the bit kernel with rho identically 1, act(g, v) has the
    coefficients of act(g', v), in v's term order, wherever sigma's
    exponents at g and g' agree modulo the automorphism's order: act runs
    once per generator and exponent class.  With a hull (base, top) of the
    windows in the free coordinates, root on the groups.BoxBits granted for
    it, each v is packed once per torsion bits t and exponent class at
    b = base + t, and shifted left by the offset of g from b (Kronecker
    substitution, von zur Gathen and Gerhard, Modern Computer Algebra,
    8.4); else each g numbers its labels (g h, j) on the table and ORs in
    their plane bits.  Off the bit kernel, or for a caller-supplied rho,
    each row is root.pack(act(g, v))."""

    __slots__ = ("p", "root", "hull", "rows")

    def __init__(self, p: SubshiftPresentation, root, hull=None):
        self.p, self.root, self.hull, c = p, root, hull, p.cocycle
        if not isinstance(root, BitEchelon) or c.rho is not None:
            self.rows = lambda gs: [root.pack(x) for x in _translates(p, gs)]
            return
        group_mul, order, classes = p.group.mul, p.field.auto_order, {}
        sigma = c.sigma_exp if c.frobenius else None

        def move(g, label):
            h, j = label
            return group_mul(g, h), j

        def terms(g, e):
            """Each generator with the _planes of its coefficients in
            act(g, v), for e sigma's exponent at g modulo its order."""
            if (found := classes.get(e)) is None:
                found = classes[e] = [(v, _planes(act(g, v, c).values())) for v in p.generators]
            return found

        if hull is None:
            def rows(gs):
                if sigma:
                    return root.pack_moved([(g, terms(g, sigma(g) % order)) for g in gs], move)
                return root.pack_moved(zip(gs, repeat(terms(p.group.identity, 0))), move)
        else:
            base, based, free = hull[0], {}, len(hull[0])  # based: (t, e) -> rows at b

            def rows(gs):
                strides = root.bits.strides[:free]
                zero = sum(map(mul, base, strides))
                for g in gs:
                    key = g[free:], sigma(g) % order if sigma else 0
                    if (found := based.get(key)) is None:
                        found = based[key] = root.pack_moved([(base + key[0], terms(g, key[1]))], move)
                    s = sum(map(mul, g, strides)) - zero
                    for x in found:
                        yield x << s if type(x) is int else (x[0] << s, x[1] << s)
        self.rows = rows

    def covers(self, elements) -> bool:
        """Whether the elements lie in the hull; always without one."""
        hull = zip(zip(*elements), *self.hull) if self.hull else ()
        return all(a <= min(x) and max(x) <= b for x, a, b in hull)

    def translates(self, elements):
        """The packed rows of _translates(p, elements)."""
        return self.rows(sorted(elements, reverse=True))


def trajectory_echelon(p: SubshiftPresentation, F: FiniteSubset) -> Echelon:
    """Echelon of {act(g, v) : g in F, v generator}."""
    if F.group != p.group:
        raise ValueError("window group does not match the presentation")
    return Echelon(p.field, _translates(p, F.elements))


@dataclass(frozen=True)
class SesDims:
    """Window dimensions of the exact sequence
    0 -> (T meet N) -> T -> image in the quotient -> 0, with dim_sub =
    dim T_F(N) and dim_window_meet = dim(T meet T_F(N)) for T = T_F(M)."""

    dim_total: int
    dim_intersection: int
    dim_image: int
    stabilized: bool
    steps: int
    dim_sub: int
    dim_window_meet: int


class _SplitRows:
    """Per-run state of _quotient_split over a sequence of windows.

    It holds the root echelon, whose label table every echelon of the run
    shares, the packed rows of M's and of N's translates at each g, which a
    _Packer builds at most once per run, and the running echelons of
    T = T_F(M), V = T_F(N) and W = T + V, grown by each window's new
    elements (exact: a rank depends only on the row space); a window not
    containing the previous one restarts all three.  image is the last
    split's (F, E, rows of its image echelon), E = ball(steps) * F.

    chain holds W_0, the first window, then the shells S*W_k - W_k for
    W_{k+1} = S*W_k as grower yields them, each with its packed N rows
    once a split has read them; it keeps no level W_j as a set.  A window
    that is no level restarts the chain from itself."""

    __slots__ = ("M", "N", "root", "T", "V", "W", "prev", "image", "chain", "grower")

    def __init__(self, M: SubshiftPresentation, N: SubshiftPresentation):
        self.root = root = rank_echelon(M.field)
        self.M, self.N = (_Packer(M, root), {}), (_Packer(N, root), {})  # g -> rows
        self.prev = None  # the first grow starts the echelons
        self.image = (frozenset(), frozenset(), ())
        self.chain = []  # the first window starts the chain

    def translates(self, side, elements):
        """The packed rows of _translates(p, elements) for side = (packer
        of p, cache); the g not yet in the cache are packed in one call."""
        packer, cache = side
        gs = sorted(elements, reverse=True)
        if missing := [g for g in gs if g not in cache]:
            rows, n = packer.rows(missing), len(packer.p.generators)  # n rows a g
            cache.update((g, rows[i:i + n]) for g, i in zip(missing, count(0, n)))
        for g in gs:
            yield from cache[g]

    def grow(self, elements: frozenset):
        """Bring T, V and W to the window F of these elements."""
        if self.prev is None or not self.prev <= elements:
            self.T, self.V, self.W = (self.root.sibling() for _ in range(3))
            self.prev = frozenset()
        new, T, V, W = elements - self.prev, self.T, self.V, self.W
        for x in self.translates(self.M, new):
            T.add(x)
            W.add(x)
        for x in self.translates(self.N, new):
            if V.add(x) is not None:  # else x already lies in W
                W.add(x)
        self.prev = elements

    def _shell(self, k: int) -> list:
        chain = self.chain
        while len(chain) <= k:
            chain.append([next(self.grower), None])
        return chain[k]

    def shells(self, elements: frozenset):
        """Yield (shell, its packed N rows) for the shells that
        groups.shells(group, elements) yields after the window itself.
        When the window is a level W_j of the chain, which holds iff the
        chain's shells 0..j lie in it and their sizes add up to its size,
        they are the chain's shells j+1, j+2, ..., since S*W_j = W_{j+1}."""
        j = size = 0
        while self.chain and (shell := self._shell(j)[0]) and shell <= elements:
            size += len(shell)
            if size == len(elements):
                break
            j += 1
        else:
            self.chain, j = [], 0
            self.grower = shells(self.M[0].p.group, elements)
        for k in count(j + 1):
            entry = self._shell(k)
            if entry[1] is None:
                entry[1] = tuple(self.translates(self.N, entry[0]))
            yield entry


def _quotient_split(
    M: SubshiftPresentation,
    N: SubshiftPresentation,
    F: FiniteSubset,
    approx: StabilizationConfig | None = None,
    rows: _SplitRows | None = None,
) -> SesDims:
    """Exact window dimensions (total, intersection, image); the identity
    dim_total = dim_intersection + dim_image holds in every output.  When
    the budget runs out before stabilization the intersection is a lower
    bound, the image an upper bound, and stabilized is False.

    The F-window trajectory of M is split along the submodule presented
    by N, approximating N by trajectories over growing windows
    E_m = ball(m) * F until the intersection dimension is unchanged for
    approx.stability_window consecutive steps; E_0 = F gives dim_sub and
    dim_window_meet.

    V = T_E(N) and T + V start from the running echelons of rows, which
    are already step 0, and take the N translates of the shells of E_m
    beyond F; dim(T meet V) = dim T + dim V - dim(T + V).  The image
    dimension comes independently from normal forms modulo V, in an
    echelon of (T + V)/V; the two routes must satisfy dim_total =
    intersection + image exactly, which is asserted.

    rows is the _SplitRows(M, N) of a run over several windows: the
    translates are then packed once per run, and T, V and T + V grow
    across nested windows.  When the previous split's F and E lie in this
    one's, its T and V do too, so its image rows and the M translates of
    the new elements of F span (T + V)/V modulo V, and only those are
    reduced; else every M translate of F is.  None starts a fresh one.
    """
    _check_same_ambient(M, N)
    if F.group != M.group:
        raise ValueError("window group does not match the presentation")
    approx = approx or DEFAULT_STABILIZATION
    if rows is None:
        rows = _SplitRows(M, N)
    rows.grow(F.elements)
    dim_total = rows.T.dim

    if not N.generators:
        return SesDims(dim_total, 0, dim_total, True, 0, 0, 0)

    # copies leave the running echelons to the next window
    ech_W, ech_V = rows.W.copy(), rows.V.copy()
    cap = dim_total + ech_V.dim - ech_W.dim
    window_dims = (ech_V.dim, cap)  # dim_sub, dim_window_meet
    streak = steps = 0
    stabilized = False
    E = set(F.elements)
    later = islice(rows.shells(F.elements), approx.max_steps)
    for steps, (shell, packed) in enumerate(later, start=1):
        before = cap
        E |= shell
        for x in packed:
            if ech_V.add(x) is not None:  # else x already lies in T + V
                ech_W.add(x)
        cap = dim_total + ech_V.dim - ech_W.dim
        # streak counts consecutive growth steps with no new intersection
        streak = streak + 1 if cap == before else 0
        if streak >= approx.stability_window:
            stabilized = True
            break

    # T + V is no longer needed: free the rows it added, as wide as their pivots
    image, ech_W = rows.root.sibling(), None
    F_prev, E_prev, kept = rows.image
    if not (F_prev <= F.elements and E_prev <= E):
        F_prev, kept = frozenset(), ()
    for x in chain(kept, rows.translates(rows.M, F.elements - F_prev)):
        image.add(ech_V.reduce(x))
    dim_image = image.dim
    if dim_total != cap + dim_image:
        raise RuntimeError(
            "internal inconsistency: "
            f"{dim_total} != {cap} + {dim_image}"
        )
    rows.image = (F.elements, E, tuple(image.rows.values()))
    return SesDims(dim_total, cap, dim_image, stabilized, steps, *window_dims)


class PresentationError(ValueError):
    """Parse failure with 1-based line/column coordinates."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


def serialize_presentation(p: SubshiftPresentation) -> str:
    """Canonical text form; parse_presentation_text inverts it exactly.

    Header lines group=, field=, cocycle=, rank=, then one generator per
    line as ;-joined triples (g)|coeff|coord with 1-based coordinates.
    The cocycle= header names only rho identically 1, so a presentation
    with a caller-supplied rho is refused.
    """
    if p.cocycle.rho is not None:
        raise ValueError("cannot serialize a cocycle with a caller-supplied rho")
    lines = [
        f"group={p.group.name}",
        f"field={p.field.name}",
        f"cocycle={p.cocycle.label}",
        f"rank={p.rank}",
    ]
    fmt = p.field.fmt
    for gen in p.generators:
        parts = [
            f"{format_group_element(g)}|{fmt(c)}|{j + 1}"
            for (g, j), c in sorted(gen.items())
        ]
        lines.append(";".join(parts))
    return "\n".join(lines) + "\n"


def parse_presentation_text(text: str) -> SubshiftPresentation:
    headers: dict = {}
    generator_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "|" in line:
            generator_lines.append((lineno, raw))
            continue
        if "=" not in line:
            raise PresentationError(lineno, 1, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in ("group", "field", "rank", "cocycle"):
            raise PresentationError(lineno, 1, f"unknown header key {key!r}")
        if key in headers:
            raise PresentationError(lineno, 1, f"duplicate header {key!r}")
        headers[key] = (lineno, value.strip())

    for required in ("group", "field", "rank"):
        if required not in headers:
            raise PresentationError(0, 0, f"missing header {required!r}")

    def header_error(key, msg):
        lineno, _ = headers[key]
        return PresentationError(lineno, 1, msg)

    try:
        group = group_from_name(headers["group"][1])
    except ValueError as exc:
        raise header_error("group", str(exc)) from None
    try:
        fld = field_from_name(headers["field"][1])
    except ValueError as exc:
        raise header_error("field", str(exc)) from None
    try:
        rank = int(headers["rank"][1])
    except ValueError:
        raise header_error("rank", f"bad rank {headers['rank'][1]!r}") from None
    if rank < 1:
        raise header_error("rank", "rank must be >= 1")
    cocycle_name = headers.get("cocycle", (0, "trivial"))[1]
    try:
        cocycle = cocycle_from_name(cocycle_name, fld, group)
    except ValueError as exc:
        lineno = headers.get("cocycle", (1, ""))[0]
        raise PresentationError(lineno, 1, str(exc)) from None

    generators = []
    for lineno, line in generator_lines:
        vec: dict = {}
        col = 1
        for chunk in line.split(";"):
            piece = chunk.strip()
            pos = col + len(chunk) - len(chunk.lstrip())
            try:
                g_text, coeff_text, coord_text = (q.strip() for q in piece.split("|"))
            except ValueError:
                raise PresentationError(
                    lineno, pos, f"expected (g)|coeff|coord, got {piece!r}"
                ) from None
            try:
                key, coeff = _read_term(
                    fld, group, piece, g_text, coeff_text, coord_text, rank
                )
            except ValueError as exc:
                raise PresentationError(lineno, pos, str(exc)) from None
            # duplicate keys: coefficients are summed, exact zeros dropped
            _add_term(fld, vec, key, coeff)
            col += len(chunk) + len(";")
        if not vec:
            raise PresentationError(
                lineno, pos, "generator vanishes after combining terms"
            )
        generators.append(vec)
    return SubshiftPresentation(cocycle, rank, generators)
