"""Exact Temperley-Lieb diagram calculus at a root of unity.

Morphisms are formal linear combinations of noncrossing planar pairings
with coefficients in the cyclotomic field of `cyclo.scalar_field(k)`.
Closed loops created by stacking evaluate to delta = [2]_q = q + q^(-1).

Boundary convention: a diagram from n_bottom to n_top points carries its
bottom points at indices 0..n_bottom-1 (left to right) and its top points
at n_bottom..n_bottom+n_top-1 (left to right).  Planarity is checked in
the disk order (bottom left to right, then top right to left).

Every diagram built here is interned: one object per distinct boundary and
pairing, so the public constructor's validation (planarity included) runs
once per distinct pairing, not once per gluing.  Crossings and caps act on
one term at a time as local reconnections of its top points (the e_i action
of Kauffman-Lins), without gluing a full-width diagram.  The wrap behind
curls and traciators caps each strand as soon as its last crossing is done,
so every intermediate morphism has as few top points as possible.  There is
one wrap, to the right: reflecting left to right fixes id and every e_i, so
it fixes each crossing a id + b e, and a left curl or a '-' traciator is the
mirror image of a right wrap.  Gluing two diagrams walks from each outer
point through both pairings in turn, crossing the seam by index arithmetic;
the seam points no walk reaches lie on closed loops.  The diagram and glue
tables are LRU caches of bounded size.

Composition is a block kernel.  The operand with fewer distinct coefficients
c gives one multiplier c delta**loops per distinct (c, loops), whose integral
matrix over the power basis of Q(zeta) (`_zeta_powers`) multiplies the
rows of its pairs in the other operand's integer block; `np.add.at` sums them
into the output.  The products run in float64 while a bound on every partial
sum is below 2**53 and in Python ints past it, as in `fusion._exact_dtype`.

A projected wrap (traciator, block braid or twist) is the unprojected wrap
after the incoming projector only: the traciators, the braiding and the
twist are natural, and Jones-Wenzl projectors slide through crossings and
around caps, so the outgoing projector would change nothing.

Simple objects are modelled by Jones-Wenzl projectors: the level-k label
n corresponds to the projector on n-1 strands.  The pivotal structure is
strict (caps and cups are plain arcs, the double dual is the identity on
diagrams), so the two canonical twists differ only through the braiding,
and all identities below are decided by exact scalar equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import Cyc, scalar_field
from .fusion import _check_level
from .linalg import reduce_row


@dataclass(frozen=True)
class PlanarDiagram:
    """A perfect noncrossing matching of n_bottom + n_top boundary points."""

    n_bottom: int
    n_top: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        n = self.n_bottom + self.n_top
        if self.n_bottom < 0 or self.n_top < 0:
            raise ValueError("negative boundary size")
        if n % 2:
            raise ValueError("odd number of boundary points")
        if len(self.pairing) != n:
            raise ValueError("pairing length mismatch")
        for p, q in enumerate(self.pairing):
            if q == p or not 0 <= q < n or self.pairing[q] != p:
                raise ValueError("pairing is not a fixed-point-free involution")
        if not _is_noncrossing(self.n_bottom, self.n_top, self.pairing):
            raise ValueError("pairing has crossing chords")
        # diagrams key every table here; hash the pairing once
        object.__setattr__(
            self, "_hash", hash((self.n_bottom, self.n_top, self.pairing))
        )

    def __hash__(self) -> int:
        return self._hash

    def rotate180(self) -> "PlanarDiagram":
        """The diagram turned upside down (duality on morphisms): point p,
        counted along the bottom and then the top, becomes point n-1-p."""
        n = self.n_bottom + self.n_top
        return self._relabel(self.n_top, self.n_bottom, lambda p: n - 1 - p)

    def mirror(self) -> "PlanarDiagram":
        """The diagram reflected left to right, each row reversed."""
        nb, n = self.n_bottom, self.n_bottom + self.n_top
        return self._relabel(nb, self.n_top, lambda p: nb - 1 - p if p < nb else n + nb - 1 - p)

    def _relabel(self, nb: int, nt: int, remap) -> "PlanarDiagram":
        """The diagram from nb to nt points whose point remap(p) is paired
        with remap(pairing[p])."""
        new = [0] * (nb + nt)
        for p, q in enumerate(self.pairing):
            new[remap(p)] = remap(q)
        return _diagram(nb, nt, tuple(new))


def _is_noncrossing(nb: int, nt: int, pairing: tuple[int, ...]) -> bool:
    """Walk the points in disk order; each chord must close the innermost
    open one.  `pairing` must already be a fixed-point-free involution."""
    n = nb + nt
    seen = [False] * n
    open_points = []
    for p in (*range(nb), *range(n - 1, nb - 1, -1)):
        if seen[pairing[p]]:
            if open_points.pop() != pairing[p]:
                return False
        else:
            open_points.append(p)
        seen[p] = True
    return True


# Bound on each diagram table below; past it the least recently used
# entries are evicted.  `tracecat verify --all` ends with 1,607 interned
# diagrams and 21,531 glued pairs, so only wider --bound runs reach it.
_TABLE_BOUND = 100_000


@lru_cache(maxsize=_TABLE_BOUND)
def _diagram(nb: int, nt: int, pairing: tuple[int, ...]) -> PlanarDiagram:
    """The interned diagram with this boundary and pairing, validated by the
    public constructor the first time it is seen.  Call it positionally: one
    pairing, one cache key."""
    return PlanarDiagram(nb, nt, pairing)


@lru_cache(maxsize=_TABLE_BOUND)
def _glue(top: PlanarDiagram, bottom: PlanarDiagram) -> tuple[int, PlanarDiagram]:
    """Stack `top` onto `bottom`; return (closed loops, resulting diagram).

    Seam point j is bottom's point a + j and top's point j.  The walk from
    each result point follows one diagram's chord and, while it ends on the
    seam, crosses there to the other diagram's chord, marking the seam
    point; the seam points left unmarked lie on closed loops."""
    a, b, c = bottom.n_bottom, bottom.n_top, top.n_top
    low, high = bottom.pairing, top.pairing
    result = [-1] * (a + c)  # bottom's points 0..a-1, then top's b..b+c-1
    seen = [False] * b
    for start in range(a + c):
        if result[start] >= 0:
            continue
        if start < a:
            p = low[start]
            while p >= a:
                seen[p - a] = True
                p = high[p - a]
                if p >= b:
                    p += a - b
                    break
                seen[p] = True
                p = low[a + p]
        else:
            p = high[start - a + b]
            # a strand from here to a bottom point was walked from there
            while p < b:
                seen[p] = True
                p = low[a + p]
                seen[p - a] = True
                p = high[p - a]
            p += a - b
        result[start], result[p] = p, start
    loops = 0
    for j in range(b):
        if seen[j]:
            continue
        loops += 1
        while not seen[j]:
            seen[j] = True
            j = high[j]
            seen[j] = True
            j = low[a + j] - a
    return loops, _diagram(a, c, tuple(result))


def _add_term(terms: dict, diag: PlanarDiagram, coef) -> None:
    terms[diag] = terms[diag] + coef if diag in terms else coef


class TLMorphism:
    """Finite linear combination of planar diagrams with common boundary."""

    __slots__ = ("field", "n_bottom", "n_top", "terms")

    def __init__(self, field, n_bottom: int, n_top: int, terms: dict | None = None):
        self.field = field
        self.n_bottom = n_bottom
        self.n_top = n_top
        clean = {}
        for diag, coef in (terms or {}).items():
            if diag.n_bottom != n_bottom or diag.n_top != n_top:
                raise ValueError("diagram boundary mismatch")
            if not coef.is_zero():
                clean[diag] = coef
        self.terms = clean

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "TLMorphism") -> "TLMorphism":
        if self.field is not other.field:
            raise ValueError("scalar field mismatch")
        if (self.n_bottom, self.n_top) != (other.n_bottom, other.n_top):
            raise ValueError("boundary mismatch")
        terms = dict(self.terms)
        for d, c in other.terms.items():
            _add_term(terms, d, c)
        return TLMorphism(self.field, self.n_bottom, self.n_top, terms)

    def __sub__(self, other: "TLMorphism") -> "TLMorphism":
        return self + other.scaled(-self.field.one)

    def scaled(self, scalar) -> "TLMorphism":
        return TLMorphism(
            self.field,
            self.n_bottom,
            self.n_top,
            {d: c * scalar for d, c in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        # Cyc is canonical and zero terms are dropped: equal morphisms, equal dicts
        if not isinstance(other, TLMorphism):
            return NotImplemented
        same = (self.field, self.n_bottom, self.n_top) == (other.field, other.n_bottom, other.n_top)
        return same and self.terms == other.terms

    # -- diagram operations ---------------------------------------------------

    def rotate180(self) -> "TLMorphism":
        return self._relabel(self.n_top, self.n_bottom, PlanarDiagram.rotate180)

    def mirror(self) -> "TLMorphism":
        """The reflection left to right: it keeps composites and reverses
        the order of tensor factors."""
        return self._relabel(self.n_bottom, self.n_top, PlanarDiagram.mirror)

    def _relabel(self, nb: int, nt: int, reflect) -> "TLMorphism":
        return TLMorphism(self.field, nb, nt, {reflect(d): c for d, c in self.terms.items()})

    def __repr__(self) -> str:
        return (
            f"TLMorphism({self.n_bottom}->{self.n_top}, {len(self.terms)} terms)"
        )


def compose(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """The composite f after g (g is applied first); see the module docstring."""
    if f.field is not g.field:
        raise ValueError("scalar field mismatch")
    if f.n_bottom != g.n_top:
        raise ValueError(f"cannot compose: f expects {f.n_bottom} inputs, g produces {g.n_top}")
    field, d, nf = f.field, f.field.degree, len(f.terms)
    loops, slots, out = [], [], {}
    for dg in g.terms:
        for df in f.terms:
            n, diag = _glue(df, dg)
            loops.append(n)
            slots.append(out.setdefault(diag, len(out)))
    if not out:
        return TLMorphism(field, g.n_bottom, f.n_top)
    # pair p = r * nf + i glued f's term i onto g's term r
    fvals, gvals = {}, {}
    fids = [fvals.setdefault(c, len(fvals)) for c in f.terms.values()]
    gids = [gvals.setdefault(c, len(gvals)) for c in g.terms.values()]
    by_g = len(gvals) < len(fvals)
    values, block = list(gvals if by_g else fvals), list((f if by_g else g).terms.values())
    loops, slots, width = np.array(loops), np.array(slots), max(loops) + 1
    ids = np.array(gids)[:, None] if by_g else np.array(fids)
    key = (loops.reshape(-1, nf) + width * ids).ravel()
    order = np.argsort(key, kind="stable")
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    sizes = np.diff(starts, append=len(order)).tolist()
    groups = [divmod(x, width) for x in key[order[starts]].tolist()]
    mults = [values[v] * _delta_power(field, n) if n else values[v] for v, n in groups]
    bden, mden = (math.lcm(*(c.den for c in cs)) for cs in (block, mults))
    rows = [[x * (bden // c.den) for x in c.num] for c in block]
    nums = [[x * (mden // c.den) for x in c.num] for c in mults]
    # every partial sum is at most d * max|G| * max|Z| * sum over pairs of L1(num)
    Z = _zeta_powers(field)
    bound = d * int(np.abs(Z).max()) * max(abs(x) for row in rows for x in row)
    bound *= sum(size * sum(map(abs, num)) for size, num in zip(sizes, nums))
    dtype = np.float64 if bound < 2**53 else object
    G, Z, acc = np.array(rows, dtype), Z.astype(dtype), np.zeros((len(out), d), dtype)
    for size, num in zip(sizes, nums):
        pairs, order = order[:size], order[size:]
        M = sum((x * Z[m : m + d] for m, x in enumerate(num) if x), np.zeros((d, d), dtype))
        np.add.at(acc, slots[pairs], G[pairs % nf if by_g else pairs // nf] @ M)
    rows = (acc if dtype is object else acc.astype(np.int64)).tolist()
    terms = {diag: Cyc(field, tuple(row), bden * mden) for diag, row in zip(out, rows) if any(row)}
    return TLMorphism(field, g.n_bottom, f.n_top, terms)


def tensor(f: TLMorphism, g: TLMorphism) -> TLMorphism:
    """Horizontal juxtaposition, f to the left of g."""
    if f.field is not g.field:
        raise ValueError("scalar field mismatch")
    nb, nt = f.n_bottom + g.n_bottom, f.n_top + g.n_top
    terms = {}
    for df, cf in f.terms.items():
        for dg, cg in g.terms.items():
            terms[_tensor_diagrams(df, dg)] = cf * cg
    return TLMorphism(f.field, nb, nt, terms)


def _tensor_diagrams(df: PlanarDiagram, dg: PlanarDiagram) -> PlanarDiagram:
    fb, gb, ft = df.n_bottom, dg.n_bottom, df.n_top
    # the result's points: f's bottom, g's bottom, f's top, g's top
    f = [q if q < fb else q + gb for q in df.pairing]
    g = [q + fb if q < gb else q + fb + ft for q in dg.pairing]
    return _diagram(fb + gb, ft + dg.n_top, tuple(f[:fb] + g[:gb] + f[fb:] + g[gb:]))


@lru_cache(maxsize=None)
def _zeta_powers(field) -> np.ndarray:
    """Rows zeta**j reduced, j < 2 degree - 1, per field: x's matrix is sum_m x_m Z[m : m + d]."""
    return np.array([field.zeta(j).num for j in range(2 * field.degree - 1)], dtype=np.int64)


@lru_cache(maxsize=None)
def _delta_power(field, n: int):
    """delta**n, keyed by the field itself (the cache holds it, so its id is
    not reused); delta is evaluated once per field."""
    if n < 2:
        return field.loop_value() if n else field.one
    return _delta_power(field, n - 1) * _delta_power(field, 1)


# -- basic diagrams ----------------------------------------------------------


def identity(field, n: int) -> TLMorphism:
    pairing = tuple(range(n, 2 * n)) + tuple(range(n))
    return TLMorphism(field, n, n, {_diagram(n, n, pairing): field.one})


def cup(field, m: int = 1) -> TLMorphism:
    """Nested coevaluation 0 -> 2m (point j pairs with 2m-1-j)."""
    pairing = tuple(2 * m - 1 - j for j in range(2 * m))
    return TLMorphism(field, 0, 2 * m, {_diagram(0, 2 * m, pairing): field.one})


def cap(field, m: int = 1) -> TLMorphism:
    """Nested evaluation 2m -> 0."""
    pairing = tuple(2 * m - 1 - j for j in range(2 * m))
    return TLMorphism(field, 2 * m, 0, {_diagram(2 * m, 0, pairing): field.one})


def e_generator(field, n: int, i: int) -> TLMorphism:
    """The TL generator e_i on n strands (cap-cup at positions i, i+1)."""
    if not 0 <= i < n - 1:
        raise ValueError("generator index out of range")
    return embed(compose(cup(field), cap(field)), i, n - 2 - i)


def embed(f: TLMorphism, left: int, right: int) -> TLMorphism:
    """id_left (x) f (x) id_right."""
    out = f
    if left:
        out = tensor(identity(f.field, left), out)
    if right:
        out = tensor(out, identity(f.field, right))
    return out


def all_diagrams(nb: int, nt: int) -> list[PlanarDiagram]:
    """Every planar pairing with the given boundary (Catalan many): the first
    open point in disk order pairs with each later one in turn, and the
    points on either side of that chord pair among themselves."""
    if nb < 0 or nt < 0:
        raise ValueError("negative boundary size")
    n = nb + nt
    if n % 2:
        return []
    disk = (*range(nb), *range(n - 1, nb - 1, -1))
    pairing = [0] * n

    def chords(lo: int, hi: int):
        """Fill `pairing` on the disk positions lo..hi-1, once per way."""
        if lo == hi:
            yield
            return
        for mid in range(lo + 1, hi, 2):
            p, q = disk[lo], disk[mid]
            pairing[p], pairing[q] = q, p
            for _ in chords(lo + 1, mid):
                yield from chords(mid + 1, hi)

    return [_diagram(nb, nt, tuple(pairing)) for _ in chords(0, n)]


# -- Jones-Wenzl projectors ---------------------------------------------------


@dataclass(frozen=True)
class TLObject:
    """An object of the projected category: strands with an idempotent on them."""

    strands: int
    proj: TLMorphism

    def tensor(self, other: "TLObject") -> "TLObject":
        return TLObject(self.strands + other.strands, tensor(self.proj, other.proj))


@lru_cache(maxsize=None)
def jones_wenzl(n: int, field) -> TLObject:
    """Wenzl recursion; fails where a quantum integer [m], m <= n, vanishes."""
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    if n <= 1:
        return TLObject(n, identity(field, n))
    prev = jones_wenzl(n - 1, field).proj
    qn = field.quantum_integer(n)
    if qn.is_zero():
        raise ValueError(f"vanishing quantum integer [{n}]_q")
    ratio = field.quantum_integer(n - 1) * qn.inverse()
    grown = tensor(prev, identity(field, 1))
    e_last = e_generator(field, n, n - 2)
    correction = compose(grown, compose(e_last, grown)).scaled(ratio)
    return TLObject(n, grown - correction)


def simple_object(label: int, field) -> TLObject:
    """The simple object with 1-based label n, modelled on n-1 strands."""
    return jones_wenzl(label - 1, field)


# -- braiding and twists ------------------------------------------------------


def _crossing_coefficients(field, over: bool):
    """(a, b) with the crossing equal to a id + b e."""
    i = field.imag_unit()
    if over:
        return i * field.q_half(1), -(i * field.q_half(-1))
    return -(i * field.q_half(-1)), i * field.q_half(1)


def braiding(field, over: bool = True) -> TLMorphism:
    """Kauffman-style crossing: i q^(1/2) id - i q^(-1/2) e (over), inverse for under.

    The sign of q^(1/2) is fixed once and for all (q^(1/2) = zeta).
    """
    a, b = _crossing_coefficients(field, over)
    return identity(field, 2).scaled(a) + e_generator(field, 2, 0).scaled(b)


@lru_cache(maxsize=None)
def braid_blocks(field, p: int, q: int, over: bool = True) -> TLMorphism:
    """Braid a block of p strands past a block of q strands (p+q -> q+p)."""
    return _apply_block_crossings(identity(field, p + q), 0, p, q, over)


def _cross(m: TLMorphism, t: int, a, b) -> TLMorphism:
    """The crossing a id + b e at top positions (t, t+1) on top of m.  On each
    term e joins the partners of t and t+1 and pairs t with t+1 (a loop if paired)."""
    field, nb, nt = m.field, m.n_bottom, m.n_top
    delta = _delta_power(field, 1)
    t += nb
    crossed: dict[PlanarDiagram, object] = {}
    for d, c in m.terms.items():
        _add_term(crossed, d, a * c)
        pairing = d.pairing
        u, v = pairing[t], pairing[t + 1]
        if u == t + 1:
            _add_term(crossed, d, b * c * delta)
            continue
        new = list(pairing)
        new[u], new[v], new[t], new[t + 1] = v, u, t + 1, t
        _add_term(crossed, _diagram(nb, nt, tuple(new)), b * c)
    return TLMorphism(field, nb, nt, crossed)  # drops zero terms


def _apply_block_crossings(
    m: TLMorphism, offset: int, p: int, q: int, over: bool
) -> TLMorphism:
    """Braid strands [offset, offset+p) past [offset+p, offset+p+q) on top of m.

    The p*q elementary crossings are applied one at a time by `_cross`, each
    directly to every term of m, the rightmost of the p strands moving first.
    Every intermediate morphism stays anchored to m's (typically projected,
    hence small) bottom; no pure-strand block braid or full-width gluing is
    built.
    """
    a, b = _crossing_coefficients(m.field, over)
    for moved in range(p):
        for j in range(q):
            m = _cross(m, offset + p - 1 - moved + j, a, b)
    return m


def _cap_off(m: TLMorphism, start: int, width: int) -> TLMorphism:
    """m followed by `width` nested caps on its top points start to
    start + 2 width - 1, the other strands passing straight through.  Each
    cap, innermost first, joins the partners of its two points (or closes a
    loop); the capped points are dropped at the end."""
    field = m.field
    nb, nt = m.n_bottom, m.n_top - 2 * width
    lo, hi = nb + start, nb + start + 2 * width
    terms: dict[PlanarDiagram, object] = {}
    for d, c in m.terms.items():
        pairing, loops = list(d.pairing), 0
        for j in range(width):
            t, s = lo + width - 1 - j, lo + width + j
            u, v = pairing[t], pairing[s]
            if u == s:
                loops += 1
            else:
                pairing[u], pairing[v] = v, u
        kept = tuple(x if x < lo else x - 2 * width for x in pairing[:lo] + pairing[hi:])
        coef = c * _delta_power(field, loops) if loops else c
        _add_term(terms, _diagram(nb, nt, kept), coef)
    return TLMorphism(field, nb, nt, terms)


@lru_cache(maxsize=None)
def _wrap_right(field, p: int, q: int, over: bool) -> TLMorphism:
    """id_p (x) cup_q with the p strands braided past the cup's left ends and
    capped against its right ends.  The strands move right one at a time,
    rightmost first; strand `moved` lands at top position p+q-1-moved, next
    to the innermost open cup end, and is capped there at once while moved < q.
    Its mirror image is the left wrap, cup_q (x) id_p wrapped the other way."""
    m = tensor(identity(field, p), cup(field, q))
    for moved in range(p):
        m = _apply_block_crossings(m, p - 1 - moved, 1, q, over)
        if moved < q:
            m = _cap_off(m, p + q - 1 - moved, 1)
    return m


def twist_morphism(x: TLObject, positive: bool = True, side: str = "right") -> TLMorphism:
    """The curl through the object: braid a strand group around itself and
    close, after x's projector (which the curl carries to its top).  The
    left curl is the mirror image of the right one."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    curl = _wrap_right(x.proj.field, x.strands, x.strands, positive)
    return compose(curl if side == "right" else curl.mirror(), x.proj)


def twist(x: TLObject):
    """Scalar by which the twist (the positive curl closed to the right) acts
    on the simple object x."""
    return extract_scalar(twist_morphism(x), x.proj)


def extract_scalar(mor: TLMorphism, base: TLMorphism):
    """Write mor = s * base for a scalar s (valid on simple objects)."""
    field = mor.field
    if base.is_zero():
        raise ValueError("cannot divide by the zero morphism")
    diag, coef = next(iter(base.terms.items()))
    s = mor.terms.get(diag, field.zero) * coef.inverse()
    if base.scaled(s) != mor:
        raise ValueError("morphism is not a scalar multiple of the base")
    return s


def pivotal_trace(f: TLMorphism, side: str = "left"):
    """Close an endomorphism to the chosen side; returns the exact scalar."""
    if f.n_bottom != f.n_top:
        raise ValueError("trace requires an endomorphism")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    field, n = f.field, f.n_bottom
    pair = (f, identity(field, n)) if side == "right" else (identity(field, n), f)
    closed = compose(cap(field, n), compose(tensor(*pair), cup(field, n)))
    return closed.terms.get(_diagram(0, 0, ()), field.zero)


# -- the traciator in the self-action instance --------------------------------


def traciator_self_action(x: TLObject, y: TLObject, sign: str = "+") -> TLMorphism:
    """The morphism x (x) y -> y (x) x wrapping one factor around the cylinder.

    With the category acting on itself the counit of the adjunction is the
    identity and the half-braiding is the braiding, so the wrapping strand
    is realised by a block braiding closed off with a cup/cap pair:
    the '+' version sends y around (over) to the right, the '-' version
    sends x around the other way (under), as the mirror image of a right
    wrap.  It is applied after the projector of x (x) y only: the wrap
    carries it to the projector of y (x) x on top.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    field, p, q = x.proj.field, x.strands, y.strands
    if sign == "+":
        middle = _wrap_right(field, p + q, q, True)
    else:
        middle = _wrap_right(field, p + q, p, False).mirror()
    return compose(middle, tensor(x.proj, y.proj))


# -- the identity suite --------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  ({c.detail})" if c.detail and not c.passed else ""
            out.append(f"{status}  {c.name}{suffix}")
        return out


def jw_by_annihilation(n: int, field) -> TLMorphism:
    """Independent construction of the Jones-Wenzl projector by linear algebra.

    Solves for the unique combination of planar diagrams on n strands that
    every cap kills, normalised to have identity coefficient 1.
    """
    diagrams = all_diagrams(n, n)
    ncols = len(diagrams)
    idx = {d: j for j, d in enumerate(diagrams)}
    rows: list[list] = []
    for i in range(n - 1):
        capped: dict[PlanarDiagram, dict[int, object]] = {}
        for j, d in enumerate(diagrams):
            # one term, or none where delta = 0 and the cap closes a loop
            for dd, c in _cap_off(TLMorphism(field, n, n, {d: field.one}), i, 1).terms.items():
                capped.setdefault(dd, {})[j] = c
        for dd, entries in capped.items():
            row = [field.zero] * (ncols + 1)
            for j, c in entries.items():
                row[j] = c
            rows.append(row)
    (ident,) = identity(field, n).terms
    row = [field.zero] * (ncols + 1)
    row[idx[ident]] = row[ncols] = field.one
    rows.append(row)
    basis: dict[int, list] = {}
    for row in rows:
        residue = reduce_row(basis, row, ncols, field.zero, field.one)
        if residue is not None and residue[ncols] != field.zero:
            raise ValueError("inconsistent linear system")
    if len(basis) != ncols:
        raise ValueError("solution is not unique")
    return TLMorphism(field, n, n, {d: basis[idx[d]][ncols] for d in diagrams})


DEFAULT_STRAND_CAPS = {2: 6, 4: 5, 10: 4, 16: 4}
# The largest cap the suite accepts: a cap of 7 takes 18 s at k = 4, 74 s at k = 16 (2 cores).
MAX_STRAND_CAP = max(DEFAULT_STRAND_CAPS.values())


def identity_suite(k: int, exact: bool = True, strand_cap: int | None = None) -> SuiteReport:
    """Run the full morphism-level identity suite at level k.

    The strand cap bounds the total strand count of the two- and
    three-object checks and keeps every intermediate diagram space below
    10^4 diagrams.  Raises ValueError for a level outside 0..fusion.MAX_LEVEL,
    a cap outside 1..MAX_STRAND_CAP, or `exact=False`: the suite is exact
    only, and `exact` stays for callers that pass True.
    """
    if not exact:
        raise ValueError("the identity suite is exact only")
    _check_level(k)
    if strand_cap is None:
        strand_cap = DEFAULT_STRAND_CAPS.get(k, 4)
    if strand_cap < 1:
        raise ValueError("strand cap must be at least 1")
    if strand_cap > MAX_STRAND_CAP:
        raise ValueError(f"strand cap {strand_cap} exceeds the maximum {MAX_STRAND_CAP}")
    field = scalar_field(k)

    checks: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            witness = fn()
        except Exception as exc:  # surface failures as check results
            checks.append(
                CheckResult(name, False, f"error: {type(exc).__name__}: {exc}")
            )
            return
        checks.append(
            CheckResult(name, witness is None, "" if witness is None else str(witness))
        )

    delta = field.loop_value()
    labels = list(range(1, k + 2))

    def tl_relations():
        for n in range(2, min(k + 1, 4) + 1):
            for i in range(n - 1):
                e = e_generator(field, n, i)
                if compose(e, e) != e.scaled(delta):
                    return f"e_{i}^2 != delta e_{i} on {n} strands"
                for j in range(n - 1):
                    ej = e_generator(field, n, j)
                    if abs(i - j) == 1 and compose(e, compose(ej, e)) != e:
                        return f"e_{i} e_{j} e_{i} != e_{i} on {n} strands"
                    if abs(i - j) >= 2 and compose(e, ej) != compose(ej, e):
                        return f"e_{i} e_{j} != e_{j} e_{i} on {n} strands"
        return None

    run("tl_relations", tl_relations)

    def braid_checks():
        b, binv = braiding(field, True), braiding(field, False)
        if compose(b, binv) != identity(field, 2) or compose(binv, b) != identity(
            field, 2
        ):
            return "braiding not invertible"
        b1, b2 = embed(b, 0, 1), embed(b, 1, 0)
        if compose(b1, compose(b2, b1)) != compose(b2, compose(b1, b2)):
            return "Reidemeister III fails"
        u1, u2 = embed(binv, 0, 1), embed(binv, 1, 0)
        if compose(u1, compose(u2, u1)) != compose(u2, compose(u1, u2)):
            return "Reidemeister III fails (inverse)"
        return None

    run("braid_inverse_reidemeister_2_3", braid_checks)

    def reidemeister_1():
        x = jones_wenzl(1, field)
        theta = twist(x)
        expected = field.imag_unit() * field.q_half(3)
        if theta != expected:
            return "curl scalar is not i q^(3/2)"
        if theta == field.one:
            return "curl is trivial; Reidemeister I would hold"
        return None

    run("reidemeister_1_fails_by_twist", reidemeister_1)

    def jw_checks():
        for n in range(min(k + 1, strand_cap) + 1):
            p = jones_wenzl(n, field).proj
            if compose(p, p) != p:
                return f"JW({n}) not idempotent"
            for i in range(n - 1):
                if not compose(embed(cap(field), i, n - 2 - i), p).is_zero():
                    return f"cap_{i} does not kill JW({n})"
                if not compose(p, embed(cup(field), i, n - 2 - i)).is_zero():
                    return f"JW({n}) does not kill cup_{i}"
            if pivotal_trace(p, "left") != field.quantum_integer(n + 1):
                return f"closed trace of JW({n}) is not [{n + 1}]"
        return None

    run("jw_idempotent_killed_trace", jw_checks)

    def jw_unique():
        for n in range(2, min(k + 1, 4) + 1):
            if jw_by_annihilation(n, field) != jones_wenzl(n, field).proj:
                return f"JW({n}) differs from annihilation solution"
        return None

    run("jw_unique_by_annihilation", jw_unique)

    def dims_nonzero():
        for n in labels:
            if field.quantum_integer(n).is_zero():
                return f"[{n}]_q = 0"
        return None

    run("quantum_dims_nonzero", dims_nonzero)

    objects: dict[tuple[int, ...], TLObject] = {}

    def obj(parts: tuple[int, ...]) -> TLObject:
        if parts not in objects:
            out = jones_wenzl(0, field)
            for lab in parts:
                out = out.tensor(simple_object(lab, field))
            objects[parts] = out
        return objects[parts]

    taus: dict = {}

    def tau(xparts: tuple[int, ...], yparts: tuple[int, ...], sign: str) -> TLMorphism:
        key = (xparts, yparts, sign)
        if key not in taus:
            taus[key] = traciator_self_action(obj(xparts), obj(yparts), sign)
        return taus[key]

    def strand_total(parts: tuple[int, ...]) -> int:
        return sum(l - 1 for l in parts)

    pair_labels = [
        (a, b)
        for a in labels
        for b in labels
        if 0 < strand_total((a, b)) <= strand_cap
    ]
    triple_labels = [
        (a, b, c)
        for a in labels
        for b in labels
        for c in labels
        if 0 < strand_total((a, b, c)) <= strand_cap
    ]
    single_labels = [a for a in labels if a - 1 <= max(strand_cap - 1, 2)]

    def traciator_units():
        for a in single_labels:
            x = obj((a,))
            if tau((a,), (1,), "+") != x.proj:
                return f"tau(x,1) != id for label {a}"
            theta = twist_morphism(x, True, "right")
            if tau((1,), (a,), "+") != theta:
                return f"tau(1,x) != twist for label {a}"
            if tau((1,), (a,), "-") != x.proj:
                return f"tau-(1,x) != id for label {a}"
            theta_inv = twist_morphism(x, False, "right")
            if tau((a,), (1,), "-") != theta_inv:
                return f"tau-(x,1) != inverse twist for label {a}"
        return None

    run("traciator_unit_laws", traciator_units)

    def traciator_inverse():
        for a, b in pair_labels:
            plus = tau((b,), (a,), "+")
            minus = tau((a,), (b,), "-")
            if compose(minus, plus) != obj((b, a)).proj:
                return f"tau- tau+ != id at {(a, b)}"
            if compose(plus, minus) != obj((a, b)).proj:
                return f"tau+ tau- != id at {(a, b)}"
        return None

    run("traciator_inverse", traciator_inverse)

    def traciator_composition():
        for a, b, c in triple_labels:
            lhs = tau((a,), (b, c), "+")
            rhs = compose(tau((c, a), (b,), "+"), tau((a, b), (c,), "+"))
            if lhs != rhs:
                return f"composition law fails at {(a, b, c)}"
        return None

    run("traciator_composition", traciator_composition)

    def traciator_zigzag():
        # the auxiliary object x (x) y (x) x makes this check the widest one,
        # so it gets its own cap on 4p + q
        for a, b in pair_labels:
            if 4 * (a - 1) + (b - 1) > 9:
                continue
            x, y = obj((a,)), obj((b,))
            p = x.strands
            lhs = tau((b,), (a,), "+")
            tm = traciator_self_action(x, obj((a, b, a)), "-")
            pre = tensor(cup(field, p), tensor(y.proj, x.proj))
            post = tensor(tensor(x.proj, y.proj), cap(field, p))
            if lhs != compose(post, compose(tm, pre)):
                return f"zig-zag fails at {(a, b)}"
        return None

    run("traciator_zigzag", traciator_zigzag)

    def double_traciator():
        for a, b in pair_labels:
            lhs = compose(tau((b,), (a,), "+"), tau((a,), (b,), "+"))
            if lhs != twist_morphism(obj((a, b)), True, "right"):
                return f"double traciator != twist at {(a, b)}"
        return None

    run("double_traciator_is_twist", double_traciator)

    def traciator_braiding_twist():
        for a, b in pair_labels:
            x, y = obj((a,)), obj((b,))
            xy = tensor(x.proj, y.proj)
            beta = compose(braid_blocks(field, x.strands, y.strands, True), xy)
            rhs = compose(beta, tensor(x.proj, twist_morphism(y, True, "right")))
            if tau((a,), (b,), "+") != rhs:
                return f"tau != braiding o (id x twist) at {(a, b)}"
            beta_inv = compose(braid_blocks(field, x.strands, y.strands, False), xy)
            rhs_inv = compose(
                beta_inv, tensor(twist_morphism(x, False, "right"), y.proj)
            )
            if tau((a,), (b,), "-") != rhs_inv:
                return f"tau- != inverse braiding o (inverse twist x id) at {(a, b)}"
        return None

    run("traciator_braiding_twist", traciator_braiding_twist)

    def two_twists():
        for a in single_labels:
            x = obj((a,))
            t1 = twist_morphism(x, True, "right")
            t2 = twist_morphism(x, True, "left")
            agree = t1 == t2
            ribbon = t1.rotate180() == t1
            phi1 = compose(twist_morphism(x, False, "left"), t1)
            phi2 = compose(
                twist_morphism(x, True, "left"), twist_morphism(x, False, "right")
            )
            phis_agree = phi1 == phi2
            if not (agree == ribbon == phis_agree):
                return f"twist/ribbon/pivotal equivalence broken at label {a}"
            if not agree:
                return f"category unexpectedly non-ribbon at label {a}"
            if phi1 != x.proj:
                return f"pivotal morphism is not the identity at label {a}"
            if t2.rotate180() != t1:
                return f"twist duality relation fails at label {a}"
        return None

    run("two_twists_ribbon_pivotal", two_twists)

    def spherical():
        for a in single_labels:
            p = jones_wenzl(a - 1, field).proj
            if pivotal_trace(p, "left") != pivotal_trace(p, "right"):
                return f"tr_L != tr_R on JW({a - 1})"
        n = min(k + 1, 3)
        f = braid_blocks(field, 1, n - 1, True)
        g = compose(f, braid_blocks(field, n - 1, 1, True))
        for mor in (g, g + identity(field, n).scaled(delta)):
            if pivotal_trace(mor, "left") != pivotal_trace(mor, "right"):
                return "tr_L != tr_R on a braided endomorphism"
        return None

    run("spherical_trace", spherical)

    return SuiteReport(checks)
