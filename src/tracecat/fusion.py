"""Fusion rings: unital based rings with duality, and the SU(2) level-k family.

A FusionRing stores the structure tensor N[i][j][k] = multiplicity of the
simple k inside i (x) j, together with the unit index and the duality
involution.  Structure constants are stored as numpy int64.  The exact
checks multiply them as float64 matrices only where every partial sum of
the contraction is an integer below 2**53 in magnitude, so each is exact,
and as Python ints (dtype=object) past that bound.  Only `su2_dimensions`
and `perron_vector` work in floating point proper, and their output is
printed, never used for exact decisions.

Simple labels are 1-based strings ("1".."17", "9'") so tables read off
against the standard ADE conventions; indices are 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Highest SU(2) level built: the dense checks hold O(r**3) entries and do
# O(r**5) work, r = k + 1.
MAX_LEVEL = 100


class FusionError(ValueError):
    """Raised for structurally invalid fusion data."""


def _exact_dtype(*sums: tuple) -> type:
    """A dtype in which integer contractions are computed exactly.

    Each sum is (length, factor, factor, ...): sums of `length` products of
    one entry of each factor array.  Every partial sum of such a sum is at
    most length * prod(max|factor|) in magnitude (taken in Python ints), so
    float64 holds each one exactly while that bound is below 2**53; past
    it, Python ints (dtype=object) do, as they do for any factor that is
    already held in Python ints.
    """
    for length, *factors in sums:
        if any(f.dtype == object for f in factors):
            return object
        bound = length
        for f in factors:
            bound *= max(int(f.max()), -int(f.min())) if f.size else 0
        if bound >= 2**53:
            return object
    return np.float64


@dataclass(frozen=True)
class ObjectVec:
    """An isomorphism class of an object: multiplicities over simple labels."""

    space: str
    mult: tuple[int, ...]

    def __post_init__(self):
        if any(m < 0 for m in self.mult):
            raise FusionError("object multiplicities must be nonnegative")

    def __add__(self, other: "ObjectVec") -> "ObjectVec":
        self._check(other)
        return ObjectVec(self.space, tuple(a + b for a, b in zip(self.mult, other.mult)))

    def _check(self, other: "ObjectVec") -> None:
        if self.space != other.space or len(self.mult) != len(other.mult):
            raise FusionError(
                f"label-set mismatch: {self.space}[{len(self.mult)}] vs "
                f"{other.space}[{len(other.mult)}]"
            )

    def is_zero(self) -> bool:
        return not any(self.mult)

    def as_array(self) -> np.ndarray:
        """The multiplicities as int64, or as Python ints past 2**63 - 1."""
        big = max(self.mult, default=0) >= 2**63
        return np.array(self.mult, dtype=object if big else np.int64)


@dataclass(frozen=True)
class FusionRing:
    """A unital based ring with duality."""

    name: str
    labels: tuple[str, ...]
    unit: int
    dual: tuple[int, ...]
    N: np.ndarray = field(compare=False, repr=False)  # shape (r, r, r), int64

    def __post_init__(self):
        n = np.asarray(self.N, dtype=np.int64)
        n.setflags(write=False)
        object.__setattr__(self, "N", n)
        r = len(self.labels)
        if n.shape != (r, r, r):
            raise FusionError("structure tensor shape mismatch")
        if sorted(self.dual) != list(range(r)):
            raise FusionError("dual is not a permutation")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.unit == other.unit
            and self.dual == other.dual
            and np.array_equal(self.N, other.N)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.unit, self.dual, self.N.tobytes()))

    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise FusionError(f"unknown label {label!r} in ring {self.name}") from None

    def basis(self, i: int | str) -> ObjectVec:
        if isinstance(i, str):
            i = self.index(i)
        mult = [0] * self.rank
        mult[i] = 1
        return ObjectVec(self.name, tuple(mult))

    def action_matrix(self, i: int) -> np.ndarray:
        """Matrix of left multiplication by simple i: rows = output simples."""
        return self.N[i].T.copy()


def _check_level(k: int) -> None:
    if k < 0:
        raise FusionError("level must be nonnegative")
    if k > MAX_LEVEL:
        raise FusionError(f"level {k} exceeds the maximum level {MAX_LEVEL}")


def su2_dimensions(k: int) -> np.ndarray:
    """Dimensions [a]_q = sin(a pi/(k+2)) / sin(pi/(k+2)) of the SU(2) level-k
    simples a = 1..k+1, at the levels `verlinde_su2` builds."""
    _check_level(k)
    a = np.arange(1, k + 2)
    return np.sin(a * np.pi / (k + 2)) / np.sin(np.pi / (k + 2))


def verlinde_su2(k: int) -> FusionRing:
    """The SU(2) level-k fusion ring on labels "1".."k+1".

    Structure constants follow the truncated angular-momentum rule: with
    1-based labels a, b, the product contains c for c = |a-b|+1, |a-b|+3,
    ..., min(a+b-1, 2k+3-a-b).
    """
    _check_level(k)
    r = k + 1
    a, b, c = np.ogrid[1 : r + 1, 1 : r + 1, 1 : r + 1]
    N = (
        (abs(a - b) + 1 <= c)
        & (c <= np.minimum(a + b - 1, 2 * k + 3 - a - b))
        & ((a + b + c) % 2 == 1)
    ).astype(np.int64)
    return FusionRing(
        name=f"su2_{k}",
        labels=tuple(str(n) for n in range(1, r + 1)),
        unit=0,
        dual=tuple(range(r)),
        N=N,
    )


@dataclass
class ValidationReport:
    name: str
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        if self.ok:
            return [f"PASS  {self.name}"]
        return [f"FAIL  {self.name}: {msg}" for msg in self.failures]


def validate_ring(ring: FusionRing) -> ValidationReport:
    """Check unitality, associativity, and the based-ring duality axioms.

    Associativity is compared one left factor i at a time, as two matrix
    products in the dtype `_exact_dtype` picks (float64 while every partial
    sum stays below 2**53, Python ints past it), so no r**4 array is built.
    The first failure reported is the first (i, l, j, k) in index order.
    """
    N = ring.N
    r = ring.rank
    failures: list[str] = []
    eye = np.eye(r, dtype=np.int64)

    if not np.array_equal(N[ring.unit], eye):
        j, k = np.argwhere(N[ring.unit] != eye)[0]
        failures.append(f"unitality fails at N[1][{ring.labels[j]}][{ring.labels[k]}]")
    if not np.array_equal(N[:, ring.unit, :], eye):
        i, k = np.argwhere(N[:, ring.unit, :] != eye)[0]
        failures.append(f"unitality fails at N[{ring.labels[i]}][1][{ring.labels[k]}]")

    exact = N.astype(_exact_dtype((r, N, N)))
    for i in range(r):
        # [l, j, k] entries of (i.j).l and i.(j.l)
        lhs = (exact[i] @ exact.reshape(r, r * r)).reshape(r, r, r).transpose(1, 0, 2)
        rhs = (exact.reshape(r * r, r) @ exact[i]).reshape(r, r, r).transpose(1, 0, 2)
        if not np.array_equal(lhs, rhs):
            l, j, k = np.argwhere(lhs != rhs)[0]
            failures.append(
                "associativity fails at "
                f"({ring.labels[i]},{ring.labels[j]},{ring.labels[l]}) -> {ring.labels[k]}"
            )
            break

    dual_delta = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        dual_delta[i, ring.dual[i]] = 1
    if not np.array_equal(N[:, :, ring.unit], dual_delta):
        i, j = np.argwhere(N[:, :, ring.unit] != dual_delta)[0]
        failures.append(
            f"duality normalization fails at N[{ring.labels[i]}][{ring.labels[j]}][1]"
        )

    d = list(ring.dual)
    twisted = N[np.ix_(d, d, d)].transpose(1, 0, 2)
    if not np.array_equal(N, twisted):
        i, j, k = np.argwhere(N != twisted)[0]
        failures.append(
            "duality compatibility fails at "
            f"N[{ring.labels[i]}][{ring.labels[j]}][{ring.labels[k]}]"
        )

    return ValidationReport(f"ring {ring.name}", failures)


def fuse(ring: FusionRing, x: ObjectVec, y: ObjectVec) -> ObjectVec:
    """Bilinear extension of the structure tensor: (x (x) y)."""
    for v in (x, y):
        if v.space != ring.name or len(v.mult) != ring.rank:
            raise FusionError(f"object over {v.space} does not match ring {ring.name}")
    return ObjectVec(ring.name, _exact_product(x, y, ring.N))


def _exact_product(x: ObjectVec, y: ObjectVec, N: np.ndarray) -> tuple[int, ...]:
    """sum_ij x_i y_j N[i, j, :] as two matrix products, in the dtype
    `_exact_dtype` picks."""
    a, b = x.as_array(), y.as_array()
    r = len(a)
    dtype = _exact_dtype((r * r, a, b, N))
    left = (a.astype(dtype) @ N.astype(dtype).reshape(r, r * r)).reshape(r, r)
    return tuple(int(v) for v in b.astype(dtype) @ left)


def is_transitive(mats: np.ndarray) -> bool:
    """Connectivity of the union of the action graphs."""
    adj = (np.sum(mats, axis=0) > 0).astype(np.int64)
    n = adj.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in np.nonzero(adj[v] + adj[:, v])[0]:
            if int(w) not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    return len(seen) == n


def perron_vector(mats: np.ndarray, normalize_at: int) -> np.ndarray:
    """The common Perron-Frobenius eigenvector, from one eigendecomposition.

    `mats` is a stack of commuting nonnegative matrices whose sum is
    irreducible and contains the identity, so the sum is primitive and its
    Perron root is simple: the eigenvalue of largest real part.  The result
    is normalised to value 1 at `normalize_at`.
    """
    values, vectors = np.linalg.eig(np.sum(mats, axis=0).astype(float))
    v = vectors[:, np.argmax(values.real)].real
    return v / v[normalize_at]
