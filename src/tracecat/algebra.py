"""Algebra objects at the object level: internal Ends and identification.

Every simple algebra object of the base category arises as the internal
End of some object in one of its module categories.  This module compiles
catalogs of internal Ends and matches trace values against them, refusing
any catalog over another base ring than the candidate.  A catalog match is
the semisimplicity witness for a candidate: it exhibits a module object
whose endomorphism algebra realises it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fusion import FusionRing, ObjectVec
from .modules import (
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    action_automorphisms,
)
from .trace import _end_rows, decomposition, internal_end, trace_object, trace_of_word

# The most objects one catalog may enumerate: bound b over m simples gives
# C(m + b, m) - 1 multisets of total multiplicity 1..b.
MAX_CATALOG = 100_000


@dataclass(frozen=True)
class AlgebraCandidate:
    """An object along with the computation it came from."""

    object: ObjectVec
    provenance: str
    base: FusionRing

    def __post_init__(self):
        if self.object.space != self.base.name or len(self.object.mult) != self.base.rank:
            raise ModuleError(
                f"algebra candidate is not an object of {self.base.name}: " + self.provenance
            )
        if self.object.mult[self.base.unit] < 1:
            raise ModuleError(
                "algebra candidate does not contain the unit: " + self.provenance
            )

    @property
    def connected(self) -> bool:
        return self.object.mult[self.base.unit] == 1


def candidate_from_trace_unit(data: ModuleTensorData) -> AlgebraCandidate:
    obj = trace_object(data, data.basis(data.unit_module))
    return AlgebraCandidate(obj, f"trace_of_unit({data.name})", data.base)


def candidate_from_word(data: ModuleTensorData, word, label: str) -> AlgebraCandidate:
    obj = trace_of_word(data, word)
    return AlgebraCandidate(obj, f"trace_of_word({data.name}, {label})", data.base)


def candidate_from_end(action: ModuleAction, x: ObjectVec, label: str) -> AlgebraCandidate:
    return AlgebraCandidate(
        internal_end(action, x), f"internal_end({action.name}, {label})", action.base
    )


@dataclass(frozen=True, eq=False)
class Catalog:
    """Module objects, one per symmetry orbit, and their internal Ends:
    row e of `xs` holds the multiplicities of entry e over the module
    simples, row e of `ends` those of its internal End over the base
    simples.  Rows are in (total, multiplicities) order."""

    action: ModuleAction
    xs: np.ndarray
    ends: np.ndarray

    @property
    def package(self) -> str:
        return self.action.name

    @property
    def morita_label(self) -> str:
        return self.package.split("_")[0].upper()


def _multisets(m: int, bound: int, dtype) -> np.ndarray:
    """[multiset, j]: every multiset of 1..bound simples out of m, as counts.

    A multiset of total t is one of total t - 1 plus a simple no lower than
    its highest, so each is built once, in O(m) array steps per total."""
    level, top = np.zeros((1, m), dtype), np.zeros(1, np.intp)
    levels = []
    for _ in range(bound):
        grown = [level[top <= j] for j in range(m)]  # copies
        for j, rows in enumerate(grown):
            rows[:, j] += 1
        level = np.concatenate(grown)
        top = np.repeat(np.arange(m), [len(rows) for rows in grown])
        levels.append(level)
    return np.concatenate(levels)


def enumerate_internal_ends(action: ModuleAction, max_total_mult: int) -> Catalog:
    """All module objects of total multiplicity <= bound, one per symmetry
    orbit.  Raises ModuleError past MAX_CATALOG multisets to enumerate."""
    if max_total_mult < 1:
        raise ModuleError("the multiplicity bound must be at least 1")
    m = action.rank
    count = math.comb(m + max_total_mult, m) - 1
    if count > MAX_CATALOG:
        raise ModuleError(
            f"bound {max_total_mult} would enumerate {count} objects of {action.name}, "
            f"more than the {MAX_CATALOG} a catalog may hold"
        )
    X = _multisets(m, max_total_mult, np.min_scalar_type(max_total_mult))
    # orbit representative: lexicographically greatest image, so path
    # vertices are preferred over primed fork labels; the image of a row
    # under p reads it through the inverse permutation argsort(p)
    rep = X.copy()
    rows = np.arange(len(X))
    for p in action_automorphisms(action):
        if p == tuple(range(m)):
            continue
        image = X[:, np.argsort(p)]
        first = (image != rep).argmax(axis=1)  # 0 where they agree, and then not greater
        greater = image[rows, first] > rep[rows, first]
        rep[greater] = image[greater]
    xs = np.unique(rep, axis=0)  # rows in lexicographic order
    xs = xs[np.argsort(xs.sum(axis=1, dtype=np.int64), kind="stable")]
    return Catalog(action, xs, _end_rows(action, xs))


@dataclass(frozen=True)
class Match:
    package: str
    morita_label: str
    x: ObjectVec
    x_display: str


def _check_base(candidate: AlgebraCandidate, action: ModuleAction) -> None:
    # an internal End over another ring is not an object of the candidate's
    # ring, whatever its multiplicities
    if action.base != candidate.base:
        raise ModuleError(f"{action.name} is over {action.base.name}, not {candidate.base.name}")


def identify_algebra(
    candidate: AlgebraCandidate, catalogs: list[Catalog]
) -> list[Match]:
    """All catalog objects whose internal End equals the candidate exactly.

    Catalog entries are already one-per-symmetry-orbit, so a single match
    means the identification is unique up to graph symmetry.  Raises
    ModuleError, before matching any entry, if a catalog is over another
    base ring than the candidate.
    """
    for catalog in catalogs:
        _check_base(candidate, catalog.action)
    target = np.asarray(candidate.object.mult)
    matches = []
    for catalog in catalogs:
        for e in np.flatnonzero((catalog.ends == target).all(axis=1)):
            x = catalog.action.object_vec(catalog.xs[e])
            display = decomposition(x, catalog.action.msimples, "machine")
            matches.append(Match(catalog.package, catalog.morita_label, x, display))
    return matches


@dataclass
class WitnessReport:
    candidate: AlgebraCandidate
    matches: list[Match]

    @property
    def passed(self) -> bool:
        return bool(self.matches)

    @property
    def unique(self) -> bool:
        return len(self.matches) == 1

    def line(self) -> str:
        obj = decomposition(self.candidate.object, self.candidate.base.labels, "machine")
        if not self.matches:
            return f"object = {obj}  witness = none"
        witness = self.matches[0]
        return (
            f"object = {obj}  "
            f"witness = {witness.package}:{witness.x_display}  "
            f"unique = {'yes' if self.unique else 'no'}"
        )


def semisimplicity_witness(
    candidate: AlgebraCandidate, actions: list[ModuleAction], bound: int
) -> WitnessReport:
    """PASS iff some object of total multiplicity <= bound in one of the
    actions realises the candidate as an internal End.  Every action is
    checked to be over the candidate's base ring before any catalog is
    enumerated."""
    for action in actions:
        _check_base(candidate, action)
    catalogs = [enumerate_internal_ends(action, bound) for action in actions]
    return WitnessReport(candidate, identify_algebra(candidate, catalogs))
