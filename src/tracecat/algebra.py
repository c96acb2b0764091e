"""Algebra objects at the object level: internal Ends and identification.

Every simple algebra object of the base category arises as the internal
End of some object in one of its module categories.  This module compiles
catalogs of internal Ends, matches trace values against them, and checks
the object-level algebra identities of the trace functor: the opposite
symmetry Tr(B (x) A) = Tr(A (x) B) and its conjugation-protected variant.
A catalog match is the semisimplicity witness for a candidate: it
exhibits a module object whose endomorphism algebra realises it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .fusion import ObjectVec, ValidationReport
from .modules import (
    ModuleAction,
    ModuleError,
    ModuleTensorData,
    action_automorphisms,
)
from .trace import internal_end, internal_ends, trace_object, trace_of_word

# The most objects one catalog may enumerate: bound b over m simples gives
# C(m + b, m) - 1 multisets of total multiplicity 1..b.
MAX_CATALOG = 100_000


@dataclass(frozen=True)
class AlgebraCandidate:
    """An object along with the computation it came from."""

    object: ObjectVec
    provenance: str
    unit_index: int = 0

    def __post_init__(self):
        if self.object.mult[self.unit_index] < 1:
            raise ModuleError(
                "algebra candidate does not contain the unit: " + self.provenance
            )

    @property
    def connected(self) -> bool:
        return self.object.mult[self.unit_index] == 1


def candidate_from_trace_unit(data: ModuleTensorData) -> AlgebraCandidate:
    obj = trace_object(data, data.basis(data.unit_module))
    return AlgebraCandidate(obj, f"trace_of_unit({data.name})", data.base.unit)


def candidate_from_word(data: ModuleTensorData, word, label: str) -> AlgebraCandidate:
    obj = trace_of_word(data, word)
    return AlgebraCandidate(obj, f"trace_of_word({data.name}, {label})", data.base.unit)


def candidate_from_end(action: ModuleAction, x: ObjectVec, label: str) -> AlgebraCandidate:
    return AlgebraCandidate(
        internal_end(action, x), f"internal_end({action.name}, {label})", action.base.unit
    )


@dataclass(frozen=True)
class CatalogEntry:
    x: ObjectVec
    end: ObjectVec


@dataclass(frozen=True)
class Catalog:
    package: str
    action: ModuleAction
    entries: tuple[CatalogEntry, ...]

    @property
    def morita_label(self) -> str:
        return self.package.split("_")[0].upper()


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
    # inverse[i] = p.index(i): the image of mult under p is mult read through it
    inverses = [sorted(range(m), key=p.__getitem__) for p in action_automorphisms(action)]
    seen: set[tuple[int, ...]] = set()
    xs: list[ObjectVec] = []
    for total in range(1, max_total_mult + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            mult = [0] * m
            for j in combo:
                mult[j] += 1
            # orbit representative: lexicographically greatest image, so path
            # vertices are preferred over primed fork labels
            orbit = max(tuple(mult[j] for j in inverse) for inverse in inverses)
            if orbit in seen:
                continue
            seen.add(orbit)
            xs.append(action.object_vec(orbit))
    entries = [CatalogEntry(x, end) for x, end in zip(xs, internal_ends(action, xs))]
    entries.sort(key=lambda e: (e.x.total, e.x.mult))
    return Catalog(action.name, action, tuple(entries))


@dataclass(frozen=True)
class Match:
    package: str
    morita_label: str
    x: ObjectVec
    x_display: str


def identify_algebra(
    candidate: AlgebraCandidate, catalogs: list[Catalog]
) -> list[Match]:
    """All catalog objects whose internal End equals the candidate exactly.

    Catalog entries are already one-per-symmetry-orbit, so a single match
    means the identification is unique up to graph symmetry.
    """
    from .trace import decomposition

    matches = []
    for catalog in catalogs:
        for entry in catalog.entries:
            if entry.end.mult == candidate.object.mult:
                display = decomposition(entry.x, catalog.action.msimples, "machine")
                matches.append(
                    Match(catalog.package, catalog.morita_label, entry.x, display)
                )
    return matches


def check_trace_unit_algebra(
    data: ModuleTensorData, expected: ObjectVec | None = None
) -> ValidationReport:
    """Tr(1_M) is a connected algebra object (and matches `expected` if given)."""
    failures = []
    candidate = candidate_from_trace_unit(data)
    if not candidate.connected:
        failures.append(f"Tr(1) of {data.name} is not connected")
    if expected is not None and candidate.object.mult != expected.mult:
        failures.append(
            f"Tr(1) of {data.name} is {candidate.object.mult}, "
            f"expected {expected.mult}"
        )
    return ValidationReport(f"unit algebra {data.name}", failures)


def check_opposite_iso(
    data: ModuleTensorData, a: ObjectVec, b: ObjectVec
) -> ValidationReport:
    """Object-level shadow of the opposite-algebra isomorphism."""
    failures = []
    lhs = trace_of_word(data, [b, a])
    rhs = trace_of_word(data, [a, b])
    if lhs != rhs:
        failures.append(f"Tr(B A) != Tr(A B) in {data.name}")
    return ValidationReport(f"opposite algebras {data.name}", failures)


def module_dual(data: ModuleTensorData, z: ObjectVec) -> ObjectVec:
    mult = [0] * data.rank
    for j, v in enumerate(z.mult):
        mult[data.mdual[j]] += v
    return data.object_vec(mult)


def check_protected_iso(
    data: ModuleTensorData, a: ObjectVec, b: ObjectVec, z: ObjectVec | None = None
) -> ValidationReport:
    """Conjugating one factor by z and its dual does not change the trace.

    With z omitted the check runs over every simple module object.
    """
    failures = []
    zs = [z] if z is not None else [data.basis(j) for j in range(data.rank)]
    for zv in zs:
        zstar = module_dual(data, zv)
        lhs = trace_of_word(data, [zv, a, zstar, b])
        rhs = trace_of_word(data, [a, zstar, b, zv])
        if lhs != rhs:
            failures.append(
                f"protected trace differs for z with multiplicities {zv.mult}"
            )
    return ValidationReport(f"protected algebras {data.name}", failures)


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

    def line(self, base_labels: tuple[str, ...] | None = None) -> str:
        from .trace import decomposition

        if base_labels is not None:
            obj = decomposition(self.candidate.object, base_labels, "machine")
        else:
            obj = self.candidate.provenance
        if not self.matches:
            return f"object = {obj}  witness = none"
        witness = self.matches[0]
        return (
            f"object = {obj}  "
            f"witness = {witness.package}:{witness.x_display}  "
            f"unique = {'yes' if self.unique else 'no'}"
        )


def semisimplicity_witness(
    candidate: AlgebraCandidate, catalogs: list[Catalog]
) -> WitnessReport:
    """PASS iff some module object realises the candidate as an internal End."""
    return WitnessReport(candidate, identify_algebra(candidate, catalogs))
