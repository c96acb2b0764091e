import math

import numpy as np
import pytest

from tracecat.algebra import (
    MAX_CATALOG,
    AlgebraCandidate,
    candidate_from_end,
    candidate_from_trace_unit,
    candidate_from_word,
    check_opposite_iso,
    check_protected_iso,
    check_trace_unit_algebra,
    enumerate_internal_ends,
    identify_algebra,
    module_dual,
    semisimplicity_witness,
)
from tracecat.fusion import ObjectVec
from tracecat.modules import ModuleError
from tracecat.packages import load_builtin
from tracecat.trace import internal_end, trace_of_word


@pytest.fixture(scope="module")
def su2_16_catalogs():
    packages = [load_builtin(n) for n in ("a17_su2_16", "d10_su2_16", "e7_su2_16")]
    return [enumerate_internal_ends(p, 3) for p in packages]


def test_enumerate_bound_one_lists_vertices():
    e7 = load_builtin("e7_su2_16")
    catalog = enumerate_internal_ends(e7, 1)
    assert len(catalog.entries) == 7
    assert all(entry.x.total == 1 for entry in catalog.entries)


def test_enumerate_quotients_by_symmetry():
    d10 = load_builtin("d10_su2_16")
    catalog = enumerate_internal_ends(d10, 1)
    # the fork legs 9 and 9' are identified, leaving nine orbits
    assert len(catalog.entries) == 9


def test_enumerate_regular_identity():
    a17 = load_builtin("a17_su2_16")
    catalog = enumerate_internal_ends(a17, 1)
    ring = a17.base
    for entry in catalog.entries:
        j = next(i for i, v in enumerate(entry.x.mult) if v)
        from tracecat.fusion import fuse

        assert entry.end == fuse(ring, ring.basis(j), ring.basis(ring.dual[j]))


def test_enumerate_requires_positive_bound():
    with pytest.raises(ModuleError):
        enumerate_internal_ends(load_builtin("e7_su2_16"), 0)


@pytest.mark.parametrize(
    "name, bound, count",
    # C(m + b, m) - 1 multisets: a61 at bound 4 peaked past 2.5 GB, d4 at
    # bound 1000 never finished
    [("a61_su2_60", 4, math.comb(65, 4) - 1), ("d4_su2_4", 1000, math.comb(1004, 4) - 1)],
)
def test_enumerate_refuses_catalogs_past_the_cap(name, bound, count):
    assert count > MAX_CATALOG
    message = f"bound {bound} would enumerate {count} objects of {name}, more than the {MAX_CATALOG}"
    with pytest.raises(ModuleError, match=message):
        enumerate_internal_ends(load_builtin(name), bound)


def test_the_three_identifications(su2_16_catalogs):
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    cases = [
        (candidate_from_word(d10, [A], "A"), "e7_su2_16", (1, 0, 0, 0, 0, 0, 0), "E7"),
        (
            candidate_from_word(d10, [A, A], "A*A"),
            "d10_su2_16",
            (1, 0, 0, 0, 0, 0, 0, 0, 1, 0),
            "D10",
        ),
        (
            candidate_from_word(d10, [A, B], "A*B"),
            "e7_su2_16",
            (0, 1, 0, 0, 0, 0, 0),
            "E7",
        ),
    ]
    for candidate, package, xmult, morita in cases:
        matches = identify_algebra(candidate, su2_16_catalogs)
        assert len(matches) == 1
        assert matches[0].package == package
        assert matches[0].x.mult == xmult
        assert matches[0].morita_label == morita
        witness = semisimplicity_witness(candidate, su2_16_catalogs)
        assert witness.passed and witness.unique
        line = witness.line(d10.base.labels)
        assert "unique = yes" in line and package in line


def test_trace_square_matches_internal_end(su2_16_catalogs):
    # Tr(A (x) A) literally equals End(1 + 9): both reduce to x^T M(c) x
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    via_trace = trace_of_word(d10, [A, A])
    via_end = internal_end(d10, A)
    assert via_trace == via_end


def test_every_simple_end_has_its_own_witness():
    # End(x) for a simple module object is found in the package's own catalog
    for name in ("e7_su2_16", "d10_su2_16", "a17_su2_16"):
        action = load_builtin(name)
        catalog = enumerate_internal_ends(action, 2)
        for j in range(min(3, action.rank)):
            cand = candidate_from_end(action, action.basis(j), action.msimples[j])
            assert semisimplicity_witness(cand, [catalog]).passed


def test_no_witness_for_non_algebra(su2_16_catalogs):
    fake = AlgebraCandidate(
        ObjectVec("su2_16", (1, 1) + (0,) * 15), "synthetic 1+2", 0
    )
    report = semisimplicity_witness(fake, su2_16_catalogs)
    assert not report.passed
    assert "witness = none" in report.line()


def test_candidate_must_contain_unit():
    with pytest.raises(ModuleError):
        AlgebraCandidate(ObjectVec("su2_16", (0, 1) + (0,) * 15), "no unit", 0)


def test_connectedness_of_unit_traces():
    for name in ("d4_su2_4", "e6_su2_10", "e8_su2_28", "d10_su2_16", "a5_su2_4"):
        data = load_builtin(name)
        candidate = candidate_from_trace_unit(data)
        assert candidate.connected
        assert check_trace_unit_algebra(data).ok


def test_trace_unit_against_expected_value():
    d4 = load_builtin("d4_su2_4")
    good = ObjectVec("su2_4", (1, 0, 0, 0, 1))
    bad = ObjectVec("su2_4", (1, 0, 1, 0, 0))
    assert check_trace_unit_algebra(d4, good).ok
    assert not check_trace_unit_algebra(d4, bad).ok


def test_opposite_iso_exhaustive_on_d4():
    d4 = load_builtin("d4_su2_4")
    for j in range(4):
        for l in range(4):
            a, b = d4.basis(j), d4.basis(l)
            assert check_opposite_iso(d4, a, b).ok


def test_opposite_and_protected_on_random_objects():
    rng = np.random.default_rng(7)
    for name in ("e6_su2_10", "d10_su2_16"):
        data = load_builtin(name)
        m = data.rank
        for _ in range(4):
            a = data.object_vec(rng.integers(0, 3, size=m))
            b = data.object_vec(rng.integers(0, 3, size=m))
            assert check_opposite_iso(data, a, b).ok
            assert check_protected_iso(data, a, b).ok


def test_protected_iso_unit_case_reduces():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    unit = d10.basis(d10.unit_module)
    lhs = trace_of_word(d10, [unit, A, module_dual(d10, unit), B])
    assert lhs == trace_of_word(d10, [A, B])
    assert check_protected_iso(d10, A, B, unit).ok


def test_protected_iso_with_specific_z():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    z = d10.basis("2")
    assert check_protected_iso(d10, A, B, z).ok


def test_bound_two_catalog_contains_the_d10_witness():
    d10 = load_builtin("d10_su2_16")
    catalog = enumerate_internal_ends(d10, 2)
    A = d10.basis("1") + d10.basis("9")
    target = trace_of_word(d10, [A, A])
    hits = [e for e in catalog.entries if e.end == target]
    assert len(hits) == 1
    assert hits[0].x.mult == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0)


def test_opposite_iso_trivial_square():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    assert check_opposite_iso(d10, A, A).ok


def test_trace_of_simple_times_dual_is_internal_end():
    # Tr(x (x) x*) = End(x) for every simple module object: both sides
    # reduce to the same quadratic form in the action matrices
    for name in ("d4_su2_4", "e6_su2_10", "d10_su2_16", "a5_su2_4"):
        data = load_builtin(name)
        for j in range(data.rank):
            x = data.basis(j)
            xstar = data.basis(data.mdual[j])
            assert trace_of_word(data, [x, xstar]) == internal_end(data, x), (
                name,
                j,
            )
