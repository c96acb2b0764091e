import itertools
import math

import numpy as np
import pytest

from tracecat.algebra import (
    MAX_CATALOG,
    AlgebraCandidate,
    candidate_from_end,
    candidate_from_trace_unit,
    candidate_from_word,
    enumerate_internal_ends,
    identify_algebra,
    semisimplicity_witness,
)
from tracecat import algebra
from tracecat.fusion import ObjectVec, fuse, verlinde_su2
from tracecat.modules import ModuleError, action_automorphisms, regular_module
from tracecat.packages import BUILTIN_FILES, load_builtin
from tracecat.trace import internal_end, trace_of_word


@pytest.fixture(scope="module")
def su2_16_actions():
    return [load_builtin(n) for n in ("a17_su2_16", "d10_su2_16", "e7_su2_16")]


@pytest.fixture(scope="module")
def su2_16_catalogs(su2_16_actions):
    return [enumerate_internal_ends(p, 3) for p in su2_16_actions]


def test_enumerate_bound_one_lists_vertices():
    e7 = load_builtin("e7_su2_16")
    catalog = enumerate_internal_ends(e7, 1)
    assert np.array_equal(catalog.xs, np.eye(7)[::-1])  # (total, mult) order


def test_enumerate_quotients_by_symmetry():
    d10 = load_builtin("d10_su2_16")
    catalog = enumerate_internal_ends(d10, 1)
    # the fork legs 9 and 9' are identified, leaving nine orbits
    assert catalog.xs.shape == (9, 10) and catalog.ends.shape == (9, 17)


def test_enumerate_regular_identity():
    a17 = load_builtin("a17_su2_16")
    catalog = enumerate_internal_ends(a17, 1)
    ring = a17.base
    for x, end in zip(catalog.xs, catalog.ends):
        j = int(np.flatnonzero(x)[0])
        assert tuple(end) == fuse(ring, ring.basis(j), ring.basis(ring.dual[j])).mult


def _reference_catalog(action, bound):
    """The catalog rows, (xs, ends), by a Python loop over multisets: each
    orbit's representative is the lexicographically greatest image."""
    m = action.rank
    inverses = [sorted(range(m), key=p.__getitem__) for p in action_automorphisms(action)]
    seen = set()
    for total in range(1, bound + 1):
        for combo in itertools.combinations_with_replacement(range(m), total):
            mult = [0] * m
            for j in combo:
                mult[j] += 1
            seen.add(max(tuple(mult[j] for j in inverse) for inverse in inverses))
    xs = np.array(sorted(seen, key=lambda mult: (sum(mult), mult)))
    return xs, np.einsum("ej,ijl,el->ei", xs, action.mats, xs)


@pytest.mark.parametrize("name", [*BUILTIN_FILES, "a4_su2_3", "a21_su2_20"])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_enumerate_matches_the_reference_loop(name, bound):
    action = load_builtin(name)
    catalog = enumerate_internal_ends(action, bound)
    xs, ends = _reference_catalog(action, bound)
    assert np.array_equal(catalog.xs, xs)
    assert np.array_equal(catalog.ends, ends)


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


def test_the_three_identifications(su2_16_actions, su2_16_catalogs):
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
        witness = semisimplicity_witness(candidate, su2_16_actions, 3)
        assert witness.passed and witness.unique
        line = witness.line()
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
        for j in range(min(3, action.rank)):
            cand = candidate_from_end(action, action.basis(j), action.msimples[j])
            assert semisimplicity_witness(cand, [action], 2).passed


def test_no_witness_for_non_algebra(su2_16_actions):
    fake = AlgebraCandidate(
        ObjectVec("su2_16", (1, 1) + (0,) * 15), "synthetic 1+2", verlinde_su2(16)
    )
    report = semisimplicity_witness(fake, su2_16_actions, 3)
    assert not report.passed
    assert report.line() == "object = 1^1 + 2^1  witness = none"


@pytest.mark.parametrize("big", [2**63, 2**64])
def test_identify_an_object_past_int64_matches_nothing(su2_16_catalogs, big):
    # the target is a uint64 or an object array against int64 Ends
    candidate = AlgebraCandidate(ObjectVec("su2_16", (big,) + (0,) * 16), "big", verlinde_su2(16))
    assert identify_algebra(candidate, su2_16_catalogs) == []


def test_candidate_must_contain_unit():
    with pytest.raises(ModuleError):
        AlgebraCandidate(ObjectVec("su2_16", (0, 1) + (0,) * 15), "no unit", verlinde_su2(16))


@pytest.mark.parametrize(
    "obj", [ObjectVec("su2_16", ()), ObjectVec("su2_16", (1,) * 18), ObjectVec("su2_4", (1,) * 17)]
)
def test_candidate_must_be_an_object_of_its_base_ring(obj):
    # an empty tuple once raised IndexError reading the unit multiplicity
    with pytest.raises(ModuleError, match="algebra candidate is not an object of su2_16"):
        AlgebraCandidate(obj, "p", verlinde_su2(16))


@pytest.fixture(scope="module")
def reg_d4_candidate():
    # a regular module over the D4 module ring: its internal Ends are not
    # objects of SU(2)_3, whatever their multiplicities
    regular = regular_module(load_builtin("d4_su2_4").module_ring(), name="reg_d4")
    return candidate_from_end(regular, regular.basis(0), "1")


def test_identify_refuses_a_catalog_over_another_ring(reg_d4_candidate):
    catalog = enumerate_internal_ends(load_builtin("a4_su2_3"), 3)
    with pytest.raises(ModuleError) as excinfo:
        identify_algebra(reg_d4_candidate, [catalog])
    assert str(excinfo.value) == "a4_su2_3 is over su2_3, not d4_su2_4.module"


def test_witness_refuses_another_ring_before_any_catalog(reg_d4_candidate, monkeypatch):
    monkeypatch.setattr(algebra, "enumerate_internal_ends", None)
    with pytest.raises(ModuleError) as excinfo:
        semisimplicity_witness(reg_d4_candidate, [load_builtin("a4_su2_3")], 3)
    assert str(excinfo.value) == "a4_su2_3 is over su2_3, not d4_su2_4.module"


def test_connectedness_of_unit_traces():
    for name in ("d4_su2_4", "e6_su2_10", "e8_su2_28", "d10_su2_16", "a5_su2_4"):
        data = load_builtin(name)
        candidate = candidate_from_trace_unit(data)
        assert candidate.connected


def test_opposite_iso_exhaustive_on_d4():
    d4 = load_builtin("d4_su2_4")
    for j in range(4):
        for l in range(4):
            a, b = d4.basis(j), d4.basis(l)
            assert trace_of_word(d4, [b, a]) == trace_of_word(d4, [a, b])


def test_opposite_and_protected_on_random_objects():
    rng = np.random.default_rng(7)
    for name in ("e6_su2_10", "d10_su2_16"):
        data = load_builtin(name)
        m = data.rank
        for _ in range(4):
            a = data.object_vec(rng.integers(0, 3, size=m))
            b = data.object_vec(rng.integers(0, 3, size=m))
            assert trace_of_word(data, [b, a]) == trace_of_word(data, [a, b])
            # conjugating one factor by each simple z and its dual
            for j in range(m):
                z, zstar = data.basis(j), data.basis(data.mdual[j])
                lhs = trace_of_word(data, [z, a, zstar, b])
                assert lhs == trace_of_word(data, [a, zstar, b, z])


def test_protected_iso_unit_case_reduces():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    unit = d10.basis(d10.unit_module)
    unit_dual = d10.basis(d10.mdual[d10.unit_module])
    lhs = trace_of_word(d10, [unit, A, unit_dual, B])
    assert lhs == trace_of_word(d10, [A, B])
    assert lhs == trace_of_word(d10, [A, unit_dual, B, unit])


def test_protected_iso_with_specific_z():
    d10 = load_builtin("d10_su2_16")
    A = d10.basis("1") + d10.basis("9")
    B = d10.basis("1") + d10.basis("9'")
    z, zstar = d10.basis("2"), d10.basis(d10.mdual[d10.index("2")])
    assert trace_of_word(d10, [z, A, zstar, B]) == trace_of_word(d10, [A, zstar, B, z])


def test_bound_two_catalog_contains_the_d10_witness():
    d10 = load_builtin("d10_su2_16")
    catalog = enumerate_internal_ends(d10, 2)
    A = d10.basis("1") + d10.basis("9")
    target = trace_of_word(d10, [A, A])
    hits = np.flatnonzero((catalog.ends == target.mult).all(axis=1))
    assert len(hits) == 1
    assert tuple(catalog.xs[hits[0]]) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 0)


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
