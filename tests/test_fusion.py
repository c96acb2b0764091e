import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecat.fusion import (
    MAX_LEVEL,
    FusionError,
    FusionRing,
    ObjectVec,
    fuse,
    su2_dimensions,
    validate_ring,
    verlinde_su2,
)
from tracecat.modules import ModuleTensorData
from tracecat.packages import BUILTIN_FILES, load_builtin


def clebsch_gordan_loop(k: int) -> np.ndarray:
    """The truncated angular-momentum rule, one (a, b) pair at a time."""
    r = k + 1
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        for j in range(r):
            a, b = i + 1, j + 1
            top = min(a + b - 1, 2 * k + 3 - a - b)
            for c in range(abs(a - b) + 1, top + 1, 2):
                N[i, j, c - 1] = 1
    return N


def einsum_validate_ring(ring: FusionRing) -> list[str]:
    """The failures of validate_ring, built from two dense r**4 arrays."""
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

    lhs = np.einsum("ijm,mlk->iljk", N, N)
    rhs = np.einsum("jlm,imk->iljk", N, N)
    if not np.array_equal(lhs, rhs):
        i, l, j, k = np.argwhere(lhs != rhs)[0]
        failures.append(
            "associativity fails at "
            f"({ring.labels[i]},{ring.labels[j]},{ring.labels[l]}) -> {ring.labels[k]}"
        )

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
    return failures


def perturb(N: np.ndarray, rng: np.random.Generator, entries: int) -> np.ndarray:
    """A copy of N with `entries` random entries moved by -1, +1 or +2."""
    out = np.array(N)
    for _ in range(entries):
        out[tuple(rng.integers(0, n) for n in out.shape)] += rng.choice([-1, 1, 2])
    return out


def chebyshev_oracle(k: int) -> np.ndarray:
    """Brute-force structure constants from m (x) 2 = (m-1) + (m+1), clipped."""
    r = k + 1
    A = np.zeros((r, r), dtype=np.int64)
    for i in range(r - 1):
        A[i, i + 1] = A[i + 1, i] = 1
    mats = [np.eye(r, dtype=np.int64), A]
    for _ in range(2, r):
        mats.append(A @ mats[-1] - mats[-2])
    N = np.zeros((r, r, r), dtype=np.int64)
    for i in range(r):
        N[i] = mats[i].T
    return N


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 10, 16])
def test_verlinde_matches_recursion_oracle(k):
    ring = verlinde_su2(k)
    assert ring.rank == k + 1
    assert np.array_equal(ring.N, chebyshev_oracle(k))
    assert validate_ring(ring).ok


def test_verlinde_spec_examples():
    # k=0: the trivial ring
    triv = verlinde_su2(0)
    assert triv.rank == 1 and triv.N[0, 0, 0] == 1

    r2 = verlinde_su2(2)
    two = r2.basis("2")
    assert fuse(r2, two, two).mult == (1, 0, 1)  # 2 (x) 2 = 1 + 3
    three = r2.basis("3")
    assert fuse(r2, three, three).mult == (1, 0, 0)  # 3 (x) 3 = 1

    r16 = verlinde_su2(16)
    nine = r16.basis("9")
    assert fuse(r16, nine, nine).mult[r16.index("17")] == 1


def test_fuse_unit_law_and_bilinearity():
    ring = verlinde_su2(4)
    x = ObjectVec(ring.name, (1, 0, 2, 0, 1))
    assert fuse(ring, ring.basis(ring.unit), x) == x
    assert fuse(ring, x, ring.basis(ring.unit)) == x

    # SU(2)_16: (1+9)(1+9) = 1 + 9 + 9 + 9*9
    r16 = verlinde_su2(16)
    a = r16.basis("1") + r16.basis("9")
    prod = fuse(r16, a, a)
    nn = fuse(r16, r16.basis("9"), r16.basis("9"))
    expected = [0] * 17
    expected[0] += 1
    expected[8] += 2
    for idx, v in enumerate(nn.mult):
        expected[idx] += v
    assert prod.mult == tuple(expected)


def test_fuse_rejects_label_mismatch():
    r4, r2 = verlinde_su2(4), verlinde_su2(2)
    with pytest.raises(FusionError):
        fuse(r4, r2.basis("1"), r4.basis("1"))


small_vecs = st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5)


@settings(max_examples=40, deadline=None)
@given(small_vecs, small_vecs, small_vecs)
def test_fuse_associative_and_unital(xs, ys, zs):
    ring = verlinde_su2(4)
    x, y, z = (ObjectVec(ring.name, tuple(v)) for v in (xs, ys, zs))
    assert fuse(ring, fuse(ring, x, y), z) == fuse(ring, x, fuse(ring, y, z))
    assert fuse(ring, ring.basis(ring.unit), x) == x


@settings(max_examples=40, deadline=None)
@given(small_vecs)
def test_dual_pairing_counts_unit(xs):
    # x (x) x* contains the unit with multiplicity sum(x_i^2)
    ring = verlinde_su2(4)
    x = ObjectVec(ring.name, tuple(xs))
    xd = ObjectVec(ring.name, tuple(xs[i] for i in ring.dual))
    pairing = fuse(ring, x, xd)
    assert pairing.mult[ring.unit] == sum(v * v for v in xs)


def test_dual_is_involution():
    ring = verlinde_su2(10)
    assert tuple(ring.dual[ring.dual[i]] for i in range(ring.rank)) == tuple(
        range(ring.rank)
    )


def test_validate_ring_reports_witness():
    good = verlinde_su2(4)
    bad_N = np.array(good.N)
    bad_N[1, 1, 1] += 1
    bad = FusionRing("bad", good.labels, good.unit, good.dual, bad_N)
    report = validate_ring(bad)
    assert not report.ok
    assert any("associativity" in f or "duality" in f for f in report.failures)


@pytest.mark.parametrize(
    "k,index,value",
    [(2, 1, 2**0.5), (4, 1, 3**0.5), (0, 0, 1.0)],
)
def test_fp_dimensions_golden(k, index, value):
    dims = su2_dimensions(k)
    assert abs(dims[index] - value) < 1e-10


def test_fp_dimensions_multiplicative():
    ring = verlinde_su2(10)
    dims = su2_dimensions(10)
    check = np.einsum("ijk,k->ij", ring.N, dims)
    assert np.max(np.abs(check - np.outer(dims, dims))) < 1e-10


@pytest.mark.parametrize("k", range(35, 61))
def test_fp_dimensions_at_high_level_match_sine_formula(k):
    # products of dimensions reach the hundreds here: multiplicativity is
    # checked relative to the largest product
    ring = verlinde_su2(k)
    dims = su2_dimensions(k)
    products = np.outer(dims, dims)
    check = np.einsum("ijk,k->ij", ring.N, dims)
    assert np.max(np.abs(check - products)) < 1e-12 * np.max(products)
    assert np.all(dims > 0)


def test_transitivity_detection():
    from tracecat.fusion import is_transitive

    connected = np.stack([np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)])
    disconnected = np.stack([np.eye(2, dtype=np.int64)] * 2)
    assert is_transitive(connected)
    assert not is_transitive(disconnected)


@pytest.mark.parametrize("k", [-1, MAX_LEVEL + 1])
def test_su2_dimensions_rejects_levels_verlinde_rejects(k):
    with pytest.raises(FusionError) as dims_error:
        su2_dimensions(k)
    with pytest.raises(FusionError) as ring_error:
        verlinde_su2(k)
    assert str(dims_error.value) == str(ring_error.value)


def test_fuse_simple_pair_su2_4():
    ring = verlinde_su2(4)
    out = fuse(ring, ring.basis("2"), ring.basis("4"))
    assert out.mult == (0, 0, 1, 0, 1)  # 2 (x) 4 = 3 + 5


def test_verlinde_matches_clebsch_gordan_loop():
    for k in range(61):
        assert np.array_equal(verlinde_su2(k).N, clebsch_gordan_loop(k)), k


def test_verlinde_rejects_levels_above_the_bound():
    assert verlinde_su2(MAX_LEVEL).rank == MAX_LEVEL + 1
    with pytest.raises(FusionError, match=f"level {MAX_LEVEL + 1} exceeds"):
        verlinde_su2(MAX_LEVEL + 1)


def builtin_rings() -> list[FusionRing]:
    rings = []
    for name in BUILTIN_FILES + ("a5_su2_4",):
        data = load_builtin(name)
        rings.append(data.base)
        if isinstance(data, ModuleTensorData):
            rings.append(data.module_ring())
    return rings


def test_validate_ring_matches_einsum_reference_on_builtins():
    for ring in builtin_rings():
        assert validate_ring(ring).failures == einsum_validate_ring(ring) == []


@pytest.mark.parametrize("entries", [1, 2])
def test_validate_ring_matches_einsum_reference_on_perturbations(entries):
    rng = np.random.default_rng(entries)
    broken = 0
    for k in range(8):
        ring = verlinde_su2(k)
        for _ in range(20):
            N = perturb(ring.N, rng, entries)
            bad = FusionRing("bad", ring.labels, ring.unit, ring.dual, N)
            expected = einsum_validate_ring(bad)
            assert validate_ring(bad).failures == expected
            broken += any(f.startswith("associativity") for f in expected)
    assert broken >= 40  # most witnesses compared are associativity witnesses


def test_validate_ring_is_exact_past_float64():
    # x.y = p u, u.x = q z, y.x = s v, x.v = t z and every other product of
    # non-units zero: (x.y).x = pq z and x.(y.x) = st z are the only
    # products of three that differ, by 1 at 2**60, below float64 resolution
    p, q, s, t = 2**30 + 1, 2**30 - 1, 2**30, 2**30
    labels = ("1", "x", "y", "u", "v", "z")
    x, y, u, v, z = range(1, 6)
    N = np.zeros((6, 6, 6), dtype=np.int64)
    N[0] = N[:, 0, :] = np.eye(6, dtype=np.int64)
    N[x, y, u], N[u, x, z], N[y, x, v], N[x, v, z] = p, q, s, t
    assert float(p) * float(q) == float(s) * float(t)
    ring = FusionRing("wide", labels, 0, tuple(range(6)), N)
    failures = validate_ring(ring).failures
    assert "associativity fails at (x,y,x) -> z" in failures
    assert failures == einsum_validate_ring(ring)


def test_validate_ring_memory_is_cubic_in_the_rank():
    ring = verlinde_su2(60)
    tracemalloc.start()
    try:
        assert validate_ring(ring).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20  # the two r**4 arrays alone took 221 MB


def test_fuse_is_exact_past_64_bits():
    ring = verlinde_su2(4)
    n = 2**64 + 3
    x = ObjectVec(ring.name, (0, n, 0, 0, 0))
    assert x.as_array().dtype == object
    assert ObjectVec(ring.name, (0, 2**63 - 1, 0, 0, 0)).as_array().dtype == np.int64
    # 2 (x) 2 = 1 + 3, so n*2 (x) n*2 = n^2 (1 + 3), far past int64 and float64
    assert fuse(ring, x, x).mult == (n * n, 0, n * n, 0, 0)
    # a zero factor next to Python ints stays in Python ints
    zero = ObjectVec(ring.name, (0,) * 5)
    huge = ObjectVec(ring.name, (10**400, 0, 0, 0, 0))
    assert fuse(ring, zero, huge).is_zero() and fuse(ring, huge, zero).is_zero()
