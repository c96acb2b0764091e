import cmath

import numpy as np
import pytest

from tracecat.cyclo import Cyc, CycloField, cyclotomic_polynomial, scalar_field


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # phi(72) = 24
    assert len(cyclotomic_polynomial(72)) == 25


@pytest.mark.parametrize("k", [2, 4, 10, 16])
def test_special_elements(k):
    F = CycloField.for_level(k)
    N = 4 * (k + 2)
    assert F.conductor == N
    i = F.imag_unit()
    assert i * i == F.from_int(-1)
    # q^(1/2) squared is q
    assert F.q_half() * F.q_half() == F.q()
    assert F.zeta(N) == F.one


@pytest.mark.parametrize("k", [2, 4, 10, 16])
def test_quantum_integers_against_sines(k):
    F = CycloField.for_level(k)
    for n in range(1, k + 3):
        exact = complex(F.quantum_integer(n))
        expected = cmath.sin(n * cmath.pi / (k + 2)) / cmath.sin(cmath.pi / (k + 2))
        assert abs(exact - expected) < 1e-12
    # the alcove wall
    assert F.quantum_integer(k + 2).is_zero()
    for n in range(1, k + 2):
        assert not F.quantum_integer(n).is_zero()


def test_field_operations_exact():
    F = CycloField.for_level(4)
    a = F.quantum_integer(3)
    b = F.zeta(5) - F.q(-2)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) * b.inverse() == a
    assert (a / a) == F.one
    assert a ** 3 == a * a * a
    assert a ** 0 == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_complex_evaluation_matches_arithmetic():
    F = CycloField.for_level(10)
    x = F.quantum_integer(5) * F.zeta(7) + F.q_half(-3)
    y = F.quantum_integer(2)
    assert abs(complex(x * y) - complex(x) * complex(y)) < 1e-12
    assert abs(complex(x + y) - (complex(x) + complex(y))) < 1e-12


def test_scalar_field_selector():
    assert scalar_field(2) is CycloField.for_level(2)


def _reduction_table(field):
    """Row t is x^(d+t) mod Phi_N, for t < N - d, built row from row: the
    reduction the field used before it divided by Phi_N."""
    d = field.degree
    rows = [[-c for c in cyclotomic_polynomial(field.conductor)[:d]]]
    while len(rows) < field.conductor - d:
        prev = rows[-1]
        rows.append([0] + prev[:-1])
        if prev[-1]:
            rows[-1] = [c + prev[-1] * r for c, r in zip(rows[-1], rows[0])]
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("k", range(101))
def test_reduce_matches_reduction_table(k):
    F = CycloField.for_level(k)
    d = F.degree
    table = _reduction_table(F)
    # keeps every product below exact int64 range
    assert np.abs(table).max() < 2**20
    rng = np.random.default_rng(k)
    for length in range(d + 1, F.conductor + 1):
        vec = rng.integers(-1000, 1001, size=length)
        expected = vec[:d] + vec[d:] @ table[: length - d]
        assert F._reduce(vec.tolist()) == tuple(expected.tolist())


LEVELS = [0, 1, 2, 4, 10, 16, 28]


@pytest.mark.parametrize("k", LEVELS)
def test_zeta_powers_multiply(k):
    F = CycloField.for_level(k)
    powers = [F.zeta(a) for a in range(F.conductor)]
    for a, za in enumerate(powers):
        for b, zb in enumerate(powers):
            assert za * zb == powers[(a + b) % F.conductor]


@pytest.mark.parametrize("k", LEVELS)
def test_level_constants_agree_between_fields(k):
    # the exact constants of Q(zeta) against their closed forms in C
    E, h = CycloField.for_level(k), cmath.pi / (k + 2)
    pairs = [(E.q(p), cmath.exp(1j * h * p)) for p in range(-3, 4)]
    pairs += [(E.q_half(p), cmath.exp(0.5j * h * p)) for p in range(-3, 4)]
    pairs += [(E.imag_unit(), 1j), (E.loop_value(), 2 * cmath.cos(h))]
    pairs += [(E.quantum_integer(n), cmath.sin(n * h) / cmath.sin(h)) for n in range(k + 3)]
    for exact, approx in pairs:
        assert abs(complex(exact) - approx) < 1e-12


@pytest.mark.parametrize("k", LEVELS)
def test_for_level_is_cached_per_class(k):
    E = CycloField.for_level(k)
    assert type(E) is CycloField
    assert CycloField.for_level(k) is E


@pytest.mark.parametrize(
    "field",
    [CycloField.for_level(k) for k in LEVELS] + [CycloField(n) for n in (1, 2, 3)],
    ids=[f"k{k}" for k in LEVELS] + [f"N{n}" for n in (1, 2, 3)],
)
def test_inverse_of_seeded_elements(field):
    # inverses are unique, so x * x^-1 == 1 checks the inverse completely
    rng = np.random.default_rng(field.conductor)
    for _ in range(5):
        num = rng.integers(-9, 10, size=field.degree)
        num[0] += not num.any()
        x = Cyc(field, tuple(num.tolist()), int(rng.integers(1, 13)))
        inv = x.inverse()
        assert x * inv == field.one
        assert abs(complex(inv) * complex(x) - 1) < 1e-9
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_equality_is_field_aware():
    # Q(zeta_16) and Q(zeta_24) both have degree 8: equal vectors, unequal elements
    a, b = CycloField.for_level(2), CycloField.for_level(4)
    assert a.degree == b.degree
    assert a.zeta(1).num == b.zeta(1).num
    assert a.zeta(1) != b.zeta(1)
    assert a.one != b.one
    assert a.zeta(1) == a.zeta(1 + a.conductor)
