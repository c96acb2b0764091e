"""Exact arithmetic in the cyclotomic field generated by zeta = exp(i*pi/(2(k+2))).

Scalars live in Q(zeta) where zeta is a primitive root of unity of order
N = 4(k+2), so that

    q       = zeta**2,
    q^(1/2) = zeta,
    i       = zeta**(k+2).

Elements are represented as integer coefficient vectors (with a single
positive integer denominator) modulo the N-th cyclotomic polynomial, which
makes equality decidable and all arithmetic exact.  Q(zeta) is Galois over
Q with group (Z/N)^x, so an inverse is the product of the other conjugates
over the rational norm, in field products alone.  Every scalar tracecat
compares is an element of this field: no tolerance decides an identity.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the cyclotomic polynomials of
    the proper divisors of n.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


cyclotomic_polynomial = lru_cache(maxsize=None)(cyclotomic_polynomial)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        coef = num[shift + len(den) - 1]
        if coef % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        coef //= den[-1]
        out[shift] = coef
        for i, d in enumerate(den):
            num[shift + i] -= coef * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


class CycloField:
    """The field Q(zeta_N), zeta_N = exp(2*pi*i/N), with exact arithmetic."""

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        minpoly = cyclotomic_polynomial(conductor)
        self.degree = len(minpoly) - 1
        # the nonzero terms of the monic minimal polynomial below its top one
        self._lower = [(i, c) for i, c in enumerate(minpoly[:-1]) if c]
        self.zero = Cyc(self, (0,) * self.degree, 1)
        self.one = self.from_int(1)

    @classmethod
    @lru_cache(maxsize=None)
    def for_level(cls, k: int):
        """Field containing q^(1/2) and i for the level-k theory."""
        return cls(4 * (k + 2))

    def q(self, power: int = 1):
        return self.zeta(2 * power)

    def q_half(self, power: int = 1):
        return self.zeta(power)

    def imag_unit(self):
        if self.conductor % 4 != 0:
            raise ValueError("i is not in this field")
        return self.zeta(self.conductor // 4)

    def quantum_integer(self, n: int):
        """[n]_q = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
        acc = self.zero
        for j in range(n):
            acc = acc + self.q(n - 1 - 2 * j)
        return acc

    def loop_value(self):
        """delta = [2]_q = q + q^(-1)."""
        return self.quantum_integer(2)

    def from_int(self, n: int) -> "Cyc":
        vec = [0] * self.degree
        vec[0] = n
        return Cyc(self, tuple(vec), 1)

    def zeta(self, power: int = 1) -> "Cyc":
        """zeta_N raised to an integer power (any sign)."""
        power %= self.conductor
        vec = [0] * self.conductor
        vec[power] = 1
        return Cyc(self, self._reduce(vec), 1)

    def _reduce(self, vec: list[int]) -> tuple[int, ...]:
        """The remainder of vec (low degree first, any length) modulo the
        minimal polynomial, by division from the top term down."""
        d = self.degree
        out = list(vec) + [0] * (d - len(vec))
        for t in range(len(out) - 1, d - 1, -1):
            coef = out[t]
            if coef:
                for i, c in self._lower:
                    out[t - d + i] -= coef * c
        return tuple(out[:d])


class Cyc:
    """An element of a CycloField: integer vector over a common denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple[int, ...], den: int):
        if den < 0:
            num, den = tuple(-c for c in num), -den
        g = math.gcd(den, *num)
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        self.field = field
        self.num = num
        self.den = den

    def __add__(self, other: "Cyc") -> "Cyc":
        a, b = self, other
        if a.field is not b.field:
            raise ValueError("scalar field mismatch")
        if a.den == b.den:
            return Cyc(a.field, tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        return Cyc(
            a.field,
            tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)),
            a.den * b.den,
        )

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __neg__(self) -> "Cyc":
        return Cyc(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other: "Cyc") -> "Cyc":
        if self.field is not other.field:
            raise ValueError("scalar field mismatch")
        d = self.field.degree
        a, b = self.num, other.num
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return Cyc(self.field, self.field._reduce(conv), self.den * other.den)

    def __truediv__(self, other: "Cyc") -> "Cyc":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def inverse(self) -> "Cyc":
        """Multiplicative inverse through the Galois norm: with rest the
        product of the conjugates x(zeta^a), 1 < a < N, gcd(a, N) = 1, the
        norm x * rest is rational and 1/x = rest / norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        n = field.conductor
        rest = field.one
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                vec = [0] * n
                for j, c in enumerate(self.num):
                    vec[a * j % n] = c
                rest = rest * Cyc(field, field._reduce(vec), self.den)
        norm = self * rest
        return Cyc(field, tuple(c * norm.den for c in rest.num), rest.den * norm.num[0])

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.field is other.field and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __complex__(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.field.conductor)
        acc = 0j
        for c in reversed(self.num):
            acc = acc * z + c
        return acc / self.den

    def __repr__(self) -> str:
        terms = []
        for p, c in enumerate(self.num):
            if c:
                frac = Fraction(c, self.den)
                terms.append(f"{frac}*z^{p}" if p else f"{frac}")
        return " + ".join(terms) if terms else "0"


def scalar_field(k: int) -> CycloField:
    """The exact scalar field for level k."""
    return CycloField.for_level(k)
