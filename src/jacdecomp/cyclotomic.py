"""Exact arithmetic in the cyclotomic field Q(zeta_e).

A value is stored in reduced power-basis form: phi(e) coordinates over
1, z, ..., z^(phi(e)-1), where z = zeta_e and reduction is by the e-th
cyclotomic polynomial.  Coordinates are ints for algebraic integers (every
character value is one) and Fractions only after a Fraction scalar.
Canonical form is unique and Fraction(n) == n, so equality of values is
equality of coordinate tuples.  No floats anywhere.

Reduction reads one table per conductor, the reduced coordinates of z^t for
every t < e: a coefficient list reduces by adding c_t times the entry of
t mod e for each t >= phi(e).  A product with an int or Fraction scales the
coordinates and reduces nothing.

One analysis session fixes a single conductor (the exponent of the acting
group) and embeds every character value there, which keeps all arithmetic in
one field and avoids compositum bookkeeping.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class CyclotomicError(Exception):
    """Base error for cyclotomic arithmetic."""


class ZeroConductor(CyclotomicError):
    """The conductor must be a positive integer."""


class ConductorMismatch(CyclotomicError):
    """Operands live in different cyclotomic fields."""


class NotCoprime(CyclotomicError):
    """A Galois automorphism index must be coprime to the conductor."""


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37: exact below psi_12 (Sorenson
    and Webster, Math. Comp. 86 (2017)), ValueError at or above it."""
    if n >= 318665857834031151167461:
        raise ValueError(f"{n} is at or above psi_12, where is_prime is unproven")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def euler_phi(n: int) -> int:
    if n < 1:
        raise ZeroConductor(f"conductor must be positive, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _int_poly_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first), den monic."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=256)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, low degree first; monic of degree phi(e)."""
    if e < 1:
        raise ZeroConductor(f"conductor must be positive, got {e}")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=32)
def _power_reductions(e: int) -> tuple[tuple[int, ...], ...]:
    """Reduced coordinates of z^t for every t < e, by z^(t+1) = z * z^t mod Phi_e."""
    phi = cyclotomic_polynomial(e)
    table = [(1,) + (0,) * (len(phi) - 2)]
    while len(table) < e:
        # shift up one place; the coefficient reaching z^phi folds back through Phi_e
        power = table[-1]
        table.append(tuple(a - power[-1] * c for a, c in zip((0,) + power[:-1], phi)))
    return tuple(table)


def _reduce_coeffs(coeffs: Sequence[Scalar], e: int) -> tuple[Scalar, ...]:
    """Remainder of a coefficient list modulo Phi_e, padded to length phi(e):
    each c_t with t >= phi(e) adds c_t times the reduced z^(t mod e)."""
    powers = _power_reductions(e)
    deg = len(powers[0])
    rem = list(coeffs[:deg]) + [0] * (deg - len(coeffs))
    for t in range(deg, len(coeffs)):
        c = coeffs[t]
        if c:
            rem = [a + c * b for a, b in zip(rem, powers[t % e])]
    return tuple(rem)


def _as_scalar(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x if isinstance(x, Fraction) else int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclotomic:
    """Immutable element of Q(zeta_e): int coordinates, Fraction only after a Fraction scalar."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[Scalar]):
        if conductor < 1:
            raise ZeroConductor(f"conductor must be positive, got {conductor}")
        coeffs = tuple(coeffs)
        phi = len(cyclotomic_polynomial(conductor)) - 1
        if len(coeffs) != phi:
            raise ValueError(
                f"need phi({conductor}) = {phi} coordinates, got {len(coeffs)}"
            )
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, e: int) -> "Cyclotomic":
        return cls(e, [0] * (len(cyclotomic_polynomial(e)) - 1))

    @classmethod
    def one(cls, e: int) -> "Cyclotomic":
        return cls.from_rational(1, e)

    @classmethod
    def from_rational(cls, x: Scalar, e: int) -> "Cyclotomic":
        coeffs = [0] * (len(cyclotomic_polynomial(e)) - 1)
        coeffs[0] = _as_scalar(x)
        return cls(e, coeffs)

    @classmethod
    def root(cls, e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k as an element of Q(zeta_e)."""
        return cls.from_terms({k: 1}, e)

    @classmethod
    def from_terms(cls, terms: Mapping[int, Scalar], e: int) -> "Cyclotomic":
        """Sum of a_k * zeta_e^k over the given exponents (any integers)."""
        if e < 1:
            raise ZeroConductor(f"conductor must be positive, got {e}")
        raw = [0] * e
        for k, a in terms.items():
            raw[k % e] += _as_scalar(a)
        return cls(e, _reduce_coeffs(raw, e))

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "Cyclotomic") -> None:
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductors differ: {self.conductor} vs {other.conductor}"
            )

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates; zeros stay int zeros
            return Cyclotomic(self.conductor, [a * other if a else 0 for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return Cyclotomic(self.conductor, _reduce_coeffs(prod, self.conductor))

    __rmul__ = __mul__

    # -- Galois action ------------------------------------------------------

    def galois(self, k: int) -> "Cyclotomic":
        """Apply sigma_k : zeta -> zeta^k; requires gcd(k, e) = 1."""
        e = self.conductor
        if math.gcd(k, e) != 1:
            raise NotCoprime(f"sigma_{k} is not an automorphism of Q(zeta_{e})")
        terms: dict[int, Scalar] = {}
        for i, a in enumerate(self.coeffs):
            if a:
                terms[(i * k) % e] = terms.get((i * k) % e, 0) + a
        return Cyclotomic.from_terms(terms, e)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    # -- predicates / conversions -------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self.coeffs[0])

    def as_integer(self) -> int:
        q = self.as_rational()
        if q.denominator != 1:
            raise ValueError(f"not an integer value: {self}")
        return q.numerator

    # -- comparisons / rendering ---------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, Cyclotomic) else other
        if not isinstance(o, Cyclotomic):
            return NotImplemented
        return self.conductor == o.conductor and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.conductor}, {self})"

    def __str__(self):
        return self.render()

    def render(self) -> str:
        """Human form 'a0 + a1*z + ...' with zero terms dropped."""
        parts: list[str] = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i == 0:
                term = str(a)
            else:
                mon = "z" if i == 1 else f"z^{i}"
                if a == 1:
                    term = mon
                elif a == -1:
                    term = f"-{mon}"
                else:
                    term = f"{a}*{mon}"
            parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out
