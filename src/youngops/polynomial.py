"""Dense univariate polynomials with exact rational coefficients.

Used for trace polynomials in the tensor-space parameter N: taking the
trace of a permutation operator on (C^N)^(x n) gives N**cycles, so traces
of group-algebra elements are polynomials in N with Fraction coefficients.

Coefficients, scalar operands and evaluation points follow the one
scalar rule, `exact._scalar`: a `numbers.Rational` other than bool,
else TypeError.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from numbers import Rational
from typing import Iterable

from .exact import _integer, _scalar


class Polynomial:
    """Immutable polynomial sum(c[k] * N**k), coefficients little-endian."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def monomial(cls, degree: int, coeff: Rational = 1) -> "Polynomial":
        """coeff * N**degree, the degree a nonnegative integer."""
        if (degree := _integer(degree)) < 0:
            raise ValueError(f"negative degree {degree}")
        return cls([0] * degree + [coeff])

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, Rational) and not isinstance(other, bool):
            return self == Polynomial([other])
        return NotImplemented  # a bool is no scalar, so never equal

    def __hash__(self) -> int:
        # A constant equals its Fraction, so it must hash like one.
        if self.degree <= 0:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, Rational):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial([a + b for a, b in zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial | Rational") -> "Polynomial":
        return self + -other

    def __rsub__(self, other: Rational) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | Rational") -> "Polynomial":
        if isinstance(other, Rational):
            c = _scalar(other)
            return Polynomial([a * c for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        cs = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return Polynomial(cs)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational) -> "Polynomial":
        d = _scalar(other)
        return Polynomial([c / d for c in self.coeffs])

    def __call__(self, value: Rational) -> Fraction:
        """Evaluate at a concrete value (Horner)."""
        x, acc = _scalar(value), Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mono = "N" if k == 1 else f"N^{k}"
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    # -- JSON output ------------------------------------------------------

    def to_dict(self) -> dict:
        """{"coeffs": {"<degree>": "<p/q>", ...}}; the constant term is
        always present so the zero polynomial serializes non-emptily."""
        coeffs = {"0": str(self.coeffs[0] if self.coeffs else Fraction(0))}
        for k, c in enumerate(self.coeffs):
            if k > 0 and c != 0:
                coeffs[str(k)] = str(c)
        return {"coeffs": coeffs}
