"""Exact polynomials in (q, x, y) and truncated power series over the rationals.

Everything here is exact: integer monomial coefficients for tableau weights
and ``fractions.Fraction`` coefficients for series, so identity checks are
tolerance-free.  Series are stored by ordinary coefficients together with a
truncation order; the exponential-generating-function view of coefficient n
is ``n! * c_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError, _shown_number

Monomial = tuple[int, int, int]  # exponents of (q, x, y)


class Poly3:
    """Polynomial in q, x, y with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[Monomial, int] | None = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    @staticmethod
    def constant(c: int) -> Poly3:
        return Poly3({(0, 0, 0): c})

    @staticmethod
    def var(name: str) -> Poly3:
        idx = "qxy".index(name)
        mono = tuple(1 if k == idx else 0 for k in range(3))
        return Poly3({mono: 1})

    @staticmethod
    def monomial(q: int, x: int, y: int, coeff: int = 1) -> Poly3:
        return Poly3({(q, x, y): coeff})

    def __add__(self, other: Poly3 | int) -> Poly3:
        other = other if isinstance(other, Poly3) else Poly3.constant(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Poly3(out)

    __radd__ = __add__

    def __neg__(self) -> Poly3:
        return Poly3({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: Poly3 | int) -> Poly3:
        return self + (-(other if isinstance(other, Poly3) else Poly3.constant(other)))

    def __mul__(self, other: Poly3 | int) -> Poly3:
        if isinstance(other, int):
            if other == 1:
                return self  # values are never changed in place
            return Poly3({m: c * other for m, c in self.coeffs.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[m] = out.get(m, 0) + c1 * c2
        return Poly3(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly3.constant(other)
        return isinstance(other, Poly3) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def evaluate(self, q: Fraction, x: Fraction, y: Fraction) -> Fraction:
        total = Fraction(0)
        for (eq, ex, ey), c in self.coeffs.items():
            total += c * q**eq * x**ex * y**ey
        return total

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (eq, ex, ey), c in sorted(self.coeffs.items()):
            factors = [str(c)] if c != 1 or (eq, ex, ey) == (0, 0, 0) else []
            for name, e in zip("qxy", (eq, ex, ey)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """Power series truncated at ``order`` with Fraction coefficients c_0..c_order."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise DomainError("truncation-too-small", "coefficient count does not match order")

    @staticmethod
    def from_coeffs(values, order: int) -> Series:
        vals = [Fraction(v) for v in values][: order + 1]
        vals += [Fraction(0)] * (order + 1 - len(vals))
        return Series(order, tuple(vals))

    @staticmethod
    def zero(order: int) -> Series:
        return Series.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> Series:
        return Series.from_coeffs([1], order)

    @staticmethod
    def z(order: int, scale=1) -> Series:
        return Series.from_coeffs([0, Fraction(scale)], order)

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            shown = f"coefficient {_shown_number(n)} beyond order {self.order}"
            raise DomainError("truncation-too-small", shown)
        return self.coeffs[n]

    def egf_count(self, n: int) -> Fraction:
        """Coefficient of z^n/n!, i.e. the count a series in EGF form encodes."""
        return self.coefficient(n) * math.factorial(n)

    def _with(self, values: list[Fraction]) -> Series:
        return Series(self.order, tuple(values))

    def _align(self, other: Series | int | Fraction) -> tuple[Series, Series]:
        if not isinstance(other, Series):
            other = Series.from_coeffs([Fraction(other)], self.order)
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def truncate(self, order: int) -> Series:
        if order == self.order:
            return self
        if order > self.order:
            shown = f"cannot extend order {self.order} to {_shown_number(order)}"
            raise DomainError("truncation-too-small", shown)
        return Series(order, self.coeffs[: order + 1])

    def __add__(self, other: Series | int | Fraction) -> Series:
        a, b = self._align(other)
        return a._with([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> Series:
        return self._with([-x for x in self.coeffs])

    def __sub__(self, other: Series | int | Fraction) -> Series:
        a, b = self._align(other)
        return a._with([x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other: int | Fraction) -> Series:
        return -(self - other)

    def __mul__(self, other: Series | int | Fraction) -> Series:
        if not isinstance(other, Series):
            c = Fraction(other)
            return self._with([x * c for x in self.coeffs])
        a, b = self._align(other)
        out = [Fraction(0)] * (a.order + 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j in range(a.order + 1 - i):
                out[i + j] += x * b.coeffs[j]
        return a._with(out)

    __rmul__ = __mul__

    def inverse(self) -> Series:
        """Multiplicative inverse; the constant term must be nonzero."""
        if self.coeffs[0] == 0:
            raise DomainError("non-unit", "series with zero constant term has no inverse")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += self.coeffs[k] * out[n - k]
            out[n] = -inv0 * acc
        return self._with(out)

    def derivative(self) -> Series:
        if self.order == 0:
            return Series(0, (Fraction(0),))
        return Series(
            self.order - 1,
            tuple((n + 1) * self.coeffs[n + 1] for n in range(self.order)),
        )

    def exp(self) -> Series:
        """exp of a series with zero constant term, via g' = f'.g."""
        if self.coeffs[0] != 0:
            raise DomainError("non-zero-exp-constant", "exp needs a zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(self.order):
            acc = Fraction(0)
            for k in range(n + 1):
                acc += (k + 1) * self.coeffs[k + 1] * out[n - k]
            out[n + 1] = acc / (n + 1)
        return self._with(out)

    def log(self) -> Series:
        """log of a series with constant term one, via f' = h'.f."""
        if self.coeffs[0] != 1:
            raise DomainError("non-unit-log", "log needs constant term 1")
        out = [Fraction(0)] * (self.order + 1)
        for n in range(self.order):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += k * out[k] * self.coeffs[n + 1 - k]
            out[n + 1] = ((n + 1) * self.coeffs[n + 1] - acc) / (n + 1)
        return self._with(out)

    def pow_fraction(self, r: Fraction | int) -> Series:
        """f**r for rational r, as exp(r log f); constant term must be 1."""
        return (self.log() * Fraction(r)).exp()


def geometric(order: int) -> Series:
    """1/(1-z)."""
    return Series.from_coeffs([1] * (order + 1), order)


def neg_log_one_minus_z(order: int) -> Series:
    """-log(1-z) = sum z^n/n."""
    return Series.from_coeffs([0] + [Fraction(1, n) for n in range(1, order + 1)], order)
