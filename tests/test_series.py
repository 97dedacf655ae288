"""Exact polynomial and truncated-series arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alttab.errors import DomainError
from alttab.series import Poly3, Series, geometric, neg_log_one_minus_z

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


class TestPoly3:
    def test_basic_arithmetic(self):
        q, x, y = Poly3.var("q"), Poly3.var("x"), Poly3.var("y")
        p = q * x * y + x + y
        assert p == Poly3({(1, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        assert p - p == Poly3()
        assert repr(p) == "y + x + q*x*y"

    def test_product_expansion(self):
        x, y = Poly3.var("x"), Poly3.var("y")
        assert (x + y) * (x + y + 1) == x * x + 2 * x * y + y * y + x + y

    def test_evaluate(self):
        p = Poly3.var("q") * Poly3.var("x") * Poly3.var("y") + Poly3.var("x")
        v = p.evaluate(Fraction(1, 2), Fraction(3), Fraction(5))
        assert v == Fraction(1, 2) * 3 * 5 + 3

    @given(fractions, fractions, fractions)
    def test_eval_is_a_ring_morphism(self, a, b, c):
        x, y, q = Poly3.var("x"), Poly3.var("y"), Poly3.var("q")
        p1 = q * x + y * y + 3
        p2 = x * y - 2 * q
        args = (a, b, c)
        assert (p1 * p2).evaluate(*args) == p1.evaluate(*args) * p2.evaluate(*args)
        assert (p1 + p2).evaluate(*args) == p1.evaluate(*args) + p2.evaluate(*args)


class TestSeries:
    def test_geometric_coefficients(self):
        g = geometric(6)
        assert all(g.coefficient(n) == 1 for n in range(7))

    def test_one_over_one_minus_z_squared(self):
        # EGF view: coefficient of z^n/n! is (n+1)!.
        a = geometric(8) * geometric(8)
        assert [a.egf_count(n) for n in range(9)] == [math.factorial(n + 1) for n in range(9)]

    def test_exp_log_inverse_pair(self):
        g = geometric(10)
        assert g.log().exp() == g
        assert neg_log_one_minus_z(10) == g.log()

    def test_inverse(self):
        one_minus_z = Series.from_coeffs([1, -1], 8)
        assert one_minus_z.inverse() == geometric(8)
        assert one_minus_z * geometric(8) == Series.one(8)

    def test_derivative(self):
        assert geometric(6).derivative() == (geometric(7) * geometric(7)).truncate(5)

    def test_pow_fraction(self):
        # (1-z)^(-2) via the rational power route.
        assert geometric(7).pow_fraction(2) == (geometric(7) * geometric(7))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(DomainError) as err:
            Series.one(4).exp()
        assert "non-zero-exp-constant" in str(err.value)

    def test_log_requires_unit(self):
        with pytest.raises(DomainError) as err:
            Series.zero(4).log()
        assert "non-unit-log" in str(err.value)

    def test_truncation_guard(self):
        with pytest.raises(DomainError):
            geometric(3).coefficient(4)
        with pytest.raises(DomainError):
            geometric(3).truncate(5)

    @pytest.mark.parametrize(
        "run",
        [lambda n: geometric(3).coefficient(n), lambda n: geometric(3).truncate(n)],
        ids=["coefficient", "truncate"],
    )
    def test_truncation_guard_shows_a_number_too_long_to_print(self, run):
        with pytest.raises(DomainError) as err:
            run(10**5000)
        assert err.value.code == "truncation-too-small"
        assert "<a number too long to print>" in str(err.value)

    @given(st.lists(fractions, min_size=1, max_size=6))
    def test_exp_log_roundtrip(self, coeffs):
        f = Series.from_coeffs([0] + coeffs, len(coeffs) + 1)
        assert f.exp().log() == f

    @given(st.lists(fractions, min_size=0, max_size=6))
    def test_inverse_roundtrip(self, coeffs):
        f = Series.from_coeffs([1] + coeffs, len(coeffs) + 1)
        assert f * f.inverse() == Series.one(f.order)
