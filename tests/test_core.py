import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lauricella import (
    BranchSide,
    DomainError,
    GammaPoleError,
    IntegrandSpec,
    gamma,
    integrate_semi_infinite,
    pochhammer,
    principal_pow,
    roots_of_unity,
    unit_partition_roots,
)

import helpers_properties as props


class TestGamma:
    def test_half_is_sqrt_pi(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_factorial(self):
        assert gamma(5) == pytest.approx(24.0, rel=1e-14)

    def test_one_third_against_integral_oracle(self):
        # independent oracle: direct quadrature of int_0^inf t**(-2/3) e**-t dt
        spec = IntegrandSpec(
            evaluator=lambda t, dl, _dh: math.pow(dl, -2.0 / 3.0) * math.exp(-t),
        )
        oracle = integrate_semi_infinite(spec, 0.0, 1e-12).value.real
        assert gamma(1.0 / 3.0).real == pytest.approx(oracle, rel=1e-11)
        assert gamma(1.0 / 3.0).real == pytest.approx(2.6789385347077476, rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 2.5, 7.0, 13.25, 29.5, 50.0])
    def test_real_axis_accuracy(self, x):
        # recurrence from gamma(1..2) where the approximation is at its best
        base = x - math.floor(x) + 1.0
        acc = gamma(base)
        y = base
        while y < x - 0.5:
            acc *= y
            y += 1.0
        assert gamma(x) == pytest.approx(acc, rel=5e-13)

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0, -3.0 + 1e-13):
            with pytest.raises(GammaPoleError):
                gamma(z)

    def test_recurrence_and_reflection_suite(self):
        assert props.run_gamma_recurrence_reflection() >= 200

    def test_against_mpmath_oracle(self):
        import random

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 25
        rng = random.Random(5)
        for _ in range(300):
            z = complex(rng.uniform(-50, 50), rng.choice([0.0, 0.1, -0.4, 0.8]))
            if z.imag == 0 and z.real <= 0 and abs(z.real - round(z.real)) < 1e-6:
                continue
            want = complex(mpmath.gamma(mpmath.mpc(z)))
            assert abs(gamma(z) - want) <= 1e-13 * abs(want), z

    @pytest.mark.parametrize("x", [151.5, 160.25, 170.5, 171.6, -150.5, -170.5])
    def test_large_arguments_within_float_range(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(mpmath.gamma(x))
        assert gamma(x) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=400, derandomize=True, database=None)
    @given(
        st.one_of(
            st.floats(min_value=-170.5, max_value=171.6),
            # within 1e-9 of a pole, where Gamma is about 1/(n! (x + n))
            st.builds(
                lambda n, offset, sign: -n + sign * offset,
                st.integers(0, 170),
                st.floats(min_value=2e-12, max_value=1e-9),
                st.sampled_from([1.0, -1.0]),
            ),
        )
    )
    def test_real_axis_against_mpmath(self, x):
        mpmath = pytest.importorskip("mpmath")
        if round(x) <= 0 and abs(x - round(x)) < 1e-12:
            return   # a pole
        with mpmath.workdps(30):
            want = float(mpmath.gamma(x))
        got = gamma(x)
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-14 * abs(want), x

    @pytest.mark.parametrize(
        "x",
        [171.7, 200.0, 1e5, -171.5, -180.5, -150.5 + 40j, -160.5 + 40j,
         1e306 + 1j, 1 + 1e306j, -1e306 + 1j, 1e308 + 1e308j],
    )
    def test_value_beyond_float_range_is_domain_error(self, x):
        # below -170.6 the value is subnormal or 0, not a normal float; so is
        # |Gamma| ~ 4.5e-316 at -150.5 + 40i and 3.3e-338 at -160.5 + 40i; from
        # |z| ~ 1e305 on even log-Gamma overflows
        with pytest.raises(DomainError, match="floating-point range"):
            gamma(x)

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 1.0)])
    def test_non_finite_argument_is_domain_error(self, z):
        with pytest.raises(DomainError, match="finite"):
            gamma(z)

    @settings(max_examples=400, derandomize=True, database=None)
    @given(
        st.floats(min_value=130.0, max_value=400.0),
        st.sampled_from([1.0, -1.0]),
        st.sampled_from([0.0, 1e-9, 1e-5, 0.5, -3.0, 40.0, -250.0]),
    )
    def test_large_arguments_never_overflow_bare(self, size, sign, im):
        try:
            value = gamma(complex(sign * size, im))
        except (DomainError, GammaPoleError):
            return
        assert math.isfinite(value.real) and math.isfinite(value.imag)

    @pytest.mark.parametrize("z", [-0.5 + 300j, 0.3 + 400j, 0.3 - 400j, -7.2 - 250j])
    def test_reflection_past_sin_overflow(self, z):
        # sin(pi z) leaves the float range from |Im z| ~ 225 on; Gamma is ~1e-273 here
        from lauricella.core import _log_gamma

        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(mpmath.mpc(z)))
        assert abs(gamma(z) - want) <= 1e-12 * abs(want)
        assert abs(cmath.exp(_log_gamma(z)) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [142.7 + 1e-5j, 142.65 + 0.5j, -141.6 + 0.5j, -141.65 + 1e-9j])
    def test_near_float_range_edge_matches_mpmath(self, z):
        # |Gamma| ~ 1e244 and 1e-245, where t**(z - 1/2) alone is past the float range
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(mpmath.mpc(z)))
        got = gamma(z)
        assert abs(got - want) <= 1e-12 * abs(want), (z, got, want)


class TestLogGamma:
    def test_against_mpmath_past_float_range(self):
        # only exp(_log_gamma) is meant, so compare modulo 2 pi i, scaled by the
        # log's own size (the error grows like |z log z| ulps)
        import random

        from lauricella.core import _log_gamma

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 25
        rng = random.Random(7)
        for _ in range(200):
            z = complex(rng.uniform(-400, 1000), rng.choice([0.0, 0.3, -2.0, 60.0]))
            if z.imag == 0 and z.real <= 0 and abs(z.real - round(z.real)) < 1e-6:
                continue
            want = complex(mpmath.loggamma(mpmath.mpc(z)))
            diff = _log_gamma(z) - want
            turns = round(diff.imag / (2 * math.pi))
            assert abs(diff - 2j * math.pi * turns) <= 1e-14 * (1.0 + abs(want)), z

    @settings(max_examples=400, derandomize=True, database=None)
    # the second range keeps half the draws among the negative poles and sign changes
    @given(st.one_of(st.floats(min_value=-400.0, max_value=1e6), st.floats(min_value=-400.0, max_value=10.0)))
    def test_real_axis_against_mpmath(self, x):
        # the sign of Gamma(x) is the +i pi term: compared modulo 2 pi i, a
        # wrong sign is off by pi
        from lauricella.core import _log_gamma

        mpmath = pytest.importorskip("mpmath")
        if round(x) <= 0 and abs(x - round(x)) < 1e-12:
            return   # a pole
        with mpmath.workdps(30):
            want = complex(mpmath.loggamma(x))
        diff = _log_gamma(x) - want
        turns = round(diff.imag / (2 * math.pi))
        assert abs(diff - 2j * math.pi * turns) <= 1e-14 * (1.0 + abs(want)), x

    def test_poles_raise(self):
        from lauricella.core import _log_gamma

        with pytest.raises(GammaPoleError):
            _log_gamma(-3.0)

    @pytest.mark.parametrize("x", [1e306, 1.7e308])
    def test_log_beyond_float_range_is_domain_error(self, x):
        from lauricella.core import _log_gamma

        with pytest.raises(DomainError, match="floating-point range"):
            _log_gamma(x)


class TestGammaQuotient:
    def test_direct_quotient_in_range(self):
        from lauricella.core import _gamma_quotient

        g = gamma
        pairs = [
            (_gamma_quotient((1.5,), (0.25, 1.25)), g(1.5) / (g(0.25) * g(1.25))),
            (_gamma_quotient((2.5 + 1j, 0.3), (1.7 - 0.2j,)), g(2.5 + 1j) * g(0.3) / g(1.7 - 0.2j)),
            # the divisor leads the denominator product, as in n Gamma(b)
            (_gamma_quotient((0.5, 0.75), (1.25,), 3), g(0.5) * g(0.75) / (3 * g(1.25))),
        ]
        for got, want in pairs:
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("num, den, divisor", [
        ((200.0,), (199.5,), 1),                           # Gamma(200) overflows
        ((2 + 480j,), (0.5 + 240j, 1.5 + 240j), 1),        # Gammas and their product underflow
        ((0.25, 180.0), (180.5,), 7),
    ])
    def test_log_gamma_sum_past_float_range(self, num, den, divisor):
        from lauricella.core import _gamma_quotient

        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            top = mpmath.fprod(mpmath.gamma(z) for z in num)
            want = complex(top / (divisor * mpmath.fprod(mpmath.gamma(z) for z in den)))
        got = _gamma_quotient(num, den, divisor)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("num, den", [
        ((1.5,), (0.5 + 240j, 1 - 240j)),   # about 2.6e325
        ((1.0,), (180.0, 180.0)),             # about 1e-652
    ])
    def test_quotient_outside_float_range_is_domain_error(self, num, den):
        from lauricella.core import _gamma_quotient

        with pytest.raises(DomainError, match="floating-point range"):
            _gamma_quotient(num, den)

    def test_pole_passes_through(self):
        from lauricella.core import _gamma_quotient

        with pytest.raises(GammaPoleError):
            _gamma_quotient((-2.0,), (1.5,))
        with pytest.raises(GammaPoleError):
            _gamma_quotient((200.0,), (0.0,))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_factorial(self):
        assert pochhammer(1.0, 5) == 120.0

    def test_half(self):
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    @given(st.integers(min_value=0, max_value=40), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, m, a):
        assert pochhammer(a, m + 1) == pytest.approx(pochhammer(a, m) * (a + m), abs=1e-280)


class TestPrincipalPow:
    def test_negative_base_below(self):
        assert principal_pow(-1.0, 0.5, BranchSide.BELOW) == pytest.approx(-1j, abs=1e-15)

    def test_negative_base_above(self):
        assert principal_pow(-1.0, 0.5, BranchSide.ABOVE) == pytest.approx(1j, abs=1e-15)

    def test_positive_base(self):
        assert principal_pow(4.0, 0.5, BranchSide.ABOVE) == pytest.approx(2.0, rel=1e-15)

    def test_minus_i_sqrt(self):
        # principal log: exp((1/2) log(-i)) = exp(-i pi/4)
        want = cmath.exp(-1j * math.pi / 4)
        assert principal_pow(-1j, 0.5, BranchSide.ABOVE) == pytest.approx(want, rel=1e-15)

    def test_zero_base(self):
        assert principal_pow(0.0, 2.0) == 0.0
        with pytest.raises(DomainError):
            principal_pow(0.0, -1.0)

    @pytest.mark.parametrize("base, exponent", [(1e300, 2.0), (1.9, 1200.0), (-1e200, 2.5), (1j, -800j)])
    def test_past_float_range_is_domain_error(self, base, exponent):
        with pytest.raises(DomainError, match="floating-point range"):
            principal_pow(base, exponent)

    @pytest.mark.parametrize("base, exponent", [(math.nan, 2.0), (2.0, math.inf), (math.inf, 1.0), (1j, complex(0, math.nan))])
    def test_non_finite_value_is_domain_error(self, base, exponent):
        with pytest.raises(DomainError, match="not a finite number"):
            principal_pow(base, exponent)

    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    @settings(max_examples=80, deadline=None)
    def test_exponents_zero_and_one_exact(self, base):
        assert principal_pow(base, 0.0) == 1.0
        assert principal_pow(base, 1.0) == base


class TestRootFamilies:
    def test_n2(self):
        assert roots_of_unity(2) == [complex(-1.0, 0.0)]

    def test_n3(self):
        w = roots_of_unity(3)
        assert w[0] == pytest.approx(cmath.exp(2j * math.pi / 3), abs=1e-15)
        assert w[1] == pytest.approx(cmath.exp(-2j * math.pi / 3), abs=1e-15)

    def test_n4(self):
        assert roots_of_unity(4) == [1j, -1.0 + 0j, -1j]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_one_minus_root_product(self, n):
        product = complex(1.0)
        for w in roots_of_unity(n):
            product *= 1.0 - w
        assert product == pytest.approx(complex(n), abs=1e-12 * n)

    def test_partition_roots_n2(self):
        assert unit_partition_roots(2) == [complex(1, 1), complex(1, -1)]

    def test_partition_roots_n3(self):
        got = unit_partition_roots(3)
        s3 = math.sqrt(3) / 2
        assert got[0] == pytest.approx(complex(1.5, s3), abs=1e-15)
        assert got[1] == pytest.approx(complex(1.5, -s3), abs=1e-15)

    def test_partition_roots_n4(self):
        s = 1 / math.sqrt(2)
        want = {complex(1 + s, s), complex(1 - s, s), complex(1 - s, -s), complex(1 + s, -s)}
        got = unit_partition_roots(4)
        assert len(got) == 4
        for value in got:
            assert min(abs(value - w) for w in want) < 1e-15

    @pytest.mark.parametrize("n", range(2, 13))
    def test_partition_residual_and_geometry(self, n):
        roots = unit_partition_roots(n)
        assert len(roots) == (n if n % 2 == 0 else n - 1)
        for x in roots:
            assert abs(abs(x - 1.0) - 1.0) < 1e-13
            alpha = 1.0 / x
            # residual scaled by the term size: the raw terms reach 1e7 for
            # n = 12, so an absolute 1e-12 is below what binary64 can deliver
            scale = max(1.0, abs(alpha) ** n + abs(1.0 - alpha) ** n)
            assert abs(alpha ** n + (1.0 - alpha) ** n) < 1e-12 * scale

    @pytest.mark.parametrize("n", range(2, 13))
    def test_twins_are_exact_conjugates(self, n):
        # the Euler integrand folds a pair (x, conj x) with equal b only when it is exact
        w = roots_of_unity(n)  # w[k - 1] is root k
        for k in range(1, n):
            assert w[n - k - 1] == w[k - 1].conjugate()
        by_index = [k for k in range(1, n + 1) if 2 * k - 1 != n]
        roots = dict(zip(by_index, unit_partition_roots(n)))
        for k, x in roots.items():
            assert roots[n + 1 - k] == x.conjugate()

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            roots_of_unity(1)
        with pytest.raises(DomainError):
            unit_partition_roots(1)
