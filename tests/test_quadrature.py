import cmath
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lauricella import (
    DomainError,
    IntegrandSpec,
    QuadratureError,
    complete_k,
    gamma,
    integrate,
    integrate_semi_infinite,
)

import helpers_properties as props

K12 = 1.8540746773013719          # K(1/sqrt2), AGM
CUBIC_BETA = 1.4021821053254543   # int_0^1 dx/sqrt(1-x^3)


class TestSpecValidation:
    def test_unordered_singularities_rejected(self):
        with pytest.raises(ValueError):
            IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0, interior_singularities=(0.5, 0.25))

    def test_an_evaluator_is_required(self):
        with pytest.raises(ValueError, match="evaluator"):
            IntegrandSpec()

    def test_distance_evaluator_is_an_alias(self):
        def g(x, d_lo, d_hi):
            return d_lo ** -0.5 * (1.0 + x)

        spec = IntegrandSpec(evaluator=g)
        alias = IntegrandSpec(distance_evaluator=g)
        assert alias == spec and alias.evaluator is g and alias.distance_evaluator is None
        assert integrate(alias, 0.0, 1.0, 1e-11) == integrate(spec, 0.0, 1.0, 1e-11)

    def test_evaluator_and_its_alias_together_rejected(self):
        def g(_x, _d_lo, _d_hi):
            return 1.0

        with pytest.raises(ValueError, match="not both"):
            IntegrandSpec(evaluator=g, distance_evaluator=g)

    def test_non_finite_singularities_rejected(self):
        # a nan split was once accepted, and integrate then dropped it
        for points in ((math.nan,), (0.5, math.inf), (-math.inf, 0.5)):
            with pytest.raises(ValueError, match="finite"):
                IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0, interior_singularities=points)

    def test_non_finite_limits_rejected_before_any_call(self):
        # integrate_semi_infinite(spec, -inf) once returned 0j with estimate 0 for sqrt(pi),
        # and integrate(spec, 0, inf) blamed a sample at x = nan
        calls = []
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: calls.append(x) or math.exp(-x * x))
        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="need finite lo < hi"):
                integrate(spec, lo, hi)
        for lo in (-math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="need finite lo < hi"):
                integrate_semi_infinite(spec, lo)
        assert calls == []

    def test_bad_interval_and_tol(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0)
        with pytest.raises(ValueError):
            integrate(spec, 1.0, 0.0, 1e-11)
        with pytest.raises(ValueError):
            integrate(spec, 0.0, 1.0, 1e-14)

    def test_nan_tol_rejected_before_any_level(self):
        calls = []
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: calls.append(x) or 1.0)
        with pytest.raises(ValueError, match="tol"):
            integrate(spec, 0.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="tol"):
            integrate_semi_infinite(spec, 0.0, math.nan)
        assert calls == []

    def test_inf_tol_rejected_before_any_call(self):
        # tol=inf once returned this pi/4 23 % off, and the semi-infinite pi/2 18 % off
        calls = []
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: calls.append(x) or 1.0 / (1.0 + x * x))
        with pytest.raises(DomainError, match="quad_tol"):
            integrate(spec, 0.0, 1.0, math.inf)
        with pytest.raises(DomainError, match="quad_tol"):
            integrate_semi_infinite(spec, 0.0, math.inf)
        assert calls == []


class TestFiniteIntervals:
    def test_inverse_sqrt(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: x ** -0.5)
        result = integrate(spec, 0.0, 1.0, 1e-12)
        assert abs(result.value - 2.0) < 1e-12
        assert result.error_estimate < 1e-12

    @pytest.mark.parametrize("span", [1e-30, 1e-60, 1e-200])
    def test_panel_too_short_for_its_nodes(self, span):
        # below span = 1e-25 a node's distance to its own end can underflow to 0.0;
        # those nodes are dropped, and the arcsine integral over [0, span] is pi
        spec = IntegrandSpec(evaluator=lambda _x, d_lo, d_hi: d_lo ** -0.5 * d_hi ** -0.5)
        assert integrate(spec, 0.0, span, 1e-11).value == pytest.approx(math.pi, rel=1e-14)

    def test_cubic_radical(self):
        def g(x, _dl, dh):
            return 1.0 / math.sqrt(dh * (1.0 + x + x * x))

        spec = IntegrandSpec(evaluator=g)
        value = integrate(spec, 0.0, 1.0, 1e-12).value
        assert value == pytest.approx(CUBIC_BETA, rel=1e-12)
        closed = gamma(1 / 3) * gamma(0.5) / (3 * gamma(5 / 6))
        assert value == pytest.approx(closed.real, rel=1e-12)

    def test_split_complex_branch(self):
        # u**(-1/2) (1-2u)**(-3/4) with the argument-below convention:
        # for u past the split the base is crossed from above (arg +pi)
        phase = cmath.exp(-0.75j * math.pi)

        def g(u, d_lo, d_hi):
            mid = u + 0.5 * (d_hi - d_lo)
            if mid < 0.5:
                core = math.pow(2.0 * d_hi, -0.75)
                return math.pow(u, -0.5) * core
            return math.pow(u, -0.5) * math.pow(2.0 * d_lo, -0.75) * phase

        spec = IntegrandSpec(
            interior_singularities=(0.5,),
            evaluator=g,
        )
        value = integrate(spec, 0.0, 1.0, 1e-11).value
        want = (1 - 1j) * K12  # twice the catalog value of entry enu5-1
        assert value == pytest.approx(want, rel=1e-11)

    def test_nonfinite_sample_raises(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: math.nan)
        with pytest.raises(QuadratureError):
            integrate(spec, 0.0, 1.0, 1e-11)

    def test_singular_end_needs_the_distances(self):
        # (1 - x**3)**-0.5 from the distance to x = 1 meets 1e-11 within its
        # estimate; from x alone the nodes that round onto the end divide by zero
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, d_hi: (d_hi * (1.0 + x + x * x)) ** -0.5)
        result = integrate(spec, 0.0, 1.0, 1e-11)
        assert abs(result.value.real - CUBIC_BETA) <= result.error_estimate <= 1e-11 * CUBIC_BETA
        blind = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: (1.0 - x ** 3) ** -0.5)
        with pytest.raises(QuadratureError, match=re.escape("integrand on [0.0, 1.0] divided by zero") + ".*distances d_lo, d_hi"):
            integrate(blind, 0.0, 1.0, 1e-6)

    def test_plain_evaluator_smooth_at_split(self):
        # the nodes rounding onto the split cost a smooth integrand only the
        # band inside its nearest sample, not a fixed fraction of the panel
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0 / (1.0 + 25.0 * (x - 0.3) ** 2), interior_singularities=(0.5,))
        result = integrate(spec, 0.0, 1.0, 1e-11)
        want = (math.atan(3.5) + math.atan(1.5)) / 5.0
        assert abs(result.value - want) <= result.error_estimate <= 1e-11 * want

    def test_singular_split_needs_the_distances(self):
        def g(u, d_lo, d_hi):
            # |u - 1/2| is the distance to the split, at the panel's end nearest it
            return (d_hi if u + 0.5 * (d_hi - d_lo) < 0.5 else d_lo) ** -0.5

        spec = IntegrandSpec(evaluator=g, interior_singularities=(0.5,))
        result = integrate(spec, 0.0, 1.0, 1e-11)
        want = 2.0 * math.sqrt(2.0)
        assert abs(result.value - want) <= result.error_estimate <= 1e-11 * want
        blind = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: abs(x - 0.5) ** -0.5, interior_singularities=(0.5,))
        with pytest.raises(QuadratureError, match=re.escape("integrand on [0.0, 0.5] divided by zero") + ".*distances d_lo, d_hi"):
            integrate(blind, 0.0, 1.0, 1e-7)

    @pytest.mark.parametrize(
        "g",
        [
            lambda x, _d_lo, _d_hi: math.pow(1 - x, -0.5),   # integral 2
            lambda x, _d_lo, _d_hi: math.log(1 - x),         # integral -1
        ],
        ids=["pow", "log"],
    )
    def test_value_error_from_the_integrand_raises(self, g):
        # math.pow(0.0, -0.5) and math.log(0.0) raise ValueError at a node whose x rounds onto 1
        with pytest.raises(QuadratureError, match=re.escape("integrand on [0.0, 1.0] raised ValueError") + ".*distances d_lo, d_hi"):
            integrate(IntegrandSpec(evaluator=g), 0.0, 1.0, 1e-11)

    def test_library_errors_from_the_integrand_pass_through(self):
        def g(_x, _d_lo, _d_hi):
            raise DomainError("outside the domain")

        with pytest.raises(DomainError, match="outside the domain"):
            integrate(IntegrandSpec(evaluator=g), 0.0, 1.0, 1e-11)
        with pytest.raises(DomainError, match="outside the domain"):
            integrate_semi_infinite(IntegrandSpec(evaluator=g), 0.0, 1e-9)

    def test_plain_evaluator_fine_at_zero_endpoint(self):
        # the coordinate itself carries full relative precision near zero
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: x ** -0.75)
        result = integrate(spec, 0.0, 1.0, 1e-12)
        assert abs(result.value.real - 4.0) < 1e-12


class TestTruncation:
    """Each side of a panel is sampled out to where its terms stop mattering."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.floats(-0.95, 4.0, exclude_min=True), st.floats(-0.95, 4.0, exclude_min=True))
    def test_beta_integrals(self, alpha, beta):
        spec = IntegrandSpec(evaluator=lambda _u, d_lo, d_hi: d_lo ** alpha * d_hi ** beta)
        want = math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
        got = integrate(spec, 0.0, 1.0, 1e-11).value
        assert abs(got - want) <= 1e-10 * want

    def test_asymmetric_integrand_count_is_pinned(self):
        # u**-0.5 (1-u)**4 decays slowly towards 0 and fast towards 1; a run of
        # 12 small terms counted across both sides took 163 evaluations, and
        # stopping only once two levels agreed took 109
        spec = IntegrandSpec(evaluator=lambda _u, d_lo, d_hi: d_lo ** -0.5 * d_hi ** 4)
        result = integrate(spec, 0.0, 1.0, 1e-11)
        assert result.value == pytest.approx(256.0 / 315.0, rel=1e-13)
        assert result.evaluations == 59

    def test_tail_floor_scales_with_the_integral(self):
        # the terms of an integral of 1e-30 are weighed against its own size,
        # so no node that matters is cut
        c = 1e-30
        value = integrate(IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: c * math.exp(x)), 0.0, 1.0, 1e-11).value
        assert abs(value / c - (math.e - 1.0)) <= 1e-9

    def test_nan_at_one_node_names_it(self):
        seen = []
        integrate(IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: seen.append(x) or math.exp(x)), 0.0, 1.0, 1e-11)
        bad = seen[len(seen) // 2]   # a node of a finer level than the first
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: math.nan if x == bad else math.exp(x))
        with pytest.raises(QuadratureError, match=re.escape(f"non-finite integrand sample at x = {bad}")):
            integrate(spec, 0.0, 1.0, 1e-11)

    def test_integral_past_float_range_raises(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1e308)
        with pytest.raises(QuadratureError, match="exceeds the floating-point range"):
            integrate(spec, 0.0, 1.0, 1e-11)

    def test_overflowing_integrand_raises(self):
        def overflow(_x, _d_lo, _d_hi):
            return 2.0 ** 2000.0

        with pytest.raises(QuadratureError, match="exceeds the floating-point range"):
            integrate(IntegrandSpec(evaluator=overflow), 0.0, 1.0, 1e-11)


class TestStoppingRule:
    """A panel stops once d_L (d_L / d_{L-1}), d_L = |I_L - I_{L-1}|, is within tol of |I_L|."""

    def test_tiny_sharply_peaked_integral(self):
        # 1e-160 u**50 (1-u)**50 / B(51, 51): the level differences are about
        # 1e-170 and their squares underflow; formed as d*d/prev the estimate
        # came out 0 and the value 4e-9 off
        p, scale = 50, 1e-160
        log_beta = 2.0 * math.lgamma(p + 1.0) - math.lgamma(2.0 * p + 2.0)

        def g(_u, d_lo, d_hi):
            return scale * math.exp(p * (math.log(d_lo) + math.log(d_hi)) - log_beta)

        spec = IntegrandSpec(evaluator=g)
        result = integrate(spec, 0.0, 1.0, 1e-11)
        assert abs(result.value - scale) <= 1e-12 * scale
        assert 0.0 < result.error_estimate <= 1e-11 * scale

    @staticmethod
    def _opposed_peaks(delta):
        # -1/((u - 1/4)**2 + w**2) on [0, 1/2] and (1 + delta)/((u - 3/4)**2 + w**2)
        # on [1/2, 1]: the panels are -P and (1 + delta) P, with P = (2/w) atan(1/(4w))
        w = 0.2

        def g(u, d_lo, d_hi):
            if u + 0.5 * (d_hi - d_lo) < 0.5:   # the panel's midpoint
                return -1.0 / ((u - 0.25) ** 2 + w * w)
            return (1.0 + delta) / ((u - 0.75) ** 2 + w * w)

        spec = IntegrandSpec(evaluator=g, interior_singularities=(0.5,))
        return spec, delta * 2.0 / w * math.atan(0.25 / w)

    def test_cancelling_panels_are_integrated_again(self):
        tol = 1e-11
        spec, want = self._opposed_peaks(1e-3)
        result = integrate(spec, 0.0, 1.0, tol)
        assert abs(result.value - want) <= result.error_estimate <= tol * abs(result.value)
        # each panel alone, at the first pass's tolerance, took fewer evaluations
        first_pass = sum(integrate(spec, lo, hi, tol / 2).evaluations for lo, hi in ((0.0, 0.5), (0.5, 1.0)))
        assert result.evaluations > first_pass

    def test_cancellation_below_rounding_raises(self):
        spec, _ = self._opposed_peaks(1e-6)
        with pytest.raises(QuadratureError, match="did not converge"):
            integrate(spec, 0.0, 1.0, 1e-11)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.floats(-0.95, 4.0, exclude_min=True),
        st.floats(-0.95, 4.0, exclude_min=True),
        st.floats(-200.0, 200.0),
    )
    def test_error_estimate_bounds_scaled_beta_integrals(self, alpha, beta, log_scale):
        mpmath = pytest.importorskip("mpmath")
        s = 10.0 ** log_scale
        spec = IntegrandSpec(evaluator=lambda _u, d_lo, d_hi: s * d_lo ** alpha * d_hi ** beta)
        try:
            result = integrate(spec, 0.0, 1.0, 1e-11)
        except QuadratureError:
            return   # a sample of s * d**alpha left the float range
        with mpmath.workdps(30):
            want = mpmath.mpf(s) * mpmath.beta(mpmath.mpf(alpha) + 1, mpmath.mpf(beta) + 1)
            error = abs(mpmath.mpc(result.value) - want)
        assert error <= result.error_estimate <= 1e-11 * abs(result.value)


class TestSemiInfinite:
    def test_arctangent_tail(self):
        spec = IntegrandSpec(evaluator=lambda t, _d_lo, _d_hi: 1.0 / (1.0 + t * t))
        value = integrate_semi_infinite(spec, 0.0, 1e-11).value
        assert value == pytest.approx(math.pi / 2, rel=1e-11)

    def test_quartic_radical(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0 / math.hypot(1.0, x * x))
        value = integrate_semi_infinite(spec, 0.0, 1e-11).value
        assert value == pytest.approx(K12, rel=1e-10)
        assert value == pytest.approx(complete_k(1 / math.sqrt(2)), rel=1e-10)

    def test_shifted_cubic_radical(self):
        def g(x, dl, _dh):
            if x > 1e60:
                return 0.0
            return 1.0 / math.sqrt(x * dl * (x * x + x + 1.0))

        spec = IntegrandSpec(evaluator=g)
        value = integrate_semi_infinite(spec, 1.0, 1e-10).value
        assert value == pytest.approx(CUBIC_BETA, rel=1e-10)

    def test_interior_singularity_is_a_panel_end(self):
        # |t - 5|**(-1/2) / (1 + t**2) from the distance to the split at 5;
        # the split was once dropped, for a value 1.4 off with an estimate of 4e-15
        def g(t, d_lo, d_hi):
            return (d_hi if d_hi < math.inf else d_lo) ** -0.5 / (1 + t * t)

        result = integrate_semi_infinite(IntegrandSpec(g, (5.0,)), 0.0, 1e-9)
        want = 0.916672197546389   # mpmath.quad over [0, 5, inf]
        assert abs(result.value - want) <= 1e-9 * want
        assert abs(result.value - want) <= max(result.error_estimate, 1e-15 * want)

    def test_integrand_gets_its_t_panel_distances(self):
        seen = []

        def g(t, d_lo, d_hi):
            seen.append((t, d_lo, d_hi))
            return math.exp(-t)

        splits = (-1.0, 2.0, 3.0)   # the split below lo is not used
        value = integrate_semi_infinite(IntegrandSpec(g, splits), 1.0, 1e-11).value
        assert value == pytest.approx(math.exp(-1.0), rel=1e-11)
        nearest = math.inf
        for t, d_lo, d_hi in seen:
            # the panel's midpoint picks it, as t may have rounded onto a split
            mid = t + 0.5 * (d_hi - d_lo)
            lo, hi = (1.0, 2.0) if mid < 2.0 else (2.0, 3.0) if mid < 3.0 else (3.0, math.inf)
            # t carries a few ulps of rounding; the distances are to the exact splits
            assert abs(d_lo - (t - lo)) <= 4 * math.ulp(t), (t, d_lo, lo)
            if hi < math.inf:
                assert abs(d_hi - (hi - t)) <= 4 * math.ulp(hi), (t, d_hi, hi)
            else:
                assert d_hi == math.inf
            if 2.0 in (lo, hi):
                nearest = min(nearest, d_lo if lo == 2.0 else d_hi)
        assert nearest < 1e-20   # far below the ulp of t, so taken from the distances

    @pytest.mark.parametrize("p", [1.2, 1.1])
    def test_slow_algebraic_tail_reaches_tol(self, p):
        # (1 + t)**-p maps to u**(p - 2) at u = 0.  With the node floor at
        # u = 1e-40, p = 1.2 came back 1.0e-8 off with an estimate of 8.6e-10,
        # and p = 1.1 raised; the floor is now 1e-150, and the band below the
        # innermost sample is charged
        spec = IntegrandSpec(evaluator=lambda t, _d_lo, _d_hi: (1.0 + t) ** -p)
        result = integrate_semi_infinite(spec, 0.0, 1e-9)
        want = 1.0 / (p - 1.0)
        assert abs(result.value - want) <= 1e-12 * want
        assert result.error_estimate <= 1e-9 * want

    def test_tail_beyond_the_node_floor_is_charged(self):
        # (1 + t)**-1.05 keeps 3e-8 of its integral past t = 1e150, where no
        # sample is taken; the charge for that band fails the tolerance
        spec = IntegrandSpec(evaluator=lambda t, _d_lo, _d_hi: (1.0 + t) ** -1.05)
        with pytest.raises(QuadratureError, match="did not converge"):
            integrate_semi_infinite(spec, 0.0, 1e-9)

    def test_tail_growing_below_the_innermost_samples_raises(self):
        # past t = 1e6 the integrand decays only like t**-0.9, far too small
        # for any sample to move the sum, but its integral diverges
        def g(t, _d_lo, _d_hi):
            return 1.0 / (1.0 + t) ** 2 if t < 1e6 else 1e-30 * t ** -0.9

        with pytest.raises(QuadratureError, match="does not decay faster than 1/t"):
            integrate_semi_infinite(IntegrandSpec(evaluator=g), 0.0, 1e-9)

    def test_tail_whose_decay_stops_between_samples_raises(self):
        # past t = 1e70 the capped quartic radical is flat at 1e-140, so its
        # integral diverges; the two innermost mapped samples straddle the cap
        # and read u**-0.98, which alone came back K(1/sqrt2) with an estimate
        # of 4.4e-15, while the power further out is u**0
        def g(t, _d_lo, _d_hi):
            return 1.0 / math.sqrt(1.0 + min(t, 1e70) ** 4)

        with pytest.raises(QuadratureError, match="does not decay faster than 1/t"):
            integrate_semi_infinite(IntegrandSpec(evaluator=g), 0.0, 1e-11)

    def test_divergent_tail_detected(self):
        spec = IntegrandSpec(evaluator=lambda t, _d_lo, _d_hi: 1.0 / (1.0 + t))
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(spec, 0.0, 1e-9)

    def test_divergent_distance_form_tail_detected(self):
        # 1/(1 + t - lo) from the distance alone decays only like 1/t
        spec = IntegrandSpec(evaluator=lambda _t, d_lo, _d_hi: 1.0 / (1.0 + d_lo))
        with pytest.raises(QuadratureError, match="does not decay faster than 1/t"):
            integrate_semi_infinite(spec, 1.0, 1e-9)

    def test_divergence_probe_at_a_pole_raises(self):
        # the first probe, t = 100, lands on the pole of 1/(t - 100)**2
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1 / (x - 100.0) ** 2)
        with pytest.raises(QuadratureError, match=re.escape("divergence probes t = (100.0, 1000.0, 10000.0) raised ZeroDivisionError")):
            integrate_semi_infinite(spec, 0.0, 1e-9)


class TestAlgebraicProperties:
    def test_linearity(self):
        rng = random.Random(77)
        base = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: math.sqrt(x) * math.cos(3.0 * x))
        tol = 1e-11
        reference = integrate(base, 0.0, 1.0, tol).value
        for _ in range(50):
            c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            scaled = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi, c=c: c * math.sqrt(x) * math.cos(3.0 * x))
            got = integrate(scaled, 0.0, 1.0, tol).value
            assert abs(got - c * reference) <= 2 * tol * (1.0 + abs(c))

    def test_interval_additivity(self):
        spec = IntegrandSpec(evaluator=lambda x, _d_lo, _d_hi: 1.0 / (1.0 + x * x) + math.sin(x))
        tol = 1e-11
        whole = integrate(spec, 0.0, 2.0, tol).value
        for split in (0.3, 1.0, 1.7):
            parts = integrate(spec, 0.0, split, tol).value + integrate(spec, split, 2.0, tol).value
            assert abs(whole - parts) <= 2 * tol * (1.0 + abs(whole))

    def test_eulerian_families_against_closed_forms(self):
        # adjudicates the sign in the first family's closed form: -b, not +b
        assert props.run_eulerian_closed_forms() >= 50
