import cmath
import copy
import dataclasses
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lauricella import (
    BranchSide,
    DomainError,
    GammaPoleError,
    HyperSpec,
    QuadratureError,
    appell_f1,
    complete_k,
    eulerian_a,
    eulerian_b,
    fd_order_reduce,
    hyp2f1,
    hyp2f1_series,
    lauricella_fd,
    pfaff_f1,
    principal_pow,
    representation_formulas_check,
    unit_partition_roots,
    verify_all,
)
from lauricella import hyperfun, quadrature, reductions
from lauricella.core import DEFAULT_SIDE
from lauricella.reductions import check_all_reductions

import helpers_properties as props

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)
K12 = 1.8540746773013719
EQ2 = 0.9270373386506859 * (1 - 1j)


class TestGaussSeries:
    def test_at_zero(self):
        assert hyp2f1_series(0.7, 1.3, 2.1, 0.0) == 1.0

    def test_binomial_collapse(self):
        assert hyp2f1_series(2.0, 1.0, 1.0, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_arctangent_point(self):
        # oracle: 2F1(1, 1/2; 3/2 | -z^2) = arctan(z)/z at z = sqrt(1/2)
        z = math.sqrt(0.5)
        want = math.atan(z) / z
        assert hyp2f1_series(1.0, 0.5, 1.5, -0.5) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(0.8704197513671031, rel=1e-15)

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            hyp2f1_series(1.0, 1.0, 2.0, 0.95)

    @pytest.mark.parametrize("c", [-1.0, -2.0])
    def test_non_positive_integer_c_rejected(self, c):
        with pytest.raises(DomainError):
            hyp2f1_series(1.0, 1.0, c, 0.5)


class TestGaussContinuation:
    def test_kummer_point(self):
        assert hyp2f1(1.0, 0.5, 1.5, -1.0) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_argument_two_below(self):
        got = hyp2f1(0.5, 0.75, 1.5, 2.0, BranchSide.BELOW)
        assert got == pytest.approx(EQ2, rel=1e-12)
        assert got.imag < 0

    def test_argument_two_above_conjugates(self):
        below = hyp2f1(0.5, 0.75, 1.5, 2.0, BranchSide.BELOW)
        above = hyp2f1(0.5, 0.75, 1.5, 2.0, BranchSide.ABOVE)
        assert above == pytest.approx(below.conjugate(), rel=1e-12)

    def test_quadratic_pattern_instance(self):
        # parameters (2b-a, b; 2b) at (a, b) = (1, 3/4): the closed form is
        # (-i)**(1/2) sqrt(pi) Gamma(5/4)/(Gamma(1) Gamma(3/4))
        from lauricella import gamma, principal_pow

        got = hyp2f1(0.5, 0.75, 1.5, 2.0)
        want = (
            principal_pow(-1j, 0.5)
            * math.sqrt(math.pi)
            * gamma(1.25)
            / (gamma(1.0) * gamma(0.75))
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_argument_one_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.5, 1.0)

    def test_non_positive_integer_c_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1(1.0, 1.0, -1.0, 0.5)

    def test_euler_prefactor_past_gamma_range(self):
        # Gamma(172) overflows, but Gamma(172)/(Gamma(171.5) Gamma(1/2)) = 7.38...
        # does not
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        want = complex(mpmath.hyp2f1(171.5, 0.5, 172, mpmath.mpc(2, "-1e-25")))
        got = hyp2f1(171.5, 0.5, 172.0, 2.0)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_euler_prefactor_beyond_float_range_is_domain_error(self):
        # Gamma(1200)/(Gamma(600) Gamma(600)) is about 2**1200: a library error,
        # not a bare OverflowError
        with pytest.raises(DomainError, match="floating-point range"):
            hyp2f1(600.0, 0.5, 1200.0, 2.0)

    def test_large_parameters_value_or_library_error(self):
        # past Gamma's range the integral is often tiny, and a coarse one must
        # not be passed on to the scaled value
        import random

        from lauricella import GammaPoleError, QuadratureError

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = random.Random(11)
        for _ in range(80):
            a = rng.uniform(172.0, 500.0)
            c = a + rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 250.0)])
            b = rng.choice([0.5, 0.25, -0.5, 1.5])
            x = rng.choice([2.0, 1.2, 3.0, -1.5, 1.5 + 1j])
            try:
                got = hyp2f1(a, b, c, x)
            except (DomainError, GammaPoleError, QuadratureError):
                continue
            z = mpmath.mpc(x.real, "-1e-25") if x.imag == 0 else mpmath.mpc(x)
            want = complex(mpmath.hyp2f1(a, b, c, z))
            assert abs(got - want) <= 1e-9 * abs(want), (a, b, c, x)
        # the integral is about 3.7e-121; the quadrature's tolerance is relative to it
        want = complex(mpmath.hyp2f1(200, 0.5, 400, mpmath.mpc(2, "-1e-25")))
        assert abs(hyp2f1(200.0, 0.5, 400.0, 2.0) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("a, b, c, x", [(100, 0.25, 171, 1.5), (60, 0.5, 120, 3), (85, 0.5, 170, 3)])
    def test_large_parameters_on_the_euler_path(self, a, b, c, x):
        # integrals of 1e-36 ... 1e-52 once came back 1-7 % off under an
        # acceptance test that was absolute below 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x, "-1e-25")))
        assert abs(hyp2f1(a, b, c, x) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("side", list(BranchSide))
    @pytest.mark.parametrize("im", [-1e-20, 1e-20])
    def test_nonzero_imaginary_part_on_the_cut_band_picks_the_side(self, side, im):
        # 2 + im i lies within the band taken as on the cut; its sign decides
        want = EQ2 if im < 0 else EQ2.conjugate()
        assert hyp2f1(0.5, 0.75, 1.5, complex(2.0, im), side) == pytest.approx(want, rel=1e-12)

    def test_euler_prefactor_in_range_unchanged(self):
        # values whose Gammas are all finite keep the direct quotient, bit for bit
        from lauricella import gamma

        a, b, c, x = 170.5 + 0j, 0.5 + 0j, 171.0 + 0j, 2.0 + 0j
        spec = hyperfun._euler_integrand(a, [b], c, [x], BranchSide.BELOW)
        value = hyperfun.integrate(spec, 0.0, 1.0, hyperfun.DEFAULT_QUAD_TOL).value
        assert hyp2f1(a, b, c, x) == gamma(c) / (gamma(a) * gamma(c - a)) * value

    def test_parameter_order_fallback(self):
        # (1/2, 1; 2 | 2): only the swapped order gives an integrable split
        got = hyp2f1(0.5, 1.0, 2.0, 2.0)
        assert got == pytest.approx(1.0 - 1.0j, rel=1e-12)

    def test_series_integral_agreement_suite(self):
        assert props.run_series_integral_agreement() >= 50

    def test_complex_parameters_agree_across_paths(self):
        import random

        from lauricella.core import DEFAULT_SIDE
        from lauricella.hyperfun import _euler_fd

        rng = random.Random(11)
        for _ in range(20):
            a = complex(rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5))
            c = a + complex(rng.uniform(0.4, 1.5), rng.uniform(-0.3, 0.3))
            b = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.6, 0.6))
            x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            series = hyp2f1_series(a, b, c, x)
            euler = _euler_fd(a, [b], c, [x], DEFAULT_SIDE, 1e-12)
            assert abs(series - euler) <= 1e-11 * (1.0 + abs(series))

    def test_complex_b_on_cut(self):
        # frozen against a high-precision side-limit evaluation
        got = hyp2f1(0.5, complex(0.6, 0.3), 1.5, 2.0, BranchSide.BELOW)
        want = 1.5794661149447633 - 1.026065056007306j
        assert got == pytest.approx(want, rel=1e-12)

    def test_off_disk_against_mpmath(self):
        import random

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 25
        rng = random.Random(21)
        for _ in range(30):
            a = rng.uniform(0.3, 1.8)
            c = a + rng.uniform(0.4, 1.6)
            b = rng.uniform(0.2, 1.4)
            r = rng.uniform(1.1, 5.0)
            theta = rng.choice([1, -1]) * rng.uniform(0.15, math.pi - 0.15)
            x = r * cmath.exp(1j * theta)
            got = hyp2f1(a, b, c, x)
            want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x)))
            assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (a, b, c, x)

    def test_cut_side_limits_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        eps = mpmath.mpf("1e-20")
        for a, b, c, x in ((0.5, 0.75, 1.5, 2.0), (1.0, 0.5, 2.0, 3.5), (0.7, 0.4, 1.9, 1.5)):
            below = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x, -eps)))
            above = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x, eps)))
            assert hyp2f1(a, b, c, x, BranchSide.BELOW) == pytest.approx(below, rel=1e-11)
            assert hyp2f1(a, b, c, x, BranchSide.ABOVE) == pytest.approx(above, rel=1e-11)


class TestAppell:
    def test_at_origin(self):
        assert appell_f1(0.7, 0.4, 0.6, 1.9, 0.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_a(self):
        assert appell_f1(0.0, 1.0, 1.0, 2.0, 0.3, 0.4) == pytest.approx(1.0, rel=1e-14)

    def test_non_positive_integer_c_rejected(self):
        with pytest.raises(DomainError):
            appell_f1(1.0, 1.0, 1.0, -2.0, 0.5, 0.3)

    def test_negative_pair_value(self):
        got = appell_f1(2 / 3, 0.5, 0.5, 5 / 3, -2.0, -8.0)
        assert got == pytest.approx(0.46739403510848476, rel=1e-11)

    def test_quartic_k_value(self):
        got = appell_f1(0.25, 0.5, 0.5, 1.25, 1 / 3, 0.25)
        assert got == pytest.approx(K12 / S3, rel=1e-11)

    def test_symmetry_suite(self):
        assert props.run_symmetry() >= 50

    def test_against_mpmath_appellf1(self):
        import random

        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 25
        rng = random.Random(22)
        for _ in range(20):
            a = rng.uniform(0.3, 1.6)
            c = a + rng.uniform(0.4, 1.4)
            b1, b2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            x1 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5))
            x2 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5))
            got = appell_f1(a, b1, b2, c, x1, x2)
            want = complex(mpmath.appellf1(a, b1, b2, c, mpmath.mpc(x1), mpmath.mpc(x2)))
            assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (a, b1, b2, c, x1, x2)

    def test_degeneration_suite(self):
        assert props.run_degeneration() >= 50

    def test_conjugation_suite(self):
        assert props.run_conjugation() >= 50


class TestLauricella:
    def test_all_zero_arguments(self):
        spec = HyperSpec(1.0, (0.5, 0.5, 0.5), 2.0, (0.0, 0.0, 0.0))
        assert lauricella_fd(spec) == pytest.approx(1.0, rel=1e-12)

    def test_order_one_routes_to_gauss(self):
        spec = HyperSpec(1.0, (0.5,), 1.5, (-1.0,))
        assert lauricella_fd(spec) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_on_cut_order_three(self):
        spec = HyperSpec(1.0, (0.5,) * 3, 2.0, (1 - 1j, 2.0, 1 + 1j))
        got = lauricella_fd(spec, BranchSide.BELOW)
        want = (1 - 1j) / S2 * K12
        assert got == pytest.approx(want, rel=1e-11)
        above = lauricella_fd(spec, BranchSide.ABOVE)
        assert above == pytest.approx(want.conjugate(), rel=1e-11)

    def test_quartic_root_family_value(self):
        spec = HyperSpec(1.0, (0.5,) * 4, 2.0, tuple(unit_partition_roots(4)))
        assert lauricella_fd(spec) == pytest.approx(K12, rel=1e-11)

    def test_quintic_radical_value(self):
        s21 = math.sqrt(21.0)
        spec = HyperSpec(
            0.5, (0.5,) * 4, 1.5,
            ((3 * s21 - 17) / 25, (3 - s21) / 12, (s21 - 3) / 3, (11 - s21) / 25),
        )
        assert lauricella_fd(spec) == pytest.approx(1.1251503843770281, rel=1e-11)

    def test_argument_one_rejected(self):
        with pytest.raises(DomainError):
            lauricella_fd(HyperSpec(1.0, (0.5,) * 3, 2.0, (0.3, 1.0, 0.4)))

    def test_equal_cut_arguments_merge(self):
        # the two factors at x = 2 are one, (1 - 2u)**(-1/2): F1(1/2; 1/2, 1/4; 3/2 | 2 - i0, 1/2)
        got = lauricella_fd(HyperSpec(0.5, (0.25,) * 3, 1.5, (2.0, 2.0, 0.5)))
        want = 1.150273935889876 - 0.689047987259899j  # mpmath.appellf1 at x1 = 2 - 1e-25 i
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_equal_cut_arguments_non_integrable(self):
        # each Re b is below 1, their sum 1.2 at the shared split is not
        with pytest.raises(DomainError):
            lauricella_fd(HyperSpec(0.5, (0.6, 0.6, 0.25), 1.5, (2.0, 2.0, 0.5)))

    def test_collapse_suite(self):
        assert props.run_collapse() >= 50

    def test_refused_order_three_takes_no_integral_and_no_pfaff_factor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused point reached the integral or a Pfaff factor")

        monkeypatch.setattr(hyperfun, "integrate", refuse)
        monkeypatch.setattr(hyperfun, "principal_pow", refuse)
        # c <= a, and a Pfaff transformation cannot change that
        with pytest.raises(DomainError, match=r"Re c > Re a > 0 and.*Re b < 1"):
            lauricella_fd(HyperSpec(2.0, (0.5,) * 3, 1.5, (5.0, -2.0, 3.0)))


class TestHyperSpec:
    """A frozen value: coerced and checked on construction, compared by its fields."""

    def test_fields_are_read_only(self):
        spec = HyperSpec(0.5, (0.2,), 1.5, (0.3,))
        with pytest.raises(AttributeError):
            spec.a = 1.0
        with pytest.raises(AttributeError):
            spec.extra = 1.0
        with pytest.raises(AttributeError):
            del spec.xs
        assert spec.a == 0.5

    def test_equality_and_hash_follow_the_fields(self):
        spec = HyperSpec(0.5, [0.2, 0.3], 1.5, (0.1, -0.2))
        same = HyperSpec(0.5 + 0j, (0.2, 0.3), 1.5, [0.1, -0.2 + 0j])
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, same}) == 1
        assert spec != HyperSpec(0.5, (0.2, 0.3), 1.5, (0.1, -0.3))
        assert spec != (spec.a, spec.bs, spec.c, spec.xs)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert copy.deepcopy(spec) == spec

    def test_repr_lists_the_fields(self):
        spec = HyperSpec(0.5, (0.2,), 1.5, (0.3,))
        assert repr(spec) == "HyperSpec(a=(0.5+0j), bs=((0.2+0j),), c=(1.5+0j), xs=((0.3+0j),))"

    def test_parameters_are_coerced_to_complex(self):
        spec = HyperSpec(1, [2, 3.5], 4, iter([0.5, 1j]))
        assert [type(v) for v in (spec.a, *spec.bs, spec.c, *spec.xs)] == [complex] * 6
        assert (spec.a, spec.bs, spec.c, spec.xs) == (1, (2, 3.5), 4, (0.5, 1j))
        assert type(spec.bs) is tuple and type(spec.xs) is tuple
        assert spec.order == 2

    @pytest.mark.parametrize("a, bs, c, xs", [
        (0.5, (0.2, 0.3), 1.5, (0.1,)),          # unequal lengths
        (0.5, (), 1.5, ()),                      # no (b, x) pair
        (0.5, (0.2,), -2.0, (0.1,)),             # c at a pole
        (0.5, (0.2,), 1.5, (math.nan,)),         # non-finite
    ])
    def test_invalid_parameters_raise(self, a, bs, c, xs):
        with pytest.raises(DomainError):
            HyperSpec(a, bs, c, xs)


class TestTransformations:
    def test_pfaff_identity_at_origin(self):
        spec, pref = pfaff_f1(0.7, 0.4, 0.6, 1.9, 0.0, 0.0)
        assert spec.xs == (0.0, 0.0)
        assert pref == pytest.approx(1.0, rel=1e-15)
        assert spec.a == pytest.approx(1.9 - 0.7)

    def test_pfaff_on_cube_roots(self):
        w = cmath.exp(2j * math.pi / 3)
        spec, pref = pfaff_f1(1.0, 0.5, 0.5, 1.5, w, w.conjugate())
        assert spec.xs[0] == pytest.approx((1 - 1j / S3) / 2, abs=1e-14)
        assert spec.xs[1] == pytest.approx((1 + 1j / S3) / 2, abs=1e-14)
        assert pref == pytest.approx(3.0 ** -0.5, rel=1e-13)

    def test_pfaff_minus_one(self):
        spec, pref = pfaff_f1(1.0, 0.5, 0.5, 1.5, -1.0, -1.0)
        assert spec.xs == (0.5, 0.5)
        assert pref == pytest.approx(0.5, rel=1e-14)

    def test_pfaff_pole(self):
        with pytest.raises(DomainError):
            pfaff_f1(1.0, 0.5, 0.5, 1.5, 1.0, 0.3)

    def test_order_reduce_zero_last_argument(self):
        spec = HyperSpec(0.8, (0.5, 0.7, 0.3), 1.5, (0.2, 0.1, 0.0))
        reduced, pref = fd_order_reduce(spec)
        assert reduced.xs == (0.2, 0.1)
        assert pref == pytest.approx(1.0, rel=1e-15)

    def test_order_reduce_quartic_family(self):
        spec = HyperSpec(1.0, (0.5,) * 4, 2.0, tuple(unit_partition_roots(4)))
        reduced, pref = fd_order_reduce(spec)
        want = {1 - 1j, 2.0 + 0j, 1 + 1j}
        for x in reduced.xs:
            assert min(abs(x - w) for w in want) < 1e-13
        # FD(full) = pref * FD(reduced): the factor is (1 - x4)**(-1)
        x4 = spec.xs[-1]
        assert pref == pytest.approx(1.0 / (1.0 - x4), rel=1e-13)

    def test_order_reduce_requires_matching_c(self):
        with pytest.raises(DomainError):
            fd_order_reduce(HyperSpec(1.0, (0.5, 0.5), 1.5, (0.2, 0.1)))

    def test_order_reduce_needs_two_arguments(self):
        with pytest.raises(DomainError, match="needs at least two arguments"):
            fd_order_reduce(HyperSpec(1.0, (0.5,), 0.5, (0.2,)))

    def test_order_reduce_cannot_eliminate_one(self):
        # c = sum(bs), but the last argument is 1, where (1 - x_n)**(-a) has its pole
        with pytest.raises(DomainError, match="cannot eliminate an argument equal to 1"):
            fd_order_reduce(HyperSpec(1.0, (0.5, 0.5), 1.0, (0.2, 1.0)))

    def test_pfaff_and_order_reduction_suite(self):
        assert props.run_pfaff_and_order_reduction() >= 50


class TestEulerianClosedForms:
    def test_elementary_value(self):
        assert eulerian_a(2, 1.0, 0.5) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_quartic_b(self):
        got = eulerian_b(4, 1.0, 0.5)
        assert got == pytest.approx(K12, rel=1e-13)
        assert got == pytest.approx(complete_k(1 / S2), rel=1e-13)

    def test_octic_a(self):
        want = math.pi / 8 * S2 / complete_k(S2 - 1.0)
        got = eulerian_a(8, 5.0, 0.5)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.3374884744129745, rel=1e-13)

    @pytest.mark.parametrize("closed_form, n, a, b, want", [
        # mpmath at 30 digits; Gamma(200), Gamma(172.25), Gamma(179.5) and Gamma(200) overflow
        (eulerian_a, 1, 200, 0.5, 0.12540977026737816),
        (eulerian_a, 2, 400, 0.5, 0.06270488513368908),
        (eulerian_a, 1, 171.5, 0.25, 0.025871582394479649),
        (eulerian_b, 1, 150, 200, 5.87554796028826e-50),
        (eulerian_b, 4, 2, 180, 0.033096734924472774),
    ])
    def test_gammas_past_float_range(self, closed_form, n, a, b, want):
        assert abs(closed_form(n, a, b) - want) <= 1e-12 * want

    def test_domains(self):
        with pytest.raises(DomainError):
            eulerian_a(3, -1.0, 0.5)
        for n in (0, -2, math.nan):
            with pytest.raises(DomainError, match="need n > 0"):
                eulerian_a(n, 1.0, 0.5)
        # the closed form holds for any n > 0: int_0^1 (1 - sqrt(t))**(-1/2) dt = 8/3
        assert eulerian_a(0.5, 1.0, 0.5) == pytest.approx(8.0 / 3.0, rel=1e-14)
        with pytest.raises(DomainError):
            eulerian_b(2, 3.0, 0.5)


# ---------------------------------------------------------------------------
# the total-degree F1 series against the row-by-row double sum

def _row_sum_f1(a, b1, b2, c, x1, x2):
    """sum_m1 (a)_m1 (b1)_m1 / ((c)_m1 m1!) x1**m1 2F1(a+m1, b2; c+m1 | x2), row by row.

    Returns the value and the sum of the magnitudes of all its terms, the
    scale of the rounding error of either way of summing.
    """
    total, scale = 0j, 0.0
    row = complex(1.0)
    small = 0
    for m1 in range(2000):
        inner = term = complex(1.0)
        inner_scale = 1.0
        inner_small = 0
        for m2 in range(100_000):
            term = term * (a + m1 + m2) * (b2 + m2) / ((c + m1 + m2) * (1 + m2)) * x2
            inner += term
            inner_scale += abs(term)
            if abs(term) < 1e-16 * abs(inner):
                inner_small += 1
                if inner_small >= 2:
                    break
            else:
                inner_small = 0
        contribution = row * inner
        total += contribution
        scale += abs(row) * inner_scale
        if abs(contribution) < 1e-16 * abs(total):
            small += 1
            if small >= 2:
                return total, scale
        else:
            small = 0
        row = row * (a + m1) * (b1 + m1) / ((c + m1) * (1 + m1)) * x1
    raise AssertionError("reference row sum did not converge")


_F1_KINDS = ("generic", "b_zero", "b_non_positive_int", "b_tiny", "opposite", "equal", "terminating")


@st.composite
def _f1_series_cases(draw):
    kind = draw(st.sampled_from(_F1_KINDS))
    complex_params = draw(st.booleans())

    def param(lo, hi):
        return complex(draw(st.floats(lo, hi)), draw(st.floats(-1.0, 1.0)) if complex_params else 0.0)

    def argument(radius):
        theta = draw(st.one_of(st.floats(-math.pi, math.pi), st.sampled_from((0.0, math.pi))))
        return radius * cmath.exp(1j * theta)

    a, b1, b2, c = param(-4.0, 4.0), param(-3.0, 3.0), param(-3.0, 3.0), param(0.3, 4.0)
    r1 = draw(st.floats(0.0, 0.8))
    x1, x2 = argument(r1), argument(draw(st.floats(0.0, 0.8)))
    if kind in ("b_zero", "b_non_positive_int", "b_tiny"):
        # with this b1, p_n is the recessive solution of the recurrence when x1 is
        # the larger argument: p_n has no x1**n growth, the other solution has
        b1 = {"b_zero": 0j, "b_non_positive_int": complex(draw(st.integers(-3, 0))), "b_tiny": 1e-9 + 0j}[kind]
        if draw(st.booleans()):
            x2 = argument(r1 * draw(st.floats(0.0, 0.99)))
    elif kind == "opposite":
        x2 = -x1
        if draw(st.booleans()):
            b2 = b1  # p_n = 0 at every odd n
    elif kind == "equal":
        x2 = x1
    elif kind == "terminating":
        a = complex(draw(st.sampled_from((0, -1, -2))))
    if draw(st.booleans()):
        b1, b2, x1, x2 = b2, b1, x2, x1
    return a, b1, b2, c, x1, x2


# (a, b1, b2, c, x1, x2, F1) with max |x| in [0.85, 0.9]: the value is
# mpmath.appellf1 at 30 digits, frozen because mpmath itself sums a slow double
# series there (up to seconds per point)
_F1_EDGE_POINTS = [
    (0.5, 0.5, 0.5, 1.5, 0.89, 0.89, (1.8741562839645822+0j)),
    (-1.939, -0.321, 0.552, 0.692, 0.898, 0.063, (1.5585527116742692+0j)),
    (1.558, 1.445, -1.401, 0.763, (-0.101-0.847j), (0.65+0.107j), (-0.41461058099174863+0.2243428498063263j)),
    (-0.975, -1.146, 0.811, 1.942, -0.867, -0.529, (0.717171955756066+0j)),
    (-0.04, -0.76, 0.672, 1.952, (0.454+0.743j), (-0.051-0.017j), (1.0074369436679684+0.012032686087163999j)),
    (-1.101, -1.057, 0.888, 0.75, -0.852, 0.423, (-0.8231490813918129+0j)),
    (2.342, -0.845, 0.89, 2.093, (-0.307-0.832j), (-0.111-0.566j), (1.2077091465702796+0.06981544603912872j)),
    (-1.793, -0.497, -0.312, 1.274, -0.898, 0.858, (0.6010407163330559+0j)),
    (2.968, -0.581, -0.971, 2.454, (0.845+0.25j), (-0.505-0.337j), (0.5904704136314783-0.4629113297255821j)),
    (-1.036, 0.304, 0.586, 2.795, 0.883, -0.387, (0.9852060552091804+0j)),
    (-0.472, 1.155, -1.158, 2.582, (0.433-0.743j), (-0.346-0.109j), (0.8488253849962649+0.16265938404152985j)),
    (1.57, 1.119, 0.411, 1.096, 0.86, -0.608, (18.778094217106176+0j)),
    (2.951, -1.326, 0.335, 0.795, (-0.56+0.673j), (0.882-0.054j), (2.7285040469642414-127.95955987941501j)),
    (0.953, -0.044, 0.892, 2.622, -0.899, 0.482, (1.2277128033111218+0j)),
    (-0.726, 1.455, -0.454, 2.39, (0.602-0.601j), (-0.114-0.227j), (0.724418193745515+0.27040496999009933j)),
    (-1.775, 1.096, -1.35, 0.725, 0.889, 0.804, (1.2789866396336047+0j)),
    (2.333, 0.163, 0.176, 2.192, (0.22+0.848j), (-0.065-0.448j), (0.9447615343150348+0.06458128460453764j)),
    (-1.027, -0.575, 0.958, 1.998, -0.857, -0.678, (1.0806824440829004+0j)),
    (1.916, 1.328, 0.57, 2.337, (-0.442-0.76j), (-0.564-0.521j), (0.3596230369036911-0.2947168721521545j)),
    (0.124, -0.358, -0.578, 0.766, -0.895, -0.347, (1.0812230324947134+0j)),
]


class TestAppellSeries:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_f1_series_cases())
    def test_total_degree_sum_matches_row_sum(self, case):
        got = hyperfun._appell_series(*case)
        want, scale = _row_sum_f1(*case)
        assert abs(got - want) <= 1e-12 * scale, (got, want, scale)

    @pytest.mark.parametrize("point", _F1_EDGE_POINTS)
    def test_against_mpmath_near_the_polydisk_edge(self, point):
        *args, want = point
        got = appell_f1(*args)
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


# ---------------------------------------------------------------------------
# the series kernels' arithmetic paths

def _reference_real_gauss_sum(a, b, c, x):
    """The float Gauss loop with its bound, as summed before the running-sum pre-test.

    `hyperfun._gauss_sum` must return the same (value, bound) bits for real
    parameters and argument.
    """
    total = term = 1.0
    peak = 1.0
    last_small = -2
    for k in map(float, range(100_000)):
        term = term * (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        total += term
        size = abs(term)
        if size < 1e-16 * abs(total):
            if last_small == k - 1:
                n = k + 1.0
                if size == 0.0:
                    return complex(total), sys.float_info.epsilon * peak * (n + 1.0)
                if n > -c:
                    num_lo, num_hi = sorted((abs(a), abs(b)))
                    den_lo, den_hi = (c, 1.0) if c < 1.0 else (1.0, c)
                    g = (n + num_lo) / (n + den_lo)
                    h = (n + num_hi) / (n + den_hi)
                    r = abs(x)
                    rho = 0.5 + 0.5 * r
                    if r * (g if g > 1.0 else 1.0) * (h if h > 1.0 else 1.0) <= rho:
                        bound = sys.float_info.epsilon * peak * (n + 1.0) + size * rho / (1.0 - rho)
                        return complex(total), bound
            last_small = k
        elif size > peak:
            peak = size
    raise AssertionError("reference Gauss loop did not converge")


# (a, b1, b2, c, x1, x2, F1) on a seeded box with max |x| in [0.8, 0.9]: real,
# real-a-and-c and complex parameters, x2 = -x1 with equal and unequal b, and
# the slowest point of the eval-disk benchmark first.  mpmath.appellf1 at 30
# digits, frozen because it takes up to seconds per point there.
_F1_BOX_POINTS = [
    (0.5, 0.5, 0.5, 1.5, 0.89, 0.89, (1.8741562839645822+0j)),
    (2.344, -1.465, 0.708, 0.895, 0.899, 0.049, (-0.41625910123269644+0j)),
    (2.499, -0.486, -0.781, 2.27, (-0.21-0.745j), 0.828, (0.19539258850156305+0.06440832543758948j)),
    (-0.59, 0.68, -0.583, 1.551, (-0.12+0.377j), (0.856-0.056j), (1.228412460389749-0.0994447536422105j)),
    (-0.582, 0.582, -0.148, 2.442, 0.881, (0.169+0.036j), (0.869801545551593+0.0014072044297177857j)),
    ((1.532+0.451j), -1.448, 1.032, (1.825+0.843j), (-0.288-0.144j), (-0.634+0.512j), (0.8220951345483063+0.35540380113598763j)),
    (2.152, -0.803, 0.131, 1.75, 0.808, -0.808, (0.060224500214511714+0j)),
    (-0.568, 1.214, 1.214, 1.604, (0.231-0.774j), (-0.231+0.774j), (1.0360649478169157+0.020578404292268856j)),
    (-1.481, -0.023, -0.372, 2.6, (0.207-0.869j), (-0.029+0.023j), (0.997206087345317-0.00621237678860599j)),
    (-1.287, -0.0, -0.057, 2.941, 0.804, 0.382, (1.0093985843345388+0j)),
    (0.08, 0.833, 0.833, 2.231, -0.826, 0.826, (1.0086556101959872+0j)),
    (1.392, -0.199, 1.006, 0.64, (-0.481-0.095j), (0.842-0.299j), (-4.021333815095974-9.305699822060046j)),
    ((1.911+0.025j), 1.181, -0.345, (2.787-0.35j), (0.216-0.001j), (-0.862-0.015j), (1.4174781053570364+0.06609950815796568j)),
    (0.641, -0.024, -1.492, 1.388, (-0.505+0.649j), (0.505-0.649j), (0.6283203440080467+0.3699279974448451j)),
]


class TestSeriesKernels:
    @pytest.mark.parametrize("function, args, want", [
        # mpmath values.  Disk 2F1, summed at x itself
        (hyp2f1, (1.5, -0.75, 2.25, 0.5 + 0.6j), 0.7645934468503459 - 0.3300368365224447j),
        # F1 edge point, max |x| = 0.856
        (appell_f1, (1.7, 0.6, -1.1, 2.4, -0.85 + 0.1j, 0.3 - 0.5j), 0.5752277700105812 + 0.29470152460013666j),
        # 2F1 by its 1/x connection formula at complex x
        (hyp2f1, (1.3, 2.6, 3.1, 3 + 4j), -0.15751307230049444 + 0.12839376956252377j),
        # the connection formula's float log-Gamma algebra at real parameters: the seed-1
        # eval-continuation median point, on the cut from each side, and a 1/(1-x) point
        (hyp2f1, (0.5638805328671993, 0.10486791648564076, 2.1408644574343536, 3.339429154139169, BranchSide.ABOVE),
         1.0520333409001639 + 0.12580953177433882j),
        (hyp2f1, (0.5638805328671993, 0.10486791648564076, 2.1408644574343536, 3.339429154139169, BranchSide.BELOW),
         1.0520333409001639 - 0.12580953177433882j),
        (hyp2f1, (1.7, 0.45, 2.2, -25), 0.2710418723805714),
        # complex parameters, summed at the Pfaff image |x/(x-1)| = 0.87 for x = -6+2i, and by
        # the 1/x formula for x = 3+4i
        (hyp2f1, (0.7 + 0.3j, 1.2 - 0.5j, 2.9 + 0.1j, -6 + 2j), 0.39374468509743804 + 0.04824232284500985j),
        (hyp2f1, (0.7 + 0.3j, 1.2 - 0.5j, 2.9 + 0.1j, 3 + 4j), 0.26290255000647494 + 0.5800424289984832j),
    ])
    def test_values_against_mpmath(self, function, args, want):
        got = function(*args)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_real_gauss_sum_is_bit_identical_to_the_reference_loop(self):
        rng = random.Random(2)
        for i in range(600):
            a, b, c = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0), rng.uniform(0.05, 6.0)
            if i % 3 == 1:
                a = -float(rng.randint(0, 15))   # terminating
            elif i % 3 == 2:
                c = -rng.uniform(0.05, 9.0)      # negative, not an integer
            x = rng.uniform(-0.9, 0.9)
            total, bound = hyperfun._gauss_sum(complex(a), complex(b), complex(c), complex(x))
            want, want_bound = _reference_real_gauss_sum(a, b, c, x)
            assert (total.real, total.imag, bound) == (want.real, want.imag, want_bound), (a, b, c, x)

    # 300 draws, about 0.5 s
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.3, 5.0),
        st.floats(0.0, 0.9), st.floats(-math.pi, math.pi),
    )
    def test_real_parameter_sum_at_complex_x_lies_within_its_bound(self, a, b, c, r, theta):
        mpmath = pytest.importorskip("mpmath")
        x = cmath.rect(r, theta)
        total, bound = hyperfun._gauss_sum(complex(a), complex(b), complex(c), x)
        with mpmath.workdps(30):
            want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x)))
        assert abs(total - want) <= bound, (total, want, bound)

    @pytest.mark.parametrize("point", _F1_BOX_POINTS)
    def test_appell_series_against_mpmath(self, point):
        *args, want = point
        got = hyperfun._appell_series(*map(complex, args))
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


# ---------------------------------------------------------------------------
# the per-panel Euler integrand against an independent product of powers

_B = st.floats(-1.5, 1.5)
_FACTOR_KINDS = (
    "real", "complex", "pair", "pair_unequal_b", "pair_complex_b", "near_pair", "cut", "cut_complex_b",
)


@st.composite
def _euler_cases(draw):
    complex_ac = draw(st.booleans())
    a = complex(draw(st.floats(0.2, 2.5)), draw(st.floats(-0.8, 0.8)) if complex_ac else 0.0)
    c = a + complex(draw(st.floats(0.2, 2.5)), draw(st.floats(-0.8, 0.8)) if complex_ac else 0.0)
    kinds = draw(st.lists(st.sampled_from(_FACTOR_KINDS), min_size=1, max_size=4))
    cut_xs = iter(draw(st.lists(st.floats(1.05, 8.0), min_size=len(kinds), max_size=len(kinds),
                                unique_by=lambda x: 1.0 / x)))
    bs: list[complex] = []
    xs: list[complex] = []
    for kind in kinds:
        b = complex(draw(_B))
        b_im = complex(0.0, draw(st.floats(0.05, 0.8)))
        x = complex(draw(st.floats(-4.0, 4.0)), draw(st.floats(0.05, 3.0)) * draw(st.sampled_from((1, -1))))
        if kind == "real":
            xs.append(complex(draw(st.floats(-5.0, 0.95))))
            bs.append(b)
        elif kind == "complex":
            bs.append(b + b_im if draw(st.booleans()) else b)
            xs.append(x)
        elif kind.startswith("pair"):
            b2 = {"pair": b, "pair_unequal_b": b + 0.25, "pair_complex_b": b + b_im}[kind]
            if kind == "pair_complex_b":
                b = b2
            bs += [b, b2]
            xs += [x, x.conjugate()]
        elif kind == "near_pair":
            bs += [b, b]
            xs += [x, complex(x.real, math.nextafter(-x.imag, 0.0))]
        else:
            bs.append(b + b_im if kind == "cut_complex_b" else b)
            xs.append(complex(next(cut_xs)))
    side = draw(st.sampled_from(list(BranchSide)))
    splits = sorted(1.0 / x.real for x in xs if x.imag == 0.0 and x.real > 1.0)
    boundaries = [0.0] + splits + [1.0]
    panel = draw(st.integers(0, len(boundaries) - 2))
    lo, hi = boundaries[panel], boundaries[panel + 1]
    span = hi - lo
    where = draw(st.sampled_from(("inside", "at_lo", "at_hi")))
    if where == "inside":
        d_lo = span * draw(st.floats(0.01, 0.99))
        d_hi, u = span - d_lo, lo + d_lo
    elif where == "at_lo":
        # the coordinate rounds onto the panel end; only d_lo is exact
        d_lo = span * 10.0 ** -draw(st.integers(17, 30))
        d_hi, u = span - d_lo, lo + d_lo
    else:
        d_hi = span * 10.0 ** -draw(st.integers(17, 30))
        d_lo, u = span - d_hi, hi - d_hi
    real = not complex_ac and set(kinds) <= {"real", "pair", "cut"}
    return a, bs, c, xs, side, tuple(splits), (lo, hi, u, d_lo, d_hi), real


def _reference_integrand(a, bs, c, xs, side, lo, hi, u, d_lo, d_hi):
    """u**(a-1) (1-u)**(c-a-1) prod (1-x u)**(-b), factor by factor."""
    value = principal_pow(d_lo if lo == 0.0 else u, a - 1.0)
    value *= principal_pow(d_hi if hi == 1.0 else 1.0 - u, c - a - 1.0)
    for b, x in zip(bs, xs):
        if x.imag == 0.0 and x.real > 1.0:
            split = 1.0 / x.real
            if split == hi:
                base = x.real * d_hi
            elif split == lo:
                base = -x.real * d_lo
            else:
                base = 1.0 - x.real * u
            value *= principal_pow(abs(base), -b)
            if base < 0.0:
                # past the split: the side limit puts arg(1 - x u) at +pi below, -pi above
                value *= cmath.exp(1j * (math.pi if side is BranchSide.BELOW else -math.pi) * -b)
        else:
            value *= principal_pow(1.0 - x * u, -b)
    return value


class TestEulerIntegrand:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_euler_cases())
    def test_panel_closures_match_reference_product(self, case):
        a, bs, c, xs, side, splits, (lo, hi, u, d_lo, d_hi), real = case
        spec = hyperfun._euler_integrand(a, bs, c, xs, side)
        assert spec.interior_singularities == splits
        want = _reference_integrand(a, bs, c, xs, side, lo, hi, u, d_lo, d_hi)
        got = spec.evaluator(u, d_lo, d_hi)
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)
        if real and lo == 0.0:
            assert isinstance(got, float)  # the real path, on a panel with no phase

    def test_an_argument_on_the_cut_past_1e49(self):
        # the panel [0, 1e-60] is too short for the nodes nearest its ends, which the
        # quadrature drops; a 65-digit mpmath quadrature gives
        # 0.004553632077576880165 - 0.0006778370638625042006i
        got = appell_f1(1.184402046589918, 0.04703705906259942, -0.4657980153873606, 2.0654644678552105,
                        1e60, -17.65729136464099, BranchSide.BELOW)
        assert repr(got) == "(0.004553632077576878-0.0006778370638625041j)"
        want = 0.004553632077576880165 - 0.0006778370638625042006j
        assert abs(got - want) <= 1e-15 * abs(want)


def _float_kernel_points():
    """Seeded F1/FD points with real a, b and c and arguments off the real axis, as (kind, point).

    Kinds: arguments with no conjugate, conjugate pairs with equal and with
    unequal b, and arguments off the axis mixed with splits on the cut.  The
    sides alternate, so each kind is taken from above and from below.
    """
    from inputs import point

    rng = random.Random(25)

    def off_axis():
        return cmath.rect(rng.uniform(0.3, 6.0), rng.uniform(0.15, math.pi - 0.15) * rng.choice((1, -1)))

    out = []
    for i, kind in enumerate(("unpaired", "unpaired", "pair", "pair_unequal_b", "cut_mix", "cut_mix") * 2):
        order = 2 + i // 6
        a = rng.uniform(0.2, 2.0)
        c = a + rng.uniform(0.3, 2.0)
        bs = [rng.uniform(-0.9, 1.5) for _ in range(order)]
        xs = [off_axis() for _ in range(order)]
        if kind.startswith("pair"):
            xs[1] = xs[0].conjugate()
            bs[1] = bs[0] if kind == "pair" else bs[0] + 0.25
        elif kind == "cut_mix":
            # one split per argument on the cut, each integrable (b < 1)
            xs[1:] = [complex(rng.uniform(1.2, 6.0)) for _ in range(order - 1)]
            bs[1:] = [rng.uniform(-0.9, 0.9) for _ in range(order - 1)]
        out.append((kind, point(kind, a, bs, c, xs, ("above", "below")[i % 2])))
    return out


class TestFloatKernel:
    """The Euler integrand of real a, b and c in float arithmetic, against the benchmark's mpmath oracle."""

    @pytest.fixture
    def oracle(self, monkeypatch):
        import os

        pytest.importorskip("mpmath")
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
        import oracle  # perfbench/oracle.py, used as it is

        return oracle

    def test_values_match_the_oracle(self, oracle):
        kinds = set()
        for kind, p in _float_kernel_points():
            side = BranchSide(p.side)
            spec = hyperfun._euler_integrand(p.a, p.bs, p.c, p.xs, side)
            assert spec.evaluator.__qualname__.startswith("_real_panel."), (kind, p)
            want = oracle.reference(p)
            try:
                got = hyperfun._euler_fd(p.a, p.bs, p.c, p.xs, side, 1e-13)
            except (DomainError, QuadratureError):
                continue
            assert abs(got - want) <= 1e-12 * abs(want), (kind, p, got, want)
            kinds.add(kind)
        assert kinds == {"unpaired", "pair", "pair_unequal_b", "cut_mix"}

    def test_an_argument_past_the_square_range_takes_the_complex_logarithm(self):
        # |1 - x u|**2 would overflow: the argument goes to the complex kernel, pair or not
        for bs, xs in (((0.1, 0.2), (1e200j, -0.5)), ((0.1, 0.1), (1e200j, -1e200j))):
            spec = hyperfun._euler_integrand(0.5, [complex(b) for b in bs], 1.5, [complex(x) for x in xs], DEFAULT_SIDE)
            assert spec.evaluator.__qualname__.startswith("_complex_panel.")
        # mpmath at 30 digits; for the pair 0.5 X**-0.2 / 0.3 to ~1e-40 relative
        assert appell_f1(0.5, 0.1, 0.2, 1.5, 1e200j, -0.5) == pytest.approx(
            1.2042808082888027659e-20 + 1.9073934181440222538e-21j, rel=1e-12)
        assert appell_f1(0.5, 0.1, 0.1, 1.5, 1e200j, -1e200j) == pytest.approx(1e-40 / 0.6, rel=1e-12)

    @pytest.mark.parametrize("evaluate, want", [
        # Euler values with no unpaired complex argument, frozen bit for bit before the float kernel
        (lambda: appell_f1(0.5, 0.3, 0.4, 1.5, -20.0, -30.0), "(0.3635758121052847+0j)"),
        (lambda: appell_f1(0.5, 0.3, 0.4, 1.5, 2.0, 5.0, BranchSide.BELOW),     # three panels
         "(0.6566236769025316-0.7917669639226539j)"),
        (lambda: appell_f1(1.25, -0.6, 0.7, 2.0, 4.0, -0.5, BranchSide.ABOVE),  # two panels
         "(-0.2186262599302249-0.897966029981226j)"),
        (lambda: hyp2f1(0.5, 0.5, 1.5, 2.0, BranchSide.ABOVE), "(1.110720734539592+0.6232252401402302j)"),
        (lambda: lauricella_fd(HyperSpec(0.7, (0.3, -0.4, 0.5), 1.9, (3.0, -2.0, 1.5)), BranchSide.ABOVE),
         "(1.0327070167930448+1.546399833620133j)"),
        # a conjugate pair keeps its one log2
        (lambda: appell_f1(0.5, 0.3, 0.3, 1.5, 2 + 1j, 2 - 1j), "(1.212483191501369+0j)"),
    ])
    def test_values_with_no_unpaired_complex_argument_keep_their_bits(self, evaluate, want):
        assert repr(evaluate()) == want


@st.composite
def _pfaff_pairs(draw):
    """(a, bs, c, xs, side) with real and complex parameters and arguments.

    Parameters are multiples of 1/16, so c - a is exact and the strict
    inequalities meet their boundaries.  The arguments on the cut come from
    a set that x -> x/(x-1) maps onto itself exactly, so arguments sharing
    a split still share it after Pfaff.
    """
    def param(lo, hi):
        re = draw(st.integers(int(16 * lo), int(16 * hi))) / 16.0
        return complex(re, draw(st.sampled_from((0.0, 0.0, -0.375, 0.75))))

    n = draw(st.integers(1, 4))
    a, c = param(-1.0, 2.5), param(-0.5, 3.0)
    bs = tuple(param(-0.5, 1.2) for _ in range(n))
    xs = tuple(draw(st.one_of(
        st.sampled_from((1.25, 1.5, 2.0, 3.0, 5.0)).map(complex),
        st.floats(-4.0, 0.5).map(complex),
        st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 3.0) | st.floats(-3.0, -0.1)),
    )) for _ in range(n))
    return a, bs, c, xs, draw(st.sampled_from(list(BranchSide)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_pfaff_pairs())
def test_euler_admissibility_is_pfaff_invariant(case):
    """The Euler integral applies at a point exactly when it applies at its Pfaff image."""
    from lauricella.quadrature import QuadratureResult

    a, bs, c, xs, side = case
    _, ys = hyperfun._pfaff_args(bs, xs, side)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperfun, "integrate", lambda *args: QuadratureResult(1.0, 0.0, 1))
        applies = hyperfun._euler_fd(a, bs, c, xs, side, 1e-11) is not None
        applies_after_pfaff = hyperfun._euler_fd(c - a, bs, c, ys, side, 1e-11) is not None
    assert applies == applies_after_pfaff


def _admitted_by_two_tests(a, bs, c, xs):
    """The earlier admissibility rule: Re c > Re a > 0, then summed Re b < 1 at each split."""
    if not (c.real > a.real > 0.0):
        return False
    sums = {}
    for b, x in zip(bs, xs):
        if hyperfun._on_cut(x):
            sums[1.0 / x.real] = sums.get(1.0 / x.real, 0j) + b
    return all(b.real < 1.0 for b in sums.values())


def test_singular_point_table_admits_what_the_two_tests_admitted(monkeypatch):
    """Re power > 0 at every point of the table is the rule Re c > Re a > 0 plus Re b < 1 per split."""
    from lauricella.quadrature import QuadratureResult

    monkeypatch.setattr(hyperfun, "integrate", lambda *args: QuadratureResult(1.0, 0.0, 1))
    monkeypatch.setattr(hyperfun, "_gamma_quotient", lambda num, den: 1.0)   # Gamma refuses a within 1e-12 of 0
    rng = random.Random(21)
    edges = (0.0, 1e-20, -1e-20, 1e-17, 0.5, 1.0 - 2.0 ** -53, 1.0)

    def part(lo, hi):
        return rng.choice(edges) if rng.random() < 0.4 else rng.uniform(lo, hi)

    def param(lo, hi):
        return complex(part(lo, hi), rng.choice((0.0, rng.uniform(-1.0, 1.0))))

    arguments = (2.0, 2.0, 4.0, 1.25, complex(2.0, 1e-20), complex(2.0, -1e-20), -3.0, 0.5, complex(0.3, 2.0))
    admitted = 0
    for _ in range(3000):
        a = param(-0.5, 2.0)
        c = a + param(-0.5, 2.0)
        n = rng.randint(1, 3)
        bs = [param(-0.5, 1.5) for _ in range(n)]
        xs = [complex(rng.choice(arguments)) for _ in range(n)]
        side = rng.choice(list(BranchSide))
        applies = hyperfun._euler_fd(a, bs, c, xs, side, 1e-11) is not None
        assert applies == _admitted_by_two_tests(a, bs, c, xs), (a, bs, c, xs)
        admitted += applies
    assert 300 < admitted < 2700

    # at the edges: the exponents a - 1 and c - a - 1 round to -1 for a = 1e-20
    # and c - a = 1e-17, so the test is on the power; and sum b = 1 - 2**-53
    # at a split leaves the least positive power 1 - sum b
    for a, c, bs, exponent in ((1e-20, 1.5, [0.5], -1.0), (1e-3, 1e-3 + 1e-17, [0.5], -1.0),
                               (0.5, 1.5, [1.0 - 2.0 ** -53], -1.0 + 2.0 ** -53),
                               (0.5, 1.5, [0.5, 0.5 - 2.0 ** -53], -1.0 + 2.0 ** -53)):
        a, c, bs, xs = complex(a), complex(c), [complex(b) for b in bs], [2.0 + 0j] * len(bs)
        points = hyperfun._singular_points(a, bs, c, xs, DEFAULT_SIDE)
        assert min(e.real for _, _, e, *_ in points) == exponent
        assert hyperfun._euler_fd(a, bs, c, xs, DEFAULT_SIDE, 1e-11) is not None
        assert _admitted_by_two_tests(a, bs, c, xs)


def test_refusal_names_the_first_divergent_point():
    with pytest.raises(DomainError, match=r"Re b < 1.*diverges first at u = 1\.0, exponent -1\.5"):
        lauricella_fd(HyperSpec(2.0, (0.5,) * 3, 1.5, (5.0, -2.0, 3.0)))
    # the two arguments share the split 1/2, where their b's sum to 1.25
    with pytest.raises(DomainError, match=r"diverges first at u = 0\.5, exponent -1\.25"):
        appell_f1(0.5, 0.75, 0.5, 1.5, 2.0, 2.0)


def test_euler_evaluation_count_is_pinned(monkeypatch):
    """One catalog pass takes exactly the seed's Euler-integrand evaluations.

    The count is set by the quadrature rule's nodes and stopping decisions
    alone; a change that moves it on purpose updates this pin and says why.
    """
    total = 0
    integrate = hyperfun.integrate

    def counting(*args, **kwargs):
        nonlocal total
        result = integrate(*args, **kwargs)
        total += result.evaluations
        return result

    monkeypatch.setattr(hyperfun, "integrate", counting)
    verify_all()
    check_all_reductions()
    representation_formulas_check()
    # each panel stops one level sooner, on the quadratic-convergence estimate;
    # a run evaluates each distinct catalog value once (6,043 when repeats recomputed)
    assert total == 5_295


@pytest.mark.parametrize("evaluate", [
    lambda: appell_f1(0.5, 0.3, 0.4, 1.5, 2.0, -3.0),
    lambda: appell_f1(0.4, 0.5, 0.5, 1.5, 1 - 1j, 1 + 1j),
    lambda: lauricella_fd(HyperSpec(0.5, (0.2, 0.3, 0.4), 1.5, (5.0, -2.0, 3.0))),
    lambda: lauricella_fd(HyperSpec(1.0, (0.5,) * 4, 2.0, tuple(unit_partition_roots(4)))),
    lambda: hyp2f1(1.5, 0.5, 2.5, 5.0),   # integer a - b: no connection formula
])
def test_wrapped_integrate_sees_every_euler_sample(monkeypatch, evaluate):
    """A wrapper set on `hyperfun.integrate` sees each Euler integral and each sample."""
    integrals, samples, reported = _count_wrapped_samples(monkeypatch, hyperfun, evaluate)
    assert integrals >= 1
    assert samples == reported > 0


@pytest.mark.parametrize("module, record", [
    (reductions, "jacobi-g2"),     # both sides finite
    (quadrature, "goursat-dig"),   # both sides semi-infinite: the mapped integrand
])
def test_wrapped_integrate_sees_every_reduction_sample(monkeypatch, module, record):
    """A wrapper on `module.integrate` sees both sides of a reduction record and each sample."""
    integrals, samples, reported = _count_wrapped_samples(
        monkeypatch, module, lambda: reductions.check_reduction(record)
    )
    assert integrals == 2
    assert samples == reported > 0


def _count_wrapped_samples(monkeypatch, module, evaluate):
    """(integrals, samples, reported evaluations) of `evaluate` with `module.integrate` wrapped.

    The wrapper swaps the spec's evaluator for a counting one with the very
    `dataclasses.replace` call of the benchmark tracer (perfbench/tracing.py),
    so every sample the rule takes must go through it, and their count is the
    reported one.
    """
    integrate = module.integrate
    integrals = samples = reported = 0

    def counting(fn):
        def counted(*args):
            nonlocal samples
            samples += 1
            return fn(*args)
        return counted

    def wrapped(spec, lo, hi, *args):
        nonlocal integrals, reported
        integrals += 1
        spec = dataclasses.replace(
            spec,
            evaluator=counting(spec.evaluator),
            distance_evaluator=None if spec.distance_evaluator is None
            else counting(spec.distance_evaluator),
        )
        result = integrate(spec, lo, hi, *args)
        reported += result.evaluations
        return result

    monkeypatch.setattr(module, "integrate", wrapped)
    evaluate()
    return integrals, samples, reported


# ---------------------------------------------------------------------------
# the series at whichever of x and x/(x-1) is nearer 0


def _gauss_complex_loop(a, b, c, x):
    """The Gauss series as summed in complex arithmetic for every input."""
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    total = term = complex(1.0)
    small = 0
    for m in range(100_000):
        term = term * (a + m) * (b + m) / ((c + m) * (1 + m)) * x
        total += term
        if abs(term) < 1e-16 * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise AssertionError("no convergence")


@st.composite
def _routed_cases(draw):
    """(a, b, c, x): half with |x| <= 0.9, half with |x/(x-1)| <= 0.9."""

    def param():
        im = draw(st.floats(-2.0, 2.0)) if draw(st.booleans()) else 0.0
        return complex(draw(st.floats(-4.0, 4.0)), im)

    a, b = param(), param()
    c = draw(st.floats(0.3, 5.0))
    r = draw(st.floats(0.0, 0.9))
    if draw(st.booleans()):
        z = complex(r * draw(st.sampled_from((1.0, -1.0))))
    else:
        z = cmath.rect(r, draw(st.floats(-math.pi, math.pi)))
    x = z / (z - 1.0) if draw(st.booleans()) else z
    return a, b, c, x


class TestPfaffRouting:
    def test_large_parameters_at_minus_point_nine(self):
        # summed at x = -0.9 itself, terms of 2e20 cancel down to 1.5e-4
        want = 1.49735359829033e-4
        assert abs(hyp2f1(10, 10, 1.5, -0.9) - want) <= 1e-12 * want

    def test_off_disk_point_takes_the_series(self):
        # x = -3 maps to 3/4; the integral fails at the u**-0.99 endpoint
        assert abs(hyp2f1(0.01, 1, 2, -3) - 0.991559197970854) <= 1e-13

    def test_f1_takes_the_image_when_it_is_nearer(self, monkeypatch):
        a, b1, b2, c, x1, x2 = 0.7, 0.3, -0.4, 1.6, -0.5 + 0.2j, -0.6
        at_x = hyperfun._appell_series(a, b1, b2, c, x1, x2)
        calls = []
        series = hyperfun._appell_series

        def recording(*args):
            calls.append(args)
            return series(*args)

        monkeypatch.setattr(hyperfun, "_appell_series", recording)
        got = appell_f1(a, b1, b2, c, x1, x2)
        assert [args[4:] for args in calls] == [(x1 / (x1 - 1.0), x2 / (x2 - 1.0))]
        assert abs(got - at_x) <= 1e-12 * abs(at_x)

    def test_f1_outside_the_polydisk_with_its_image_inside(self):
        # max |x| = 0.95, image (0.487, 0.474); Re c > Re a fails both as given
        # and after Pfaff, so no integral applies.  mpmath.appellf1 at 30 digits:
        want = 0.386525797163272583352579258048
        assert abs(appell_f1(1.3, 0.4, 0.6, 0.9, -0.95, -0.9) - want) <= 1e-13 * want

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.05, 6.0),
        st.floats(-0.9, 0.9),
    )
    def test_float_sum_is_bit_identical(self, a, b, c, x):
        got = hyp2f1_series(a, b, c, x)
        want = _gauss_complex_loop(a, b, c, x)
        assert type(got) is complex
        assert (got.real, got.imag) == (want.real, want.imag), (got, want)

    # 400 draws, about 1.3 s.  A sum at x itself misses one of them
    # (a = b = 3.32, c = 0.899, x = -0.899) by 6e-10 relative.
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_routed_cases())
    def test_against_mpmath(self, case):
        mpmath = pytest.importorskip("mpmath")
        a, b, c, x = case
        try:
            got = hyp2f1(a, b, c, x)
        except (DomainError, GammaPoleError, QuadratureError):
            return
        with mpmath.workdps(30):
            want = complex(mpmath.hyp2f1(mpmath.mpc(a), mpmath.mpc(b), c, mpmath.mpc(x)))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-12), (case, got, want)


# ---------------------------------------------------------------------------
# off the disk: the 1/x and 1/(1-x) connection formulas


@st.composite
def _connection_cases(draw):
    """(a, b, c, x, side) with w = 1/x or 1/(1-x) inside the series radius.

    Half the parameters are complex.  A third of the draws put a - b within
    1e-2 ... 1e-8 of an integer, where the two terms cancel, and a third put
    c - a at a non-positive integer, exactly, where one term vanishes.
    """

    def param():
        im = draw(st.floats(-2.0, 2.0)) if draw(st.booleans()) else 0.0
        return complex(draw(st.floats(-5.0, 5.0)), im)

    a, b, c = param(), param(), param()
    kind = draw(st.sampled_from(("plain", "near-integer a-b", "integer c-a")))
    if kind == "near-integer a-b":
        offset = draw(st.sampled_from((1.0, -1.0))) * 10.0 ** -draw(st.floats(2.0, 8.0))
        b = a + draw(st.integers(-3, 3)) + offset
    elif kind == "integer c-a":
        # eighths keep a = c + n exact, so c - a is exactly -n
        c = complex(draw(st.integers(-40, 40)) / 8.0, c.imag)
        a = c + draw(st.integers(0, 4))
    r = draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        w = complex(r)   # 1/x real in (0, 0.9]: x on the cut
    else:
        w = cmath.rect(r, draw(st.floats(-math.pi, math.pi)))
    x = 1.0 / w if draw(st.booleans()) else 1.0 - 1.0 / w
    return a, b, c, x, draw(st.sampled_from((BranchSide.BELOW, BranchSide.ABOVE)))


class TestConnection:
    def test_c_below_a_and_b_on_the_negative_axis(self):
        # its image 10/11 is just outside the radius, and c < a rules out the integral
        got = hyp2f1(2.5, 2, 1.5, -10)
        assert abs(got - -0.00175306786877035) <= 1e-14 * 0.00175306786877035
        assert got.imag == 0.0

    @pytest.mark.parametrize("side, sign", [(BranchSide.ABOVE, -1.0), (BranchSide.BELOW, 1.0)])
    def test_cut_with_b_at_least_one_in_both_orders(self, side, sign):
        want = complex(-0.212329965705191, sign * 0.182794756764963)
        assert abs(hyp2f1(1.3, 2.6, 3.1, 5.0, side) - want) <= 1e-14

    @pytest.mark.parametrize(
        "a, b, c, x",
        [(2.5, 2, 1.5, -10), (1.3, 2.6, 3.1, 5), (0.5, 0.75, 1.5, 2), (0.7, 0.4, 1.9, 0.5 + 3j)],
    )
    def test_off_disk_points_take_no_integral(self, monkeypatch, a, b, c, x):
        def refuse(*args):
            raise AssertionError("integrated a point the connection formulas cover")

        monkeypatch.setattr(hyperfun, "_euler_fd", refuse)
        hyp2f1(a, b, c, x)

    def test_cancelling_large_parameters_fall_through(self):
        # the series at w = 1/3 cancel; taken without the error bound this
        # point came out 0.67 % off
        args = (60.0 + 0j, 0.5 + 0j, 120.0 + 0j, 3.0 + 0j, DEFAULT_SIDE, hyperfun.DEFAULT_QUAD_TOL)
        assert hyperfun._hyp2f1_connection(*args) is None

    def test_gamma_reflection_overflow_falls_through(self):
        # sin(pi z) overflows at Im z = -300 inside the log-Gamma reflection,
        # which then works in log space; the formula's bound still refuses the
        # point, and the integral has the value (mpmath.hyp2f1 at 40 digits)
        want = 0.37171654993041386 - 0.039091538634050495j
        assert abs(hyp2f1(0.5, 0.2 + 300j, 1.3 - 200j, 4 + 1j) - want) <= 1e-10 * abs(want)

    def test_near_integer_a_minus_b_keeps_its_lower_parameters(self):
        # 1 + b - a = -1e-7 exactly; formed as 1 - fl(a - b) it put the
        # value 5.8e-10 off.  2F1(a, -1; 1 | x) = 1 - a x.
        assert abs(hyp2f1(1e-7, -1, 1, -15) - (1 + 1.5e-6)) <= 1e-13

    def test_integer_a_minus_b_falls_through(self):
        args = (2.0 + 0j, 2.0 + 0j, 5.0 + 0j, 10.0 + 0j, DEFAULT_SIDE, hyperfun.DEFAULT_QUAD_TOL)
        assert hyperfun._hyp2f1_connection(*args) is None

    @pytest.mark.parametrize(
        "a, b, c, x",
        [(-20, 5, 1.5, 0.85), (8.5, 7.75, -7.3, 0.6 + 0.6j), (10, 10, 1.5, -0.9), (0.7, 1.3, 2.1, 0.3)],
    )
    def test_series_bound_covers_its_error(self, a, b, c, x):
        mpmath = pytest.importorskip("mpmath")
        total, bound = hyperfun._gauss_sum(complex(a), complex(b), complex(c), complex(x))
        with mpmath.workdps(30):
            want = complex(mpmath.hyp2f1(a, b, c, mpmath.mpc(x)))
        assert abs(total - want) <= bound

    def test_series_runs_past_a_dip_of_its_terms(self):
        # (c+k) crosses 0 near k = 45, long after the terms fell below 1e-16
        # of the sum; two small terms there do not end it
        mpmath = pytest.importorskip("mpmath")
        a, b, c, w = -13.59, 23.35, -45.35, 0.345
        total, bound = hyperfun._gauss_sum(complex(a), complex(b), complex(c), complex(w))
        with mpmath.workdps(60):
            want = complex(mpmath.hyp2f1(a, b, c, w))
        assert abs(total - want) <= max(bound, 1e-14 * abs(want))

    # 300 draws, about 2 s
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_connection_cases())
    def test_against_mpmath(self, case):
        mpmath = pytest.importorskip("mpmath")
        a, b, c, x, side = case
        try:
            got = hyp2f1(a, b, c, x, side)
        except (DomainError, GammaPoleError, QuadratureError):
            return
        with mpmath.workdps(40):
            z = mpmath.mpc(x)
            if x.imag == 0.0 and x.real > 1.0:
                # on the cut, the side's limit; an x just off it is its own side
                z = mpmath.mpc(x.real, mpmath.mpf("-1e-30") if side is BranchSide.BELOW else mpmath.mpf("1e-30"))
            want = complex(mpmath.hyp2f1(mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c), z))
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-12), (case, got, want)

    def test_bound_covers_real_parameter_values(self):
        # The bound charges _CONNECTION_ROUNDING per unit of each log-Gamma
        # and of each rounded Gamma argument's _pole_gain.  Without the gain,
        # a - b = -1 + 2e-8 here came back 1.4 % off under a bound of 4e-7.
        # A value is returned exactly when bound <= quad_tol |value|, and the
        # value does not depend on quad_tol, so the tightest tolerance of a
        # factor-2 ladder that returns it is within 2x of its own bound.
        import random

        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(13)
        ladder = [1e-13 * 2.0**k for k in range(40)]
        checked = 0
        for _ in range(400):
            span = rng.choice((5.0, 40.0))
            a, b, c = (rng.uniform(-span, span) for _ in range(3))
            if rng.random() < 0.3:
                # a - b near an integer, where the two terms cancel
                b = a + rng.randint(-3, 3) + rng.choice((1.0, -1.0)) * 10.0 ** -rng.uniform(2.0, 8.0)
            r = rng.uniform(0.05, 0.9)
            w = complex(r) if rng.random() < 0.5 else cmath.rect(r, rng.uniform(-math.pi, math.pi))
            x = 1.0 / w if rng.random() < 0.5 else 1.0 - 1.0 / w
            side = rng.choice((BranchSide.BELOW, BranchSide.ABOVE))
            args = (complex(a), complex(b), complex(c), complex(x), side)
            for tol in ladder:
                got = hyperfun._hyp2f1_connection(*args, tol)
                if got is not None:
                    break
            else:
                continue
            with mpmath.workdps(40):
                z = mpmath.mpc(x)
                if x.imag == 0.0 and x.real > 1.0:
                    z = mpmath.mpc(x.real, mpmath.mpf("-1e-30") if side is BranchSide.BELOW else mpmath.mpf("1e-30"))
                want = complex(mpmath.hyp2f1(a, b, c, z))
            assert abs(got - want) <= tol * abs(got), (args, tol, got, want)
            checked += 1
        assert checked >= 300


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "args",
        [(1, 1, math.nan, 0.5), (math.nan, 1, 2, 0.5), (1, 1, 2, math.inf), (1, complex(1, math.inf), 2, 3)],
    )
    def test_hyp2f1(self, args):
        with pytest.raises(DomainError, match="finite"):
            hyp2f1(*args)
        with pytest.raises(DomainError, match="finite"):
            hyp2f1_series(*args)

    def test_appell_f1(self):
        with pytest.raises(DomainError, match="finite"):
            appell_f1(0.5, 0.2, math.nan, 1.5, 0.3, 0.4)

    def test_hyper_spec(self):
        with pytest.raises(DomainError, match="finite"):
            lauricella_fd(HyperSpec(0.5, (0.2,) * 3, 1.5, (math.inf, 3, -3)))


class TestFloatRange:
    """Values past the float range raise DomainError: no bare arithmetic exception, no inf."""

    @pytest.mark.parametrize("evaluate", [
        # Gamma(a) Gamma(c-a) underflows to 0: the prefactor, about 2.6e325, is past the range
        lambda: appell_f1(0.5 + 240j, 0.3, 0.4, 1.5, 2, -3),
        lambda: hyp2f1(0.5 + 240j, 0.5, 1.5, 1.5),   # mpmath: -2.74e324 + 4.15e323i
        lambda: lauricella_fd(HyperSpec(0.5 + 240j, (0.3, 0.2, 0.1), 1.5, (2, -3, 5))),
        # the Pfaff prefactor 1.9**800 times its finite sum overflows (mpmath: 1.33e220)
        lambda: hyp2f1(-800, 0.5, 1.5, -0.9),
        # the Pfaff prefactor 1.9**1200 itself overflows (mpmath: 2.81e331)
        lambda: hyp2f1(-1200, 0.5, 1.5, -0.9),
        # a series term's modulus overflows
        lambda: hyp2f1(275.9154619149889, -151.31072751675956, -260.6264354492342,
                       -4.448110166050161 - 1.4913055541071125j),
        lambda: appell_f1(-213.57164502117814 + 265.8029360581223j, -250.06857550706715,
                          54.32954763941024 - 287.3307065578978j, 37.58005995714973 + 66.46090522028953j,
                          0.03377454495253442, -3.880059559813708 + 4.751702520426946e-16j),
        # the terms pass 1e308 and then turn nan: the sum stops at the first such term
        # instead of running its whole term budget
        lambda: hyp2f1(-2000, 1, 1, 0.5),
        lambda: hyp2f1(-2000, 1 + 1j, 1, 0.5),
        lambda: appell_f1(-2000, 1, 1, 1, 0.5, 0.3),
        lambda: appell_f1(1, -2000, 1, 1, 0.5, 0.3),
    ])
    def test_domain_error(self, evaluate):
        with pytest.raises(DomainError, match="floating-point range"):
            evaluate()

    @pytest.mark.parametrize("evaluate", [
        lambda: appell_f1(0.5 + 240j, 0.3, 0.4, 1.5, 2, -3),
        lambda: hyp2f1(0.5 + 240j, 0.5, 1.5, 1.5),
        lambda: lauricella_fd(HyperSpec(0.5 + 240j, (0.3, 0.2, 0.1), 1.5, (2, -3, 5))),
    ])
    def test_euler_prefactor_refused_before_any_integral(self, evaluate, monkeypatch):
        # the prefactor is formed first: a refusal spends no integrand call
        def refuse(*args):
            raise AssertionError("integrated before the prefactor was refused")

        monkeypatch.setattr(hyperfun, "integrate", refuse)
        with pytest.raises(DomainError, match="floating-point range"):
            evaluate()

    def test_gauss_sum_that_overflows_is_domain_error(self):
        # two finite terms of about 1e308 whose sum overflows, then an exact 0
        with pytest.raises(DomainError, match="floating-point range"):
            hyperfun._gauss_sum(-2 + 0j, 1.2222 + 0j, 2.2e-308 + 0j, -0.9 + 1e-200j)

    def test_every_euler_prefactor_keeps_the_direct_quotient(self, monkeypatch):
        """At every in-range (a, c) the Euler prefactor is Gamma(c) / (Gamma(a) Gamma(c-a)), bit for bit."""
        import os

        from lauricella.core import _gamma_quotient, gamma

        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
        import inputs
        import workloads

        calls = []

        def record(num, den):
            calls.append((num, den))
            return _gamma_quotient(num, den)

        monkeypatch.setattr(hyperfun, "_gamma_quotient", record)
        workloads.catalog_pass()
        catalog_calls = len(calls)
        evaluate = workloads.make_evaluator()
        for seed in (1, 2, 3):
            for p in inputs.continuation_points(seed):
                if not inputs.known_defect(p):
                    evaluate(p)
        assert catalog_calls >= 40 and len(calls) - catalog_calls >= 150
        for (c,), (a, c_minus_a) in calls:
            assert c_minus_a == c - a
            assert repr(_gamma_quotient((c,), (a, c - a))) == repr(gamma(c) / (gamma(a) * gamma(c - a)))


class TestQuadTol:
    # a series point and an Euler (or connection-formula) point of each evaluator
    EVALUATIONS = {
        "2f1-series": lambda tol: hyp2f1(0.5, 0.5, 1.5, 0.3, quad_tol=tol),
        "2f1-off-disk": lambda tol: hyp2f1(0.5, 0.5, 1.5, 1.05, quad_tol=tol),
        "f1-series": lambda tol: appell_f1(0.5, 0.3, 0.4, 1.5, 0.2, -0.3, quad_tol=tol),
        "f1-euler": lambda tol: appell_f1(0.5, 0.3, 0.4, 1.5, 2, -3, quad_tol=tol),
        "fd-order-2-series": lambda tol: lauricella_fd(HyperSpec(0.5, (0.3, 0.4), 1.5, (0.2, -0.3)), quad_tol=tol),
        "fd-order-3-euler": lambda tol: lauricella_fd(HyperSpec(0.6, (0.3, 0.2, 0.4), 1.7, (2, 4, 0.3)), quad_tol=tol),
    }

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 1e-14, -1.0])
    @pytest.mark.parametrize("where", list(EVALUATIONS))
    def test_out_of_range_is_domain_error(self, where, tol):
        # quad_tol=inf once accepted any connection-formula or quadrature value
        with pytest.raises(DomainError, match="quad_tol"):
            self.EVALUATIONS[where](tol)

    @pytest.mark.parametrize("where", list(EVALUATIONS))
    def test_floor_is_accepted(self, where):
        assert cmath.isfinite(self.EVALUATIONS[where](1e-13))


def _mp_euler(a, bs, c, xs):
    """FD from its Euler integral at mpmath precision, split at the cut points 1/Re x."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        xs = [mpmath.mpc(x) for x in xs]

        def f(u):
            return u ** (a - 1) * (1 - u) ** (c - a - 1) * mpmath.fprod((1 - x * u) ** (-b) for b, x in zip(bs, xs))

        points = sorted({mpmath.mpf(0), mpmath.mpf(1), *(1 / x.real for x in xs if x.real > 1)})
        prefactor = mpmath.gamma(c) / (mpmath.gamma(a) * mpmath.gamma(c - a))
        return complex(prefactor * mpmath.quad(f, points))


class TestOneSideRule:
    """An argument in the cut band off the real axis takes its own side; ``side`` only real ones."""

    @pytest.mark.parametrize("side", list(BranchSide))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_f1_band_argument_follows_its_imaginary_part(self, side, sign):
        want = _mp_euler(0.5, (0.3, 0.4), 1.5, (complex(2, sign * 1e-25), -3))
        assert (want.imag > 0) == (sign > 0)
        got = appell_f1(0.5, 0.3, 0.4, 1.5, complex(2, sign * 1e-20), -3, side)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("side", list(BranchSide))
    def test_fd_opposite_sides_at_one_split(self, side):
        # 2 + i0 and 2 - i0 share the split 1/2; each b turns the phase its own way
        xs = (complex(2, 1e-20), complex(2, -1e-20), -1)
        want = _mp_euler(0.6, (0.3, 0.2, 0.4), 1.7, (complex(2, 1e-25), complex(2, -1e-25), -1))
        assert want == pytest.approx(1.565245631597 + 0.171696396098j, rel=1e-11)
        got = lauricella_fd(HyperSpec(0.6, (0.3, 0.2, 0.4), 1.7, xs), side)
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("side", list(BranchSide))
    def test_fd_opposite_sides_at_two_splits(self, side):
        xs = (complex(2, 1e-20), complex(4, -1e-20), 0.3)
        want = _mp_euler(0.6, (0.3, 0.2, 0.4), 1.7, (complex(2, 1e-25), complex(4, -1e-25), 0.3))
        got = lauricella_fd(HyperSpec(0.6, (0.3, 0.2, 0.4), 1.7, xs), side)
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("side", list(BranchSide))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_pfaff_prefactor_of_a_band_argument(self, side, sign):
        x1 = complex(3, sign * 1e-20)
        _, pref = pfaff_f1(0.5, 0.3, 0.4, 1.5, x1, -3, side)
        # (1 - x1)**(-0.3) with 1 - x1 = -2 -+ i0 at arg -+pi, times 4**(-0.4)
        want = cmath.exp(-0.3 * complex(math.log(2.0), -sign * math.pi)) * 4.0 ** -0.4
        assert pref == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("side", list(BranchSide))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_order_reduction_prefactor_of_a_band_argument(self, side, sign):
        spec = HyperSpec(0.5, (0.3, 0.4), 0.7, (0.2, complex(3, sign * 1e-20)))
        _, pref = fd_order_reduce(spec, side)
        want = cmath.exp(-0.5 * complex(math.log(2.0), -sign * math.pi))
        assert pref == pytest.approx(want, rel=1e-14)
