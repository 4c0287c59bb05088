import math

import pytest

from lauricella import (
    DomainError,
    IntegrandSpec,
    complete_e,
    complete_k,
    gamma,
    incomplete_f,
    integrate,
)
from lauricella.elliptic import (
    MODULUS_INV_SQRT2,
    MODULUS_SIN15,
    MODULUS_SIN75,
    MODULUS_SQRT2_MINUS_1,
)

import helpers_properties as props

# AGM / duplication oracle values, frozen at double precision
K12 = 1.8540746773013719
E12 = 1.3506438810476755
K15 = 1.59814200211254
K21 = 1.645568395293458
F_CUBIC = 1.845375430245845       # F(arccos(2 - sqrt3), sin 75deg)
CUBIC_BETA = 1.4021821053254543


class TestCompleteK:
    def test_zero(self):
        assert complete_k(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_inv_sqrt2(self):
        assert complete_k(MODULUS_INV_SQRT2) == pytest.approx(K12, rel=1e-14)
        closed = (gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))).real
        assert complete_k(MODULUS_INV_SQRT2) == pytest.approx(closed, rel=1e-13)

    def test_sqrt2_minus_1(self):
        assert complete_k(MODULUS_SQRT2_MINUS_1) == pytest.approx(K21, rel=1e-14)

    def test_sin15(self):
        assert complete_k(MODULUS_SIN15) == pytest.approx(K15, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            complete_k(1.0)
        with pytest.raises(DomainError):
            complete_k(-0.1)


class TestCompleteE:
    def test_zero(self):
        assert complete_e(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_inv_sqrt2(self):
        assert complete_e(MODULUS_INV_SQRT2) == pytest.approx(E12, rel=1e-13)

    def test_combination(self):
        got = 2.0 * complete_e(MODULUS_INV_SQRT2) - complete_k(MODULUS_INV_SQRT2)
        assert got == pytest.approx(0.847213084793979, rel=1e-12)


def _reference_k(k):
    # the first-kind AGM loop as it stood before K and E shared one iteration
    a, b = 1.0, math.sqrt(1.0 - k * k)
    for _ in range(40):
        if a - b <= 2e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def _reference_e(k):
    a, b = 1.0, math.sqrt(1.0 - k * k)
    c_sum, power = 0.5 * k * k, 0.5
    for _ in range(40):
        if a - b <= 2e-16 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        c_sum += power * c * c
    return math.pi / (a + b) * (1.0 - c_sum)


class TestSharedAgm:
    def test_bit_identical_to_separate_loops(self):
        import random

        rng = random.Random(3)
        moduli = [0.0, 1e-300, 1e-8, 0.5, MODULUS_INV_SQRT2, MODULUS_SIN75, 0.999999, 1.0 - 2**-53]
        moduli += [rng.random() for _ in range(2000)]
        for k in moduli:
            assert complete_k(k) == _reference_k(k), k
            assert complete_e(k) == _reference_e(k), k


class TestIncompleteF:
    def test_zero_modulus_is_identity(self):
        for phi in (0.0, 0.3, 1.0, math.pi / 2):
            assert incomplete_f(phi, 0.0) == pytest.approx(phi, abs=1e-14)

    @pytest.mark.parametrize("k", [0.1, 0.45, 0.8, 0.95])
    def test_complete_limit(self, k):
        assert incomplete_f(math.pi / 2, k) == pytest.approx(complete_k(k), rel=1e-12)

    def test_cubic_value(self):
        got = incomplete_f(math.acos(2.0 - math.sqrt(3.0)), MODULUS_SIN75)
        assert got == pytest.approx(F_CUBIC, rel=1e-12)
        # the same constant scaled by 3**(-1/4) is the unit cubic-radical integral
        assert 3.0 ** -0.25 * got == pytest.approx(CUBIC_BETA, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_f(2.0, 0.5)
        with pytest.raises(DomainError):
            incomplete_f(0.5, 1.0)


class TestAgainstQuadrature:
    @pytest.mark.parametrize("k", [0.1 * j for j in range(1, 10)])
    def test_trig_definitions(self, k):
        spec_k = IntegrandSpec(
            evaluator=lambda t, _d_lo, _d_hi: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2)
        )
        spec_e = IntegrandSpec(
            evaluator=lambda t, _d_lo, _d_hi: math.sqrt(1.0 - (k * math.sin(t)) ** 2)
        )
        got_k = integrate(spec_k, 0.0, math.pi / 2, 1e-12).value.real
        got_e = integrate(spec_e, 0.0, math.pi / 2, 1e-12).value.real
        assert got_k == pytest.approx(complete_k(k), rel=1e-11)
        assert got_e == pytest.approx(complete_e(k), rel=1e-11)

    def test_legendre_relation_suite(self):
        assert props.run_legendre_relation() >= 50
