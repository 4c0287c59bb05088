"""Property-suite helpers shared by the module tests and the acceptance run.

Each function runs one family of invariant checks with a seeded RNG and
returns the number of assertions it performed.
"""

from __future__ import annotations

import math
import random

from lauricella import (
    HyperSpec,
    IntegrandSpec,
    appell_f1,
    complete_e,
    complete_k,
    eulerian_a,
    eulerian_b,
    fd_order_reduce,
    gamma,
    hyp2f1,
    hyp2f1_series,
    integrate,
    integrate_semi_infinite,
    lauricella_fd,
    pfaff_f1,
)


def _draw_arg(rng: random.Random, radius: float = 0.8, min_im: float = 0.0) -> complex:
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius and abs(z.imag) >= min_im:
            return z


def run_degeneration(seed: int = 1001, draws: int = 50) -> int:
    """Appell with b2=0 and order-3 with b3=0 collapse to lower order."""
    rng = random.Random(seed)
    checked = 0
    for i in range(draws):
        a = rng.uniform(0.3, 2.0)
        c = a + rng.uniform(0.4, 1.5)
        b1 = rng.uniform(0.1, 0.9)
        x1, x2 = _draw_arg(rng), _draw_arg(rng)
        if i % 2 == 0:
            got = appell_f1(a, b1, 0.0, c, x1, x2)
            want = hyp2f1(a, b1, c, x1)
        else:
            b2 = rng.uniform(0.1, 0.9)
            got = lauricella_fd(HyperSpec(a, (b1, b2, 0.0), c, (x1, x2, 0.3)))
            want = appell_f1(a, b1, b2, c, x1, x2)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (i, got, want)
        checked += 1
    return checked


def run_collapse(seed: int = 1002, draws: int = 50) -> int:
    """All arguments equal: FD(a; b_1..b_n; c | x..x) = 2F1(a, sum b; c | x)."""
    rng = random.Random(seed)
    checked = 0
    for i in range(draws):
        n = 2 + i % 3
        a = rng.uniform(0.3, 1.8)
        c = a + rng.uniform(0.4, 1.5)
        bs = tuple(rng.uniform(0.1, 0.8) for _ in range(n))
        x = _draw_arg(rng)
        got = lauricella_fd(HyperSpec(a, bs, c, (x,) * n))
        want = hyp2f1_series(a, sum(bs), c, x)
        assert abs(got - want) <= 1e-11 * (1.0 + abs(want)), (i, n, got, want)
        checked += 1
    return checked


def run_symmetry(seed: int = 1003, draws: int = 50) -> int:
    """Appell F1 is invariant under the joint swap (b1,x1) <-> (b2,x2)."""
    rng = random.Random(seed)
    checked = 0
    for i in range(draws):
        a = rng.uniform(0.3, 2.0)
        c = a + rng.uniform(0.4, 1.5)
        b1, b2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
        x1, x2 = _draw_arg(rng), _draw_arg(rng)
        one = appell_f1(a, b1, b2, c, x1, x2)
        two = appell_f1(a, b2, b1, c, x2, x1)
        assert abs(one - two) <= 1e-11 * (1.0 + abs(one)), (i, one, two)
        checked += 1
    return checked


def run_series_integral_agreement(seed: int = 1004, draws: int = 50) -> int:
    rng = random.Random(seed)
    checked = 0
    from lauricella.core import DEFAULT_SIDE
    from lauricella.hyperfun import _euler_fd

    for i in range(draws):
        a = rng.uniform(0.3, 2.0)
        c = a + rng.uniform(0.4, 1.8)
        b = rng.uniform(0.1, 1.5)
        x = _draw_arg(rng)
        series = hyp2f1_series(a, b, c, x)
        euler = _euler_fd(complex(a), [complex(b)], complex(c), [x], DEFAULT_SIDE, 1e-12)
        assert abs(series - euler) <= 1e-11 * (1.0 + abs(series)), (i, series, euler)
        checked += 1
    return checked


def run_pfaff_and_order_reduction(seed: int = 1005, draws: int = 50) -> int:
    rng = random.Random(seed)
    checked = 0
    for i in range(draws):
        if i % 2 == 0:
            a = rng.uniform(0.3, 1.5)
            c = a + rng.uniform(0.4, 1.5)
            b1, b2 = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            x1 = _draw_arg(rng, 0.7, min_im=0.05)
            x2 = _draw_arg(rng, 0.7, min_im=0.05)
            original = appell_f1(a, b1, b2, c, x1, x2)
            spec, pref = pfaff_f1(a, b1, b2, c, x1, x2)
            transformed = pref * lauricella_fd(spec)
        else:
            bs = tuple(rng.uniform(0.3, 0.8) for _ in range(3))
            c = sum(bs)
            a = rng.uniform(0.2, c - 0.2)
            xs = tuple(_draw_arg(rng, 0.4, min_im=0.05) for _ in range(3))
            spec = HyperSpec(a, bs, c, xs)
            original = lauricella_fd(spec)
            reduced, pref = fd_order_reduce(spec)
            transformed = pref * lauricella_fd(reduced)
        assert abs(original - transformed) <= 1e-10 * (1.0 + abs(original)), (
            i, original, transformed,
        )
        checked += 1
    return checked


def run_conjugation(seed: int = 1006, draws: int = 50) -> int:
    """Real parameters with conjugation-closed arguments give real values."""
    rng = random.Random(seed)
    checked = 0
    for i in range(draws):
        a = rng.uniform(0.3, 1.8)
        c = a + rng.uniform(0.4, 1.5)
        b = rng.uniform(0.1, 0.9)
        x = _draw_arg(rng)
        value = appell_f1(a, b, b, c, x, x.conjugate())
        assert abs(value.imag) <= 1e-11 * (1.0 + abs(value)), (i, value)
        checked += 1
    return checked


def run_gamma_recurrence_reflection(seed: int = 1007, points: int = 100) -> int:
    import cmath

    rng = random.Random(seed)
    checked = 0
    done = 0
    while done < points:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z.imag) < 0.05 and (abs(z.real - round(z.real)) < 0.05 or z.real < 0.05):
            continue  # keep clear of the poles and of 1/sin blowups
        done += 1
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (z, lhs, rhs)
        checked += 1
        product = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(product - 1) <= 1e-12 * abs(product), (z, product)
        checked += 1
    return checked


def run_legendre_relation(points: int = 50) -> int:
    checked = 0
    for i in range(points):
        k = 0.02 + 0.96 * i / (points - 1)
        kp = math.sqrt(1.0 - k * k)
        value = (
            complete_e(k) * complete_k(kp)
            + complete_e(kp) * complete_k(k)
            - complete_k(k) * complete_k(kp)
        )
        assert abs(value - math.pi / 2) <= 1e-12, (k, value)
        checked += 1
    return checked


def _a_family_spec(n: int, a: float, b: float) -> IntegrandSpec:
    def g(t, _dl, dh):
        tail = sum(t ** j for j in range(n))
        return math.pow(t, a - 1.0) * math.pow(dh * tail, -b)

    return IntegrandSpec(evaluator=g)


def _b_family_spec(n: int, a: float, b: float) -> IntegrandSpec:
    limit = 1e290 ** (1.0 / n)

    def g(t, dl, _dh):
        if t > limit:
            return math.pow(t, a - 1.0 - n * b)
        return math.pow(dl, a - 1.0) * math.pow(1.0 + t ** n, -b)

    return IntegrandSpec(evaluator=g)


def run_eulerian_closed_forms() -> int:
    """Quadrature of both Eulerian families against their Gamma closed forms.

    This grid is what pins the sign in the general first-family closed form:
    the denominator Gamma carries +a/n - b (not +b).
    """
    checked = 0
    for n in (2, 3, 4, 6, 8):
        for a in (0.5, 1.0, 1.5):
            for b in (0.25, 0.5, 0.75):
                quad = integrate(_a_family_spec(n, a, b), 0.0, 1.0, 1e-11).value
                closed = eulerian_a(n, a, b)
                assert abs(quad - closed) <= 1e-10 * abs(closed), (n, a, b, quad, closed)
                checked += 1
                if n * b > a:
                    quad = integrate_semi_infinite(_b_family_spec(n, a, b), 0.0, 1e-11).value
                    closed = eulerian_b(n, a, b)
                    assert abs(quad - closed) <= 1e-10 * abs(closed), (n, a, b, quad, closed)
                    checked += 1
    return checked
