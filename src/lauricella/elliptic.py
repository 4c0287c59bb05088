"""Complete elliptic integrals K, E and incomplete first-kind F.

All signatures take the modulus k (not the parameter m = k**2).  The named
singular-modulus constants that recur in the identity catalog are exposed at
module level.
"""

from __future__ import annotations

import math

from .core import DomainError

__all__ = [
    "complete_e",
    "complete_k",
    "incomplete_f",
    "MODULUS_INV_SQRT2",
    "MODULUS_SIN15",
    "MODULUS_SIN75",
    "MODULUS_SQRT2_MINUS_1",
    "MODULUS_HERMITE_QUARTIC",
    "MODULUS_SERRET_CUBIC",
]

# Singular/special moduli appearing in the catalog's closed forms.
MODULUS_INV_SQRT2 = 1.0 / math.sqrt(2.0)
MODULUS_SIN15 = (math.sqrt(6.0) - math.sqrt(2.0)) / 4.0
MODULUS_SIN75 = (math.sqrt(6.0) + math.sqrt(2.0)) / 4.0
MODULUS_SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
MODULUS_HERMITE_QUARTIC = math.sqrt((49.0 - 9.0 * math.sqrt(21.0)) / 2.0) / 7.0
MODULUS_SERRET_CUBIC = math.sqrt(8.0 + 5.0 * math.sqrt(2.0)) / 4.0


def _check_modulus(k: float) -> float:
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"modulus must satisfy 0 <= k < 1, got {k}")
    return k


def _agm(k: float) -> tuple[float, float]:
    """AGM of 1 and sqrt(1 - k**2): (a_n + b_n, the sum of 2**(n-1) c_n**2)."""
    a, b = 1.0, math.sqrt(1.0 - k * k)
    c_sum = 0.5 * k * k          # 2**(n-1) * c_n**2 starting at c_0 = k
    power = 0.5
    for _ in range(40):              # quadratic convergence: 8 steps suffice
        if a - b <= 2e-16 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        c_sum += power * c * c
    return a + b, c_sum


def complete_k(k: float) -> float:
    """First-kind complete integral via the arithmetic-geometric mean."""
    return math.pi / _agm(_check_modulus(k))[0]


def complete_e(k: float) -> float:
    """Second-kind complete integral: AGM with accumulated c_n**2 correction."""
    total, c_sum = _agm(_check_modulus(k))
    return math.pi / total * (1.0 - c_sum)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Symmetric first-kind integral by the duplication theorem."""
    for _ in range(200):
        lam = math.sqrt(x) * math.sqrt(y) + math.sqrt(y) * math.sqrt(z) + math.sqrt(z) * math.sqrt(x)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean = (x + y + z) / 3.0
        if max(abs(x - mean), abs(y - mean), abs(z - mean)) < 1e-9 * mean:
            break
    mean = (x + y + z) / 3.0
    dx, dy, dz = 1.0 - x / mean, 1.0 - y / mean, 1.0 - z / mean
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    series = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return series / math.sqrt(mean)


def incomplete_f(phi: float, k: float) -> float:
    """Incomplete first-kind integral F(phi, k) on the first quadrant."""
    k = _check_modulus(k)
    if not 0.0 <= phi <= math.pi / 2.0 + 1e-15:
        raise DomainError(f"amplitude must lie in [0, pi/2], got {phi}")
    s = math.sin(phi)
    c = math.cos(phi)
    return s * _carlson_rf(c * c, 1.0 - (k * s) ** 2, 1.0)
