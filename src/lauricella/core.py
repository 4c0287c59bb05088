"""Complex scalar kernel: Gamma, Pochhammer, branch-aware powers and root families.

All values are plain Python ``complex`` (a pair of binary64 reals).  Returned
values are always finite; domain problems raise instead of propagating NaN.
Gamma and log-Gamma of a real argument come from the C math library
(``math.gamma``, ``math.lgamma``).  A complex argument has one approximation,
a Lanczos sum and the reflection formula, both in log form in ``_log_gamma``;
a complex Gamma is the exp of that logarithm.  A quotient of Gammas has one
rule, `_gamma_quotient`: the direct quotient while it is in range, the exp of
the log-Gamma sum past it.
"""

from __future__ import annotations

import cmath
import math
import sys
from enum import Enum

__all__ = [
    "BranchSide",
    "DEFAULT_SIDE",
    "DomainError",
    "GammaPoleError",
    "QuadratureError",
    "gamma",
    "pochhammer",
    "principal_pow",
    "roots_of_unity",
    "unit_partition_roots",
]


class BranchSide(Enum):
    """Which side of the cut (-inf, 0] a logarithm limit is taken on."""

    ABOVE = "above"
    BELOW = "below"

    def flipped(self) -> "BranchSide":
        return BranchSide.ABOVE if self is BranchSide.BELOW else BranchSide.BELOW


# Library-wide continuation convention for function arguments approaching the
# cut [1, inf): the limit is taken from Im x < 0.  Calibrated once against the
# catalog entry "enu5-1", whose closed form (1-i)/2 * K(1/sqrt(2)) has negative
# imaginary part, and frozen here.
DEFAULT_SIDE = BranchSide.BELOW

# The tightest quadrature tolerance accepted anywhere: tanh-sinh's rounding
# floor, 8 eps times the sum of |terms|, sits just below it.
MIN_QUAD_TOL = 1e-13
# The tolerance of the evaluators, the catalog runs and `quadrature.integrate`
# when none is given.
DEFAULT_QUAD_TOL = 1e-11


class GammaPoleError(ValueError):
    """Gamma evaluated at (or within 1e-12 of) a non-positive integer."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


class QuadratureError(RuntimeError):
    """Non-convergence or a non-finite sample at a regular point."""


def check_quad_tol(quad_tol: float) -> None:
    """The one rule for a quadrature tolerance: finite and at least MIN_QUAD_TOL."""
    if not MIN_QUAD_TOL <= quad_tol < math.inf:   # a nan fails too
        raise DomainError(f"quad_tol must be a finite number >= {MIN_QUAD_TOL}, got {quad_tol}")


# Rational-series coefficients (g = 607/128, 15 terms), good to ~1e-15
# relative on the right half plane in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_LN2 = math.log(2.0)
_MIN_NORMAL = sys.float_info.min


def _log_sin_pi(z: complex) -> complex:
    """A logarithm of sin(pi z), on no fixed branch: only its exp is meant.

    Finite where sin(pi z) itself overflows, from |Im z| ~ 225 on.  There
    sin(pi w) = (s i/2) exp(-s i pi w) (1 - exp(2 s i pi w)), s = sgn Im w,
    and the last factor is 1 to within exp(-2 pi |Im w|) < 1e-600.
    """
    n = round(z.real)
    w = z - n   # exact, so sin(pi w) keeps full precision; sin(pi z) = (-1)**n sin(pi w)
    parity = 1j * math.pi if n % 2 else 0.0
    try:
        return cmath.log(cmath.sin(cmath.pi * w)) + parity
    except OverflowError:
        s = 1.0 if w.imag > 0.0 else -1.0
        return -1j * math.pi * s * (w - 0.5) - _LN2 + parity


def _check_finite(*values: complex) -> None:
    """Reject inf and NaN parts at entry, before they reach a loop or a round()."""
    if cmath.isfinite(sum(values)):  # one test for the usual case; a sum that overflows looks again
        return
    for value in values:
        if not cmath.isfinite(value):
            raise DomainError(f"arguments must be finite, got {value}")


def _check_pole(z: complex) -> None:
    if abs(z.imag) < 1e-12:
        nearest = round(z.real)
        if nearest <= 0 and abs(z.real - nearest) < 1e-12:
            raise GammaPoleError(f"gamma pole near z = {nearest}: z = {z}")


def gamma(z: complex) -> complex:
    """Gamma function for complex arguments.

    A real argument goes to ``math.gamma``; a complex one is the exp of
    :func:`_log_gamma`, the one Lanczos sum and reflection formula.  Raises
    :class:`GammaPoleError` within 1e-12 of a non-positive integer, and
    :class:`DomainError` when the argument is not finite or the value leaves
    the normal floating-point range (for a real z, above about 171.6 or
    below about -170.6).
    """
    z = complex(z)
    _check_finite(z)
    _check_pole(z)
    try:
        value = complex(math.gamma(z.real)) if z.imag == 0.0 else cmath.exp(_log_gamma(z))
    except OverflowError:
        raise DomainError(f"gamma({z}) exceeds the floating-point range") from None
    # |Re| + |Im| rather than abs(), which can itself overflow near 1e308;
    # below x ~ -170.58 math.gamma returns subnormals, and 0 past x ~ -178
    if not abs(value.real) + abs(value.imag) >= _MIN_NORMAL:
        raise DomainError(f"gamma({z}) is below the normal floating-point range")
    return value


def _log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z), on no fixed branch: only exp(_log_gamma(z)) is meant.

    A real argument goes to ``math.lgamma``, with +i pi added where
    Gamma(x) < 0.  A complex one is the library's one complex Gamma
    approximation: a fixed published rational-series (Lanczos) sum in log
    form on Re z >= 1/2, and the reflection formula in log form elsewhere.
    Either way it stays finite where Gamma leaves the floating-point range,
    so quotients of large Gammas are formed as exp of a difference; an
    argument whose log-Gamma itself overflows (|z| above about 1e305) raises
    :class:`DomainError`.  The absolute error grows like |z log z| times the
    unit roundoff.
    """
    z = complex(z)
    _check_pole(z)
    if z.imag == 0.0:
        x = z.real
        try:
            log = math.lgamma(x)
        except OverflowError:
            raise DomainError(f"log Gamma({x}) exceeds the floating-point range") from None
        # Gamma(x) < 0 exactly on the intervals (-2k-1, -2k)
        return complex(log, math.pi if x < 0.0 and math.floor(x) % 2 else 0.0)
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        log = _LOG_PI - _log_sin_pi(z) - _log_gamma(1.0 - z)
    else:
        zz = z - 1.0
        acc = _LANCZOS[0]
        for i in range(1, len(_LANCZOS)):
            acc += _LANCZOS[i] / (zz + i)
        t = zz + _LANCZOS_G + 0.5
        log = _LOG_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)
    if not cmath.isfinite(log):
        raise DomainError(f"log Gamma({z}) exceeds the floating-point range")
    return log


def _normal(value: complex) -> bool:
    """Whether value is finite and not 0 or subnormal (a NaN is neither)."""
    return _MIN_NORMAL <= abs(value.real) + abs(value.imag) < math.inf


def _gamma_quotient(num: tuple[complex, ...], den: tuple[complex, ...], divisor: int = 1) -> complex:
    """prod Gamma(num) / (divisor * prod Gamma(den)), in one of two forms.

    The direct quotient, each product multiplied in argument order, is used
    when every Gamma is in range, the denominator is a normal float and so
    is the quotient: at real parameters it is the more accurate form.
    Otherwise the quotient is the exp of the log-Gamma sum, folded left in
    argument order (each numerator's `_log_gamma` added, then each
    denominator's subtracted), which stays finite where a Gamma leaves the
    float range.  A quotient outside the normal float range raises
    :class:`DomainError`; a Gamma pole raises :class:`GammaPoleError`.
    """
    try:
        top = math.prod(map(gamma, num))
        bottom = math.prod(map(gamma, den), start=divisor)
    except DomainError:
        pass
    else:
        if _normal(bottom):
            value = top / bottom
            if _normal(value):
                return value
    log = _log_gamma(num[0])
    for z in num[1:]:
        log += _log_gamma(z)
    for z in den:
        log -= _log_gamma(z)
    try:
        value = cmath.exp(log - math.log(divisor))
    except OverflowError:
        pass
    else:
        if _normal(value):
            return value
    raise DomainError(
        f"the Gamma quotient at {list(num)} over {list(den)} is outside the floating-point range"
    )


def pochhammer(a: complex, m: int) -> complex:
    """Rising factorial a (a+1) ... (a+m-1), by direct product."""
    if m < 0:
        raise DomainError(f"pochhammer needs m >= 0, got {m}")
    value = complex(1.0, 0.0)
    a = complex(a)
    for k in range(m):
        value *= a + k
    return value


def principal_pow(base: complex, exponent: complex, side: BranchSide = DEFAULT_SIDE) -> complex:
    """base**exponent with the principal logarithm.

    When ``base`` lies on the cut (-inf, 0], the argument is taken as +pi for
    ``side=ABOVE`` and -pi for ``side=BELOW``.  A value that is not finite,
    from a value past the float range or from an inf or nan input, raises
    :class:`DomainError`.
    """
    base = complex(base)
    exponent = complex(exponent)
    if exponent == 0:
        return complex(1.0, 0.0)
    if base == 0:
        if exponent.real > 0 and exponent.imag == 0:
            return complex(0.0, 0.0)
        raise DomainError("0 cannot be raised to an exponent with Re <= 0")
    if exponent == 1:
        value = base
    else:
        if base.imag == 0.0 and base.real < 0.0:
            arg = math.pi if side is BranchSide.ABOVE else -math.pi
            log = complex(math.log(-base.real), arg)
        else:
            log = cmath.log(base)
        try:
            value = cmath.exp(exponent * log)
        except OverflowError:
            raise DomainError(f"{base}**{exponent} exceeds the floating-point range") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{base}**{exponent} is not a finite number: {value}")
    return value


def _snap(value: float) -> float:
    return 0.0 if abs(value) < 1e-15 else value


def roots_of_unity(n: int) -> list[complex]:
    """The n-th roots of unity except 1, as exp(2 pi i k / n), k = 1..n-1."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    out = []
    for k in range(1, n):
        if 2 * k > n:
            # root n - k is already out[n - k - 1]: an exact conjugate pair
            out.append(out[n - k - 1].conjugate())
            continue
        angle = 2.0 * math.pi * k / n
        out.append(complex(_snap(math.cos(angle)), _snap(math.sin(angle))))
    return out


def unit_partition_roots(n: int) -> list[complex]:
    """Reciprocals of the roots of u**n + (1-u)**n = 0, in ascending index order.

    Each returned value is 1 + cos((2k-1) pi / n) + i sin((2k-1) pi / n) for
    k = 1..n; when n is odd the index k = (n+1)/2 is skipped (the polynomial
    drops to degree n-1), so the list has length n for even n and n-1 for odd.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    skip = (n + 1) // 2 if n % 2 == 1 else None
    out = []
    for k in range(1, n + 1):
        if k == skip:
            continue
        if 2 * k - 1 > n:
            # index n + 1 - k is already out[n - k] (it precedes any skipped index)
            out.append(out[n - k].conjugate())
            continue
        angle = (2 * k - 1) * math.pi / n
        out.append(complex(1.0 + _snap(math.cos(angle)), _snap(math.sin(angle))))
    return out
