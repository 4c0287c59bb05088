"""Gauss 2F1, Appell F1 and Lauricella FD evaluation.

Inside the polydisk (|x| <= 0.9) the functions are summed as power series
(`_gauss_sum`, `_appell_series`), at whichever of x and its Pfaff image
x/(x-1) is nearer 0:

    2F1(a, b; c | x) = (1-x)**(-a) 2F1(a, c-b; c | x/(x-1)),
    F1(a; b1, b2; c | x1, x2) = (1-x1)**(-b1) (1-x2)**(-b2)
        F1(c-a; b1, b2; c | x1/(x1-1), x2/(x2-1)).

The image is taken when its largest modulus is both smaller than that of the
arguments and inside the radius.  For one argument it is nearer 0 exactly
when |x - 1| > 1: x = -0.9 sums at 0.47 instead of at -0.9, and x = -3 sums
at 3/4 instead of going to the integral.

Off the disk, 2F1 first tries its two-term connection formula
(`_hyp2f1_connection`).  Everywhere else the functions are computed from the
one-dimensional integral representation (`_euler_integrand`)

    Gamma(c)/(Gamma(a) Gamma(c-a)) * int_0^1 u**(a-1) (1-u)**(c-a-1)
        * prod_k (1 - x_k u)**(-b_k) du,

which also defines the continuation onto the cut [1, inf) as a side limit.
The integral is shaped by its real singular points, one table of them per
evaluation (`_singular_points`): u = 0 with power a, u = 1 with power c - a,
and each split 1/x of the arguments on the cut with power 1 - sum b.  It
converges exactly when every point has Re power > 0, the one test of
`_euler_fd`, and every panel between the points takes the form of each
singular factor from the table (`_euler_panels`).
An argument with Re x > 1 and |Im x| <= 1e-13 (1 + Re x) is taken as on the
cut, and one rule picks its side in 2F1, F1 and FD alike (`_below`): an
argument off the real axis takes the limit from its own side, and ``side``
picks it only for Im x == 0.

Every value is finite: a value past the float range, or a path through a
quantity past it (a series term or sum, a Pfaff prefactor, a Gamma
quotient), raises `DomainError`.  Every Gamma quotient is `core`'s
`_gamma_quotient`, and every real log-Gamma `core._real_log_gamma`.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from typing import TYPE_CHECKING, Sequence

from .core import (
    BranchSide,
    DEFAULT_QUAD_TOL,
    DEFAULT_SIDE,
    DomainError,
    GammaPoleError,
    _check_finite,
    _gamma_quotient,
    _log_gamma,
    _real_log_gamma,
    check_quad_tol,
    gamma,  # not called here: bound for perfbench/tracing.py, which wraps hyperfun.gamma
    principal_pow,
)

if TYPE_CHECKING:
    from .quadrature import IntegrandSpec, QuadratureResult

__all__ = [
    "HyperSpec",
    "DEFAULT_QUAD_TOL",
    "appell_f1",
    "eulerian_a",
    "eulerian_b",
    "fd_order_reduce",
    "hyp2f1",
    "hyp2f1_series",
    "lauricella_fd",
    "pfaff_f1",
]

_SERIES_RADIUS = 0.9
_MAX_TERMS = 100_000
_LN2 = math.log(2.0)
_EPS = sys.float_info.epsilon
# rounding of a connection term's exponent, per unit size of each logarithm in it
_CONNECTION_ROUNDING = 8.0 * _EPS
_LOG_RANGE = 700.0  # |log| of a connection factor that keeps it a normal float
_SQUARE_RANGE = 2.0 ** 500  # |x| below which |1 - x u|**2 is a float for every u in [0, 1]


class HyperSpec:
    """Parameter bundle (a; b_1..b_n; c | x_1..x_n) for an FD evaluation.

    Immutable, and compared and hashed by its fields, like a frozen
    dataclass.  It is a plain class so that importing this module does not
    load ``dataclasses``, which costs a one-shot ``lauricella eval`` about a
    tenth of its run.
    """

    __slots__ = ("a", "bs", "c", "xs")
    a: complex
    bs: tuple[complex, ...]
    c: complex
    xs: tuple[complex, ...]

    def __init__(self, a: complex, bs: Sequence[complex], c: complex, xs: Sequence[complex]) -> None:
        a, bs, c, xs = complex(a), tuple(complex(b) for b in bs), complex(c), tuple(complex(x) for x in xs)
        _check_finite(a, *bs, c, *xs)
        if len(bs) != len(xs):
            raise DomainError("bs and xs must have equal length")
        if not bs:
            raise DomainError("need at least one (b, x) pair")
        _check_c(c)
        for name, value in zip(self.__slots__, (a, bs, c, xs)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return self.a, self.bs, self.c, self.xs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"HyperSpec(a={self.a!r}, bs={self.bs!r}, c={self.c!r}, xs={self.xs!r})"

    def __reduce__(self):
        return self.__class__, self._astuple()

    @property
    def order(self) -> int:
        return len(self.xs)


def _check_c(c: complex) -> None:
    """Reject c at a pole of the series coefficients 1/(c)_n."""
    # c.real <= 0.5 is round(c.real) <= 0, tested first as the cheapest
    if c.real <= 0.5 and abs(c.imag) < 1e-12 and abs(c.real - round(c.real)) < 1e-12:
        raise DomainError(f"c must not be a non-positive integer, got {c}")


def _on_cut(x: complex) -> bool:
    return x.real > 1.0 and abs(x.imag) <= 1e-13 * (1.0 + x.real)


def _below(x: complex, side: BranchSide) -> bool:
    """Whether x on the cut takes the limit from Im x < 0: its own side, or ``side`` at Im x == 0."""
    return x.imag < 0.0 if x.imag else side is BranchSide.BELOW


def _near_one(x: complex) -> bool:
    return abs(x - 1.0) < 1e-14


def _finite(value: complex) -> complex:
    """value, or `DomainError` when a product of finite factors has left the float range."""
    if not cmath.isfinite(value):
        raise DomainError(f"the value exceeds the floating-point range: {value}")
    return value


# ---------------------------------------------------------------------------
# series evaluation

def hyp2f1_series(a: complex, b: complex, c: complex, x: complex) -> complex:
    """Gauss series, valid for |x| <= 0.9."""
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    _check_finite(a, b, c, x)
    _check_c(c)
    if abs(x) > _SERIES_RADIUS + 1e-12:
        raise DomainError(f"series restricted to |x| <= {_SERIES_RADIUS}, got |x| = {abs(x)}")
    return _gauss_sum(a, b, c, x)[0]


def _gauss_sum(a: complex, b: complex, c: complex, x: complex) -> tuple[complex, float]:
    """The Gauss series at finite a, b, x, admissible c and |x| <= 0.9, and a bound on its error.

    The sum runs on one of three arithmetic paths:

    * all of a, b, c and x real: float arithmetic, with the operations of
      the complex sum in the same order, so it gives the same bits;
    * real a, b and c with complex x: the term ratio
      (a+k)(b+k)/((c+k)(k+1)) in floats, then one complex multiply of the
      term by it and one by x;
    * complex a, b or c: complex arithmetic throughout.

    The sum stops at a term that is exactly 0, or after two consecutive
    terms below 1e-16 of it once the term ratio |x| |a+k| |b+k| / (|c+k| (k+1))
    is at most rho = (1 + |x|)/2 for every later k.  So a dip of the terms
    near a zero of a + k or b + k cannot end it before the terms that c + k
    near 0 blows up.  |sum| is computed only for a term already below 1e-16
    of the running 1 + sum|term|, which bounds |sum| from above: the pre-test
    skips the modulus on most terms and never ends a sum earlier.

    The bound is eps * max|term| * terms for the rounding (each term carries
    a relative rounding error of a few eps, and the sum can be no more
    accurate than its largest term allows) plus |last term| rho/(1 - rho)
    for the tail.  A sum, or a term's modulus, past the float range raises
    `DomainError`, at the first term of modulus inf or nan.
    """
    # The index k and the 1 of 1 + k are ints in complex arithmetic and
    # floats in float arithmetic: each addition then takes the interpreter's
    # fast path, int + int or float + float.
    indices, one = range(_MAX_TERMS), 1
    float_ratio = False
    if not (a.imag or b.imag or c.imag):
        a, b, c = a.real, b.real, c.real
        indices, one = map(float, indices), 1.0
        float_ratio = x.imag != 0.0
        if not float_ratio:
            # the same sum in float arithmetic: complex operations with zero
            # imaginary parts round exactly as their real parts do
            x = x.real
    total = term = 1.0
    peak = mass = 1.0  # max |term| and 1 + sum |term|
    last_small = -2  # the index of the last term below 1e-16 of the sum
    try:
        for k in indices:
            if float_ratio:
                term = term * ((a + k) * (b + k) / ((c + k) * (one + k))) * x
            else:
                term = term * (a + k) * (b + k) / ((c + k) * (one + k)) * x
            total += term
            size = abs(term)
            mass += size
            if size < 1e-16 * mass and size < 1e-16 * abs(total):
                if last_small == k - 1:
                    n = k + 1.0  # the next term's index, and the count of terms less one
                    if size == 0.0:  # every later term is 0 too
                        bound = _EPS * peak * (n + 1.0)
                        break
                    if n > -c.real:
                        # From n on, |a+k| <= k + |a| and |c+k| >= k + Re c, and
                        # each quotient of linear factors moves monotonically
                        # towards 1; the larger numerator over the larger
                        # denominator gives the smaller bound.
                        num_lo, num_hi = abs(a), abs(b)
                        if num_lo > num_hi:
                            num_lo, num_hi = num_hi, num_lo
                        den_lo, den_hi = (c.real, 1.0) if c.real < 1.0 else (1.0, c.real)
                        g = (n + num_lo) / (n + den_lo)
                        h = (n + num_hi) / (n + den_hi)
                        r = abs(x)
                        rho = 0.5 + 0.5 * r
                        if r * (g if g > 1.0 else 1.0) * (h if h > 1.0 else 1.0) <= rho:
                            bound = _EPS * peak * (n + 1.0) + size * rho / (1.0 - rho)
                            break
                last_small = k
            elif not size <= peak:
                # a growing term, or a nan one: a complex product can go from finite to nan
                if not size < math.inf:
                    raise DomainError("a series term exceeds the floating-point range")
                peak = size
        else:
            raise DomainError("series did not converge within the term budget")
    except OverflowError:  # abs() of a term past the float range
        raise DomainError("a series term exceeds the floating-point range") from None
    return _finite(complex(total)), bound


def _appell_series(a, b1, b2, c, x1, x2) -> complex:
    """Appell F1 by total degree n = m1 + m2, at max(|x1|, |x2|) <= 0.9.

    F1 = sum_n (a)_n/(c)_n p_n, where p_n = [t**n] (1 - x1 t)**(-b1)
    (1 - x2 t)**(-b2).  From Q P' = R P with Q = (1 - x1 t)(1 - x2 t):

        (n+1) p_{n+1} = (n (x1+x2) + b1 x1 + b2 x2) p_n
                        - x1 x2 (n - 1 + b1 + b2) p_{n-1},

    and both coefficients advance by one addition per term.  The sum runs
    on one of three arithmetic paths:

    * every parameter and argument real: float arithmetic;
    * real a and c with a complex b or x: (a)_n/(c)_n in floats, p_n and
      the terms complex;
    * complex a or c: complex arithmetic throughout.

    The sum stops after two consecutive terms below 1e-16 of it.  Two
    consecutive zero p's make every later p zero, so that rule cannot end
    the sum early on the parity zeros of x2 = -x1.  As in `_gauss_sum`,
    |sum| is computed only for a term already below 1e-16 of the running
    1 + sum|term|.  A sum, or a term's modulus, past the float range raises
    `DomainError`, at the first term of modulus inf or nan.
    """
    if not (a.imag or c.imag):
        a, c = a.real, c.real
        if not (b1.imag or b2.imag or x1.imag or x2.imag):
            b1, b2, x1, x2 = b1.real, b2.real, x1.real, x2.real
    s = x1 + x2
    prod = x1 * x2
    lin = b1 * x1 + b2 * x2          # n (x1+x2) + b1 x1 + b2 x2 at n = 0
    quad = prod * (b1 + b2 - 1.0)    # x1 x2 (n - 1 + b1 + b2) at n = 0
    p_prev, p = 0.0, 1.0
    total = ratio = 1.0
    mass = 1.0  # 1 + sum |term|
    small = 0
    # n counts in floats, an addition per term instead of a float() call
    n, budget, inf = 0.0, float(_MAX_TERMS), math.inf
    try:
        while n < budget:
            p_prev, p = p, (lin * p - quad * p_prev) / (n + 1.0)
            lin += s
            quad += prod
            ratio = ratio * (a + n) / (c + n)
            term = ratio * p
            total += term
            size = abs(term)
            mass += size
            if size < 1e-16 * mass and size < 1e-16 * abs(total):
                small += 1
                if small >= 2:
                    break
            elif size < inf:
                small = 0
            else:  # inf or nan
                raise DomainError("an Appell series term exceeds the floating-point range")
            n += 1.0
        else:
            raise DomainError("Appell series did not converge within the term budget")
    except OverflowError:  # abs() of a term past the float range
        raise DomainError("an Appell series term exceeds the floating-point range") from None
    return _finite(complex(total))


# ---------------------------------------------------------------------------
# Euler-integral evaluation

def _real_if_real(z: complex) -> complex | float:
    return z.real if z.imag == 0.0 else z


def _singular_points(a: complex, bs: Sequence[complex], c: complex, xs: Sequence[complex], side: BranchSide) -> list[tuple]:
    """The Euler integrand's real singular points: (position, power, exponent, line form, turn).

    Near a point the integrand is (|k1| d)**exponent times a factor regular
    there, with d the distance to the point and exponent = power - 1:

    * u = 0 has power a and line form -u;
    * u = 1 has power c - a and line form 1 - u;
    * each split 1/x of the arguments on the cut has power 1 - sum b and
      line form 1 - x u: the arguments sharing it make one factor
      (1 - x u)**(-sum b).  The splits follow in the order of the arguments.

    A line form k0 + k1 u is positive left of its point.  Past a split,
    1 - x u has argument +pi for x taken from below (`_below`) and -pi from
    above, so the factor's phase is exp(i pi turn), turn = sum b_above -
    sum b_below; the ends have turn 0.
    """
    groups: dict[float, tuple[float, complex, complex]] = {}
    for b, x in zip(bs, xs):
        if _on_cut(x):
            split = 1.0 / x.real
            x_re, b_sum, turn = groups.get(split, (x.real, 0j, 0j))
            groups[split] = (x_re, b_sum + b, turn - b if _below(x, side) else turn + b)
    return [
        (0.0, a, _real_if_real(a - 1.0), (0.0, -1.0), 0.0),
        (1.0, c - a, _real_if_real(c - a - 1.0), (1.0, -1.0), 0.0),
        *((split, 1.0 - b, _real_if_real(-b), (1.0, -x_re), turn) for split, (x_re, b, turn) in groups.items()),
    ]


def _divergent(points: list) -> tuple | None:
    """The first singular point with Re power <= 0, where the Euler integral diverges, or None."""
    return next((point for point in points if point[1].real <= 0.0), None)


def _euler_integrand(a: complex, bs: Sequence[complex], c: complex, xs: Sequence[complex], side: BranchSide) -> IntegrandSpec:
    """Distance-form integrand u**(a-1) (1-u)**(c-a-1) prod (1-x u)**(-b); see `_euler_panels`."""
    return _euler_panels(_singular_points(a, bs, c, xs, side), bs, xs)


def _euler_panels(points: list, bs: Sequence[complex], xs: Sequence[complex]) -> IntegrandSpec:
    """The Euler integrand with the singular points `points` (`_singular_points`).

    The points cut [0, 1] into panels, and every factor takes a form fixed
    per panel in advance: the distance form at the panel's own two ends, the
    line form, negated right of its point, at every other singular point,
    and one constant phase from the turns of the points left of the panel.
    Each panel is one row (e_lo, k_lo, e_hi, k_hi, line terms, turns) of the
    integral's table.  The factors of the arguments off the cut are the same
    on every panel.  With real exponents the evaluator is `_real_panel`'s,
    in float arithmetic, and otherwise `_complex_panel`'s.  Either finds a
    node's row by the node's panel midpoint, u + (d_hi - d_lo)/2: u itself
    may have rounded onto a shared boundary, the midpoint never does.
    """
    from .quadrature import IntegrandSpec

    lines: list[tuple[complex | float, float, float]] = []  # (-b, 1, -x): real x < 1
    pairs: list[tuple[float, float, float]] = []           # (-b, Re x, Im x): x with its conjugate
    unpaired: list[tuple[complex, complex]] = []           # (b, x)
    for b, x in zip(bs, xs):
        if _on_cut(x):
            continue
        if x.imag == 0.0 and x.real < 1.0:
            lines.append((_real_if_real(-b), 1.0, -x.real))
        elif x.imag != 0.0 and b.imag == 0.0 and abs(x) < _SQUARE_RANGE and (b, x.conjugate()) in unpaired:
            # (1-xu)**(-b) (1-x'u)**(-b) = |1-xu|**(-2b) for x' = conj(x), real b
            unpaired.remove((b, x.conjugate()))
            pairs.append((-b.real, x.real, x.imag))
        else:
            unpaired.append((b, x))
    boundaries = tuple(sorted(s for s, *_ in points))

    rows = []
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        panel_lines = list(lines)
        past = 0.0                                   # sum of the turns of the points at or left of lo
        for s, _, e, (k0, k1), turn in points:
            if s == lo:
                e_lo, k_lo = e, abs(k1)
            elif s == hi:
                e_hi, k_hi = e, abs(k1)
            else:
                panel_lines.append((e, -k0, -k1) if s < lo else (e, k0, k1))
            if s <= lo:
                past += turn
        rows.append((e_lo, k_lo, e_hi, k_hi, [term for term in panel_lines if term[0] != 0.0], past))

    if (
        all(isinstance(e, float) for _, _, e, _, _ in points)
        and all(isinstance(e, float) for e, _, _ in lines)
        and all(b.imag == 0.0 and abs(x) < _SQUARE_RANGE for b, x in unpaired)
    ):
        arcs = [(-0.5 * b.real, b.real, x.real, x.imag) for b, x in unpaired]
        g = _real_panel(boundaries, rows, pairs, arcs)
    else:
        g = _complex_panel(boundaries, rows, pairs, [(_real_if_real(-b), x) for b, x in unpaired])
    return IntegrandSpec(evaluator=g, interior_singularities=boundaries[1:-1])


# A panel's integrand is exp of a sum of exponent * log(magnitude) terms: the
# magnitudes are k_lo d_lo and k_hi d_hi at the panel ends, k0 + k1 u for each
# line term and |1 - x u|**2 for each conjugate pair, all positive reals.  The
# real sum is kept in base 2: math.log2 costs about a third of math.log on
# CPython 3.11, whose math.log parses an optional base argument.  Any other
# argument off the real axis has, for real b, the magnitude |1 - x u|**2 with
# exponent -b/2 and the angle b atan2(Im x u, 1 - Re x u) in `_real_panel`,
# and 1 - x u under the complex logarithm in `_complex_panel`.  An argument
# with |x| >= _SQUARE_RANGE, whose |1 - x u|**2 can leave the float range,
# takes the complex logarithm too.  Each evaluator reads its panel's row from
# the table padded at both ends, so that bisect_right's index is the row; an
# integral of one panel skips the bisection.

def _panel_table(rows, phase):
    """The rows with their turns mapped by `phase`: (table padded for bisect_right, the row or None).

    The second item is the one row of an integral of one panel, and None
    when there are more.
    """
    table = [(*row[:5], phase(row[5])) for row in rows]
    return [table[0], *table, table[-1]], table[0] if len(table) == 1 else None


def _real_panel(boundaries, rows, pairs, arcs):
    """Real exponents, in float arithmetic: 2**(log2 sum) times the phase.

    ``arcs`` holds (-b/2, b, Re x, Im x) for each argument off the real axis
    without its conjugate.  With none the panel's phase is a fixed factor,
    1.0 on a panel with no turn, and the sample is 2**t times it.  With some
    the phase is an angle, pi times the turns plus each arc's angle, and the
    sample is one ``cmath.rect``.
    """
    log2 = math.log2
    if not arcs:
        table, only = _panel_table(rows, lambda turns: cmath.exp(1j * math.pi * turns) if turns != 0.0 else 1.0)

        def g(u: float, d_lo: float, d_hi: float) -> complex:
            e_lo, k_lo, e_hi, k_hi, lines, phase = only or table[bisect_right(boundaries, u + 0.5 * (d_hi - d_lo))]
            t = e_lo * log2(k_lo * d_lo) + e_hi * log2(k_hi * d_hi)
            for e, k0, k1 in lines:
                t += e * log2(k0 + k1 * u)
            for e, x_re, x_im in pairs:
                w = 1.0 - x_re * u
                z = x_im * u
                t += e * log2(w * w + z * z)
            return 2.0 ** t * phase

        return g

    atan2 = math.atan2
    rect = cmath.rect
    table, only = _panel_table(rows, lambda turns: math.pi * turns.real)

    def g(u: float, d_lo: float, d_hi: float) -> complex:
        e_lo, k_lo, e_hi, k_hi, lines, phase = only or table[bisect_right(boundaries, u + 0.5 * (d_hi - d_lo))]
        t = e_lo * log2(k_lo * d_lo) + e_hi * log2(k_hi * d_hi)
        for e, k0, k1 in lines:
            t += e * log2(k0 + k1 * u)
        for e, x_re, x_im in pairs:
            w = 1.0 - x_re * u
            z = x_im * u
            t += e * log2(w * w + z * z)
        for half, b, x_re, x_im in arcs:
            w = 1.0 - x_re * u
            z = x_im * u
            t += half * log2(w * w + z * z)
            phase += b * atan2(z, w)
        return rect(2.0 ** t, phase)

    return g


def _complex_panel(boundaries, rows, pairs, rest):
    """Complex exponents: one cmath.exp of the log sum plus the panel's phase."""
    log2 = math.log2
    clog = cmath.log
    cexp = cmath.exp
    table, only = _panel_table(rows, lambda turns: 1j * math.pi * turns if turns != 0.0 else 0.0)

    def g(u: float, d_lo: float, d_hi: float) -> complex:
        e_lo, k_lo, e_hi, k_hi, lines, phase_log = only or table[bisect_right(boundaries, u + 0.5 * (d_hi - d_lo))]
        # the real sum as in _real_panel, inline: a shared helper costs a call per sample
        t = e_lo * log2(k_lo * d_lo) + e_hi * log2(k_hi * d_hi)
        for e, k0, k1 in lines:
            t += e * log2(k0 + k1 * u)
        for e, x_re, x_im in pairs:
            w = 1.0 - x_re * u
            z = x_im * u
            t += e * log2(w * w + z * z)
        t = t * _LN2 + phase_log
        for e, x in rest:
            t += e * clog(1.0 - x * u)
        return cexp(t)

    return g


def integrate(spec: IntegrandSpec, lo: float, hi: float, tol: float) -> QuadratureResult:
    """`quadrature.integrate`, which loads with its module on the first call.

    `_euler_fd` calls through this module global, so that a wrapper set on
    ``hyperfun.integrate`` sees every Euler integral.
    """
    from .quadrature import integrate as quadrature_integrate

    return quadrature_integrate(spec, lo, hi, tol)


def _euler_fd(
    a: complex,
    bs: Sequence[complex],
    c: complex,
    xs: Sequence[complex],
    side: BranchSide,
    quad_tol: float,
) -> complex | None:
    """The Euler integral times its Gamma prefactor, or None where it does not apply.

    It applies when every singular point of the integrand has Re power > 0
    (`_singular_points`): Re a > 0, Re(c - a) > 0 and, at each split 1/x of
    the arguments on the cut, Re(1 - sum b) > 0 over the b's sharing it.
    This is the one place that tests it, on the powers themselves: the
    exponent a - 1 of a = 1e-20 rounds to -1.  A Pfaff transformation cannot
    make it apply: a -> c - a swaps the powers at 0 and 1, and an argument
    on the cut maps onto the cut with the same b.  The prefactor is
    `_gamma_quotient`'s, formed before the integral, so a prefactor past
    the float range raises `DomainError` before any integrand call; so
    does a value past it.
    """
    points = _singular_points(a, bs, c, xs, side)
    if _divergent(points) is not None:
        return None
    prefactor = _gamma_quotient((c,), (a, c - a))
    result = integrate(_euler_panels(points, bs, xs), 0.0, 1.0, quad_tol)
    return _finite(prefactor * result.value)


# ---------------------------------------------------------------------------
# public evaluators

def hyp2f1(
    a: complex,
    b: complex,
    c: complex,
    x: complex,
    side: BranchSide = DEFAULT_SIDE,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> complex:
    """Gauss 2F1 with analytic continuation off the unit disk.

    The paths are tried in this order:

    1. the series at y = x/(x-1) times (1-x)**(-a) (Pfaff), when |y| < |x|
       and |y| <= 0.9;
    2. the series at x, when |x| <= 0.9;
    3. the two-term connection formula at whichever of w = 1/x and
       w = 1/(1-x) is nearer 0, when |w| <= 0.9 and its error bound meets
       ``quad_tol`` (see `_hyp2f1_connection`);
    4. the integral representation, in whichever of the parameter orders
       (a,b) / (b,a) is admissible.

    An x with Re x > 1 and |Im x| <= 1e-13 (1 + Re x) is taken as on the
    cut [1, inf): ``side`` picks the limit for real x, and any other x takes
    the limit from its own side.  ``quad_tol`` must lie in [1e-13, inf).
    """
    a, b, c, x = complex(a), complex(b), complex(c), complex(x)
    _check_finite(a, b, c, x)
    _check_c(c)
    check_quad_tol(quad_tol)
    if _near_one(x):
        raise DomainError("argument 1 is on the divergence boundary")
    y = x / (x - 1.0)
    r_x, r_y = abs(x), abs(y)
    if r_y < r_x and r_y <= _SERIES_RADIUS:
        # |y| <= 0.9 puts x off the cut, so 1 - x is off the branch cut of the power
        return _finite(principal_pow(1.0 - x, -a) * hyp2f1_series(a, c - b, c, y))
    if r_x <= _SERIES_RADIUS:
        return hyp2f1_series(a, b, c, x)
    value = _hyp2f1_connection(a, b, c, x, side, quad_tol)
    if value is None:
        value = _euler_fd(a, [b], c, [x], side, quad_tol)
    if value is None:
        value = _euler_fd(b, [a], c, [x], side, quad_tol)
    if value is not None:
        return value
    raise DomainError(
        f"no admissible evaluation path for 2F1(a={a}, b={b}, c={c} | x={x})"
    )


def _at_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _pole_gain(z: complex) -> float:
    """|z| over the distance from z to the nearest pole of Gamma, at least 1.

    A relative rounding eps of z moves log Gamma(z) by about eps |z psi(z)|,
    and near a pole psi(z) is about 1 / (distance to it); far from the poles
    |z psi(z)| is of the size of log Gamma(z) itself.
    """
    n = round(z.real)
    return abs(z) / abs(z - n) if n < 0 else 1.0


def _complex_log_gamma(z: complex) -> tuple[float, float, float]:
    log = _log_gamma(z)
    return log.real, log.imag, abs(log)


def _hyp2f1_connection(
    a: complex, b: complex, c: complex, x: complex, side: BranchSide, quad_tol: float
) -> complex | None:
    """2F1 off the disk from its 1/x or 1/(1-x) connection formula, or None.

    With w = 1/x (DLMF 15.8.2, p = -x) or w = 1/(1-x) (DLMF 15.8.3, p = 1-x),
    whichever is nearer 0,

        2F1(a, b; c | x) = G1 p**(-a) 2F1(a, a1; 1+a-b | w)
                         + G2 p**(-b) 2F1(b, b1; 1+b-a | w),
        G1 = Gamma(c) Gamma(b-a) / (Gamma(b) Gamma(c-a)),
        G2 = Gamma(c) Gamma(a-b) / (Gamma(a) Gamma(c-b)),

    with (a1, b1) = (1+a-c, 1+b-c) for 1/x and (c-b, c-a) for 1/(1-x).  A
    term whose 1/Gamma(b) Gamma(c-a) or 1/Gamma(a) Gamma(c-b) is at a pole
    is exactly 0.  Each term's factor G p**(-e) is exp of a sum of five
    logarithms, so it neither overflows nor underflows on the way.  The sum
    runs on float (real, imaginary) pairs in a complex sum's order, so it
    rounds as that sum would; real a, b and c take `_real_log_gamma`.

    The value is returned only when |w| <= 0.9, no log-Gamma raised, both
    factors lie inside the float range, the value is finite and the error
    bound is at most quad_tol * |value|.  The bound adds, for each term,
    the series' rounding bound and the rounding of the exponent times the
    term's size.  The exponent's rounding is a few eps times the size of
    each of its logarithms, plus, for the rounded Gamma arguments b - a,
    a - b, c - a and c - b, a few eps times their `_pole_gain`.  It
    refuses integer a - b (a Gamma pole), near-integer a - b and any other
    cancellation between the terms, and sums whose own terms cancel.  A NaN
    anywhere fails the test too.
    """
    if a.imag or b.imag or c.imag:
        log_gamma = _complex_log_gamma
    else:
        a, b, c, log_gamma = a.real, b.real, c.real, _real_log_gamma
    w_x, w_1mx = 1.0 / x, 1.0 / (1.0 - x)
    if abs(w_x) <= abs(w_1mx):
        w, p, a1, b1 = w_x, -x, 1.0 + a - c, 1.0 + b - c
    else:
        w, p, a1, b1 = w_1mx, 1.0 - x, c - b, c - a
    if not abs(w) <= _SERIES_RADIUS:
        return None
    if _on_cut(x):
        # on the cut |1/x| < |1/(1-x)|, so p = -x: the limit x - i0 (BELOW)
        # is p + i0, at arg +pi, the opposite side as in _pfaff_args
        log_p = complex(math.log(x.real), math.pi if _below(x, side) else -math.pi)
    else:
        log_p = cmath.log(p)
    value, error = 0j, 0.0
    try:
        # integer a - b puts Gamma(b-a) or Gamma(a-b) at a pole, and with it
        # the series' lower parameter 1 +- (a-b): both raise before any sum.
        # The lower parameters are formed from a and b, not from the rounded
        # a - b, which would lose their relative precision near an integer.
        ba, ab = b - a, a - b
        (g0, h0, s0), lg_ba, lg_ab = log_gamma(c), log_gamma(ba), log_gamma(ab)
        for e, e1, low, d, (g1, h1, s1), r1, r2 in ((a, a1, 1.0 + a - b, ba, lg_ba, b, c - a), (b, b1, 1.0 + b - a, ab, lg_ab, a, c - b)):
            if _at_pole(r1) or _at_pole(r2):
                continue
            # the parts log Gamma(c), log Gamma(d), -log Gamma(r1), -log Gamma(r2), -e log p
            (g2, h2, s2), (g3, h3, s3) = log_gamma(r1), log_gamma(r2)
            power = -e * log_p
            log_factor = g0 + g1 - g2 - g3 + power.real
            if not abs(log_factor) <= _LOG_RANGE:
                return None
            total, bound = _gauss_sum(e, e1, low, w)
            factor = cmath.exp(complex(log_factor, h0 + h1 - h2 - h3 + power.imag))
            value += factor * total
            sizes = 1.0 + _pole_gain(d) + _pole_gain(r2) + (s0 + s1 + s2 + s3 + abs(power))
            exponent_error = _CONNECTION_ROUNDING * sizes
            error += abs(factor) * (bound + exponent_error * abs(total))
    except (DomainError, GammaPoleError, OverflowError):
        return None
    if not (cmath.isfinite(value) and error <= quad_tol * abs(value)):
        return None
    if not (a.imag or b.imag or c.imag or x.imag) and x.real < 1.0:
        # real off the cut: the Gamma reflections leave only rounding in Im
        return complex(value.real, 0.0)
    return value


def appell_f1(
    a: complex,
    b1: complex,
    b2: complex,
    c: complex,
    x1: complex,
    x2: complex,
    side: BranchSide = DEFAULT_SIDE,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> complex:
    """Appell F1: series by total degree inside the polydisk, else Euler integral.

    The series runs at whichever of (x1, x2) and its Pfaff image
    (x1/(x1-1), x2/(x2-1)) has the smaller largest modulus, when that is at
    most 0.9.  Outside, the Euler integral gives the value where it applies
    (see `_euler_fd`), and a `DomainError` is raised elsewhere.

    Arguments on the cut [1, inf) take their side as in `hyp2f1`, each on
    its own.  ``quad_tol`` must lie in [1e-13, inf).
    """
    a, b1, b2, c = complex(a), complex(b1), complex(b2), complex(c)
    x1, x2 = complex(x1), complex(x2)
    _check_finite(a, b1, b2, c, x1, x2)
    _check_c(c)
    return _fd(a, (b1, b2), c, (x1, x2), side, quad_tol)


def lauricella_fd(
    spec: HyperSpec,
    side: BranchSide = DEFAULT_SIDE,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> complex:
    """Lauricella FD of any order n >= 1 (n=1 is 2F1, n=2 is Appell F1).

    For n >= 2 it takes the route of `appell_f1`: the series when n = 2 and
    the arguments or their Pfaff images lie inside the polydisk, else the
    Euler integral where it applies.  For n >= 3 there is no series yet.
    Arguments on the cut take their side as in `hyp2f1`, each on its own.
    """
    if spec.order == 1:
        return hyp2f1(spec.a, spec.bs[0], spec.c, spec.xs[0], side, quad_tol)
    return _fd(spec.a, spec.bs, spec.c, spec.xs, side, quad_tol)


def _fd(
    a: complex,
    bs: Sequence[complex],
    c: complex,
    xs: Sequence[complex],
    side: BranchSide,
    quad_tol: float,
) -> complex:
    """FD of order n >= 2 at coerced and checked parameters."""
    check_quad_tol(quad_tol)
    if any(_near_one(x) for x in xs):
        raise DomainError("argument 1 is on the divergence boundary")
    if len(xs) == 2:
        (b1, b2), (x1, x2) = bs, xs
        r_x = max(abs(x1), abs(x2))
        r_y = max(abs(x1 / (x1 - 1.0)), abs(x2 / (x2 - 1.0)))
        if r_y < r_x and r_y <= _SERIES_RADIUS:
            pref, (y1, y2) = _pfaff_args(bs, xs, side)
            return _finite(pref * _appell_series(c - a, b1, b2, c, y1, y2))
        if r_x <= _SERIES_RADIUS:
            return _appell_series(a, b1, b2, c, x1, x2)
    value = _euler_fd(a, bs, c, xs, side, quad_tol)
    if value is None:
        position, _, exponent, *_ = _divergent(_singular_points(a, bs, c, xs, side))
        raise DomainError(
            f"no admissible evaluation path for FD(a={a}; bs={tuple(bs)}; c={c} | xs={tuple(xs)}): "
            "the Euler integral needs Re c > Re a > 0 and, at each argument on the cut, "
            "Re b < 1 summed over the arguments equal to it; "
            f"it diverges first at u = {position!r}, exponent {exponent!r}"
        )
    return value


# ---------------------------------------------------------------------------
# transformations

def _pfaff_args(
    bs: Sequence[complex], xs: Sequence[complex], side: BranchSide
) -> tuple[complex, tuple[complex, ...]]:
    """The Pfaff prefactor prod (1 - x)**(-b) and the images x/(x-1)."""
    pref: complex = 1.0 + 0.0j
    new_xs = []
    for b, x in zip(bs, xs):
        if _near_one(x):
            raise DomainError("Pfaff transformation has a pole at argument 1")
        # 1 - x is on the power's cut only for real x > 1, where x - i0 gives 1 - x + i0
        pref *= principal_pow(1.0 - x, -b, side.flipped())
        new_xs.append(x / (x - 1.0))
    return pref, tuple(new_xs)


def pfaff_f1(
    a: complex,
    b1: complex,
    b2: complex,
    c: complex,
    x1: complex,
    x2: complex,
    side: BranchSide = DEFAULT_SIDE,
) -> tuple[HyperSpec, complex]:
    """First-degree transformation x -> x/(x-1) for Appell F1.

    Returns (transformed spec, prefactor) with
    F1(a; b1, b2; c | x1, x2) = prefactor * F1(transformed).
    """
    spec = HyperSpec(a, (b1, b2), c, (x1, x2))
    pref, new_xs = _pfaff_args(spec.bs, spec.xs, side)
    return HyperSpec(spec.c - spec.a, spec.bs, spec.c, new_xs), pref


def fd_order_reduce(spec: HyperSpec, side: BranchSide = DEFAULT_SIDE) -> tuple[HyperSpec, complex]:
    """Eliminate the last argument when c equals the sum of the b parameters.

    Returns (reduced spec, prefactor) with FD(spec) = prefactor * FD(reduced),
    the reduced arguments being (x_k - x_n)/(1 - x_n) and the prefactor
    (1 - x_n)**(-a).
    """
    if spec.order < 2:
        raise DomainError("order reduction needs at least two arguments")
    b_sum = sum(spec.bs)
    if abs(spec.c - b_sum) > 1e-12:
        raise DomainError(f"order reduction requires c = sum(bs); c = {spec.c}, sum = {b_sum}")
    x_n = spec.xs[-1]
    if _near_one(x_n):
        raise DomainError("cannot eliminate an argument equal to 1")
    pref = principal_pow(1.0 - x_n, -spec.a, side.flipped())  # as in _pfaff_args
    new_xs = tuple((x - x_n) / (1.0 - x_n) for x in spec.xs[:-1])
    return HyperSpec(spec.a, spec.bs[:-1], spec.c, new_xs), pref


# ---------------------------------------------------------------------------
# Eulerian integral closed forms

def eulerian_a(n: int, a: complex, b: complex) -> complex:
    """Closed form of int_0^1 t**(a-1) (1 - t**n)**(-b) dt, a `_gamma_quotient`, for n > 0."""
    if not n > 0:
        raise DomainError(f"need n > 0, got n = {n}")
    a, b = complex(a), complex(b)
    if a.real <= 0.0 or b.real >= 1.0:
        raise DomainError(f"need Re a > 0 and Re b < 1, got a = {a}, b = {b}")
    return _gamma_quotient((a / n, 1.0 - b), (1.0 + a / n - b,), n)


def eulerian_b(n: int, a: float, b: float) -> complex:
    """Closed form of int_0^inf t**(a-1) (1 + t**n)**(-b) dt, a `_gamma_quotient`."""
    if not (a > 0.0 and b > 0.0 and n * b > a):
        raise DomainError(f"need a > 0, b > 0, n b > a; got n = {n}, a = {a}, b = {b}")
    return _gamma_quotient((a / n, (n * b - a) / n), (b,), n)
