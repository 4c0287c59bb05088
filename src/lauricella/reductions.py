"""Hyperelliptic-to-elliptic reduction checks by quadrature of both sides.

Every check here is an ``IdentityRecord`` whose sides are integral plans
(``IntegralSide``): a reduction's two definite integrals, plus the rational
substitution behind it and, where available, the closed-form value both
sides must equal; and the three radical-integral representation formulas,
an integral against a Lauricella FD value.  Verification integrates both
sides numerically and never relies on the substitution algebra itself.
A closed form is computed once, at import, when its record is built (a
closed form that raises is a programming error that fails the import); the
integral and FD sides are evaluated when a record is checked, so their
failures are ``fail`` rows.
One run evaluates each distinct integral or FD value once, as every
``run_all`` call does: the two Legendre relations share their semi-infinite
integrals, and a record whose values were computed earlier in the run
reports an ``elapsed`` near 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .core import gamma
from .elliptic import (
    MODULUS_HERMITE_QUARTIC,
    MODULUS_INV_SQRT2,
    MODULUS_SERRET_CUBIC,
    complete_k,
    incomplete_f,
)
from .hyperfun import DEFAULT_QUAD_TOL, HyperSpec, lauricella_fd
from .identities import (
    EvalContext, EvalReport, IdentityRecord, Plan, _hyper_plan, _once_per_run, _scaled, _verify_record,
    lookup, run_all,
)
from .quadrature import SEMI_QUAD_TOL, IntegrandSpec, integrate, integrate_semi_infinite

__all__ = [
    "IntegralSide",
    "ReductionRecord",
    "check_reduction",
    "check_all_reductions",
    "reduction_registry",
    "representation_formulas_check",
    "substitution_errors",
]

# the record shape of every check here, under its historical name
ReductionRecord = IdentityRecord


@dataclass(frozen=True)
class IntegralSide:
    """The plan `scale` times the integral of `spec` over [lo, hi]."""

    spec: IntegrandSpec
    lo: float
    hi: float                      # math.inf marks a semi-infinite interval
    scale: complex = 1.0

    def __call__(self, ctx: EvalContext) -> complex:
        # semi-infinite sides aim at SEMI_QUAD_TOL, or a tenth of a tighter check
        # tolerance, but never below the finite target, which carries the MIN_QUAD_TOL floor
        if math.isinf(self.hi):
            tol = max(ctx.quad_tol, min(SEMI_QUAD_TOL, ctx.tol / 10.0))
            value = _once_per_run((self.spec, self.lo, self.hi, tol),
                                  lambda: integrate_semi_infinite(self.spec, self.lo, tol).value)
        else:
            tol = ctx.quad_tol
            value = _once_per_run((self.spec, self.lo, self.hi, tol),
                                  lambda: integrate(self.spec, self.lo, self.hi, tol).value)
        return self.scale * value


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def hermite_cubic_root(a: float, b: float) -> float:
    """Largest real root of 4 z**3 - 3 a z - b, polished by Newton."""
    p, q = -0.75 * a, -0.25 * b
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if disc > 0.0:
        # three real roots: trigonometric form, largest branch
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(3.0 * q / (p * r)) / 3.0
        z = r * math.cos(phi)
    else:
        s = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        z = _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)
    for _ in range(60):
        f = 4.0 * z ** 3 - 3.0 * a * z - b
        step = f / (12.0 * z * z - 3.0 * a)
        z -= step
        if abs(step) <= 1e-15 * max(1.0, abs(z)):
            break
    return z


# ---------------------------------------------------------------------------
# record construction

def _jacobi_g2() -> IdentityRecord:
    a, b = 4.0, 2.0
    ab = a * b
    c = -((math.sqrt(a) - math.sqrt(b)) ** 2) / ((1 - a) * (1 - b))
    sab = math.sqrt(ab)

    def lhs(z, dl, dh):
        return (sab + z) / math.sqrt(dl * dh * (ab - z) * (a - z) * (b - z))

    def rhs(x, dl, dh):
        return 1.0 / math.sqrt(dl * dh * (1.0 - c * x))

    return IdentityRecord(
        id="jacobi-g2",
        anchor='"changes to elliptic a genus 2" (degree-2 map), at (a, b) = (4, 2)',
        lhs=IntegralSide(IntegrandSpec(lhs), 0.0, 1.0),
        rhs=IntegralSide(IntegrandSpec(rhs), 0.0, 1.0, 1.0 / math.sqrt((1 - a) * (1 - b))),
        substitution=(lambda z: (1 - a) * (1 - b) * z / ((z - a) * (z - b)), ((0.0, 0.0), (1.0, 1.0))),
    )


def _hermite_ugu() -> IdentityRecord:
    # needs b >= a**1.5 so the integrand stays real on [z1, inf)
    a, b = 1.0, 2.0
    z1 = hermite_cubic_root(a, b)
    quad_c = z1 * z1 - 0.75 * a           # 4z^3-3az-b = 4(z-z1)(z^2+z1 z+quad_c)

    def lhs(z, dl, _dh):
        return z / math.sqrt((z * z - a) * 4.0 * dl * (z * z + z1 * z + quad_c))

    def rhs(y, dl, _dh):
        return 1.0 / math.sqrt(dl * (y * y - 2.0 * z1 * y + 4.0 * z1 * z1 - 3.0 * a))

    return IdentityRecord(
        id="hermite-ugu",
        anchor='"founded on the first Hermite reduction" (degree-3 map), at (a, b) = (1, 2)',
        lhs=IntegralSide(IntegrandSpec(lhs), z1, math.inf),
        rhs=IntegralSide(IntegrandSpec(rhs), -2.0 * z1, math.inf, 1.0 / math.sqrt(6.0)),
        tolerance=1e-7,
        substitution=(lambda z: 2.0 * (z ** 3 - b) / (3.0 * (z * z - a)), ((z1, -2.0 * z1),)),
    )


# closed forms shared by two records each: B(1/3, 1/2)/3 of the Goursat pair, and
# (4/3)**(1/4) K(1/sqrt2) of hermite-g3 and maier-g4
_BETA_THIRD = math.sqrt(math.pi) / 3.0 * gamma(1.0 / 3.0) / gamma(5.0 / 6.0)
_K12 = complete_k(MODULUS_INV_SQRT2)
_G3_CLOSED = (4.0 / 3.0) ** 0.25 * _K12


def _goursat_dig() -> IdentityRecord:
    def lhs(x, dl, _dh):
        return 1.0 / math.sqrt(x * dl * (x * x + x + 1.0))

    def rhs(t, _dl, _dh):
        return 1.0 / math.sqrt((t ** 3 + 2.0) * (t ** 3 + 8.0))

    return IdentityRecord(
        id="goursat-dig",
        anchor='"as starting point to find our next identity" (cubic Goursat map)',
        lhs=IntegralSide(IntegrandSpec(lhs), 1.0, math.inf),
        rhs=IntegralSide(IntegrandSpec(rhs), 1.0, math.inf, 6.0),
        tolerance=1e-7,
        closed_form=lambda: _BETA_THIRD,
        substitution=(lambda t: (t ** 3 + 2.0) / (3.0 * t), ((1.0, 1.0),)),
    )


def _goursat_gb0() -> IdentityRecord:
    def lhs(x, _dl, dh):
        return 1.0 / math.sqrt(dh * (1.0 + x + x * x))

    def rhs(t, _dl, _dh):
        return 1.0 / math.sqrt((t ** 3 + 2.0) * (t ** 3 + 8.0))

    return IdentityRecord(
        id="goursat-gb0",
        anchor='"slight modification of the Goursat reduction"',
        lhs=IntegralSide(IntegrandSpec(lhs), 0.0, 1.0),
        rhs=IntegralSide(IntegrandSpec(rhs), 0.0, 1.0, 6.0),
        closed_form=lambda: _BETA_THIRD,
        substitution=(lambda t: 3.0 * t / (t ** 3 + 2.0), ((0.0, 0.0), (1.0, 1.0))),
    )


def _goursat_011b() -> IdentityRecord:
    closed = 2.0 ** -0.75 * incomplete_f(math.acos((9.0 - 4.0 * math.sqrt(2.0)) / 7.0), MODULUS_SERRET_CUBIC)

    def lhs(x, _dl, dh):
        return 1.0 / math.sqrt(dh * (x * x + 3.0 * x + 4.0))

    def rhs(t, _dl, _dh):
        return 3.0 * t / math.sqrt((t ** 3 + 1.0) * (4.0 * t ** 3 + t + 1.0))

    return IdentityRecord(
        id="goursat-011b",
        anchor='"which can be rewritten as" (complete-cubic Goursat case)',
        lhs=IntegralSide(IntegrandSpec(lhs), 0.0, 1.0),
        rhs=IntegralSide(IntegrandSpec(rhs), 0.0, 1.0),
        closed_form=lambda: closed,
        substitution=(lambda t: t * t * (3.0 - t) / (1.0 + t ** 3), ((0.0, 0.0), (1.0, 1.0))),
    )


def _hermite_b0() -> IdentityRecord:
    # a = 1; the genus-2 side carries the stated factor 3a
    closed = math.sqrt(2.0) * _K12

    def lhs(z, dl, _dh):
        return 3.0 / math.sqrt(dl * (1.0 - z * z) * (3.0 - 4.0 * z * z))

    def rhs(x, dl, dh):
        return 1.0 / math.sqrt(dh * dl * (1.0 - x))

    return IdentityRecord(
        id="hermite-b0",
        anchor="degree-3 Hermite reduction with vanishing constant term, a = 1",
        lhs=IntegralSide(IntegrandSpec(lhs), 0.0, 0.5),
        rhs=IntegralSide(IntegrandSpec(rhs), -1.0, 0.0),
        closed_form=lambda: closed,
        substitution=(lambda z: 4.0 * z ** 3 - 3.0 * z, ((0.0, 0.0), (0.5, -1.0))),
    )


def _hermite_full() -> IdentityRecord:
    a = 28.0 / 3.0
    s73 = math.sqrt(7.0 / 3.0)
    edge = 2.0 * s73                     # sqrt(28/3)
    closed = (
        math.sqrt(3.0) / 14.0 * math.sqrt((s73 - 1.0) * (7.0 / 3.0 + s73))
        * complete_k(MODULUS_HERMITE_QUARTIC)
    )

    def lhs(z, dl, _dh):
        return 1.0 / math.sqrt((a - z * z) * dl * (2.0 - z) * (z + 3.0))

    def rhs(x, dl, dh):
        return 1.0 / math.sqrt(dh * (edge - x) * dl)

    return IdentityRecord(
        id="hermite-full",
        anchor="degree-3 Hermite reduction with both constants fixed (a = 28/3, b = -48)",
        lhs=IntegralSide(IntegrandSpec(lhs), 1.0, s73),
        rhs=IntegralSide(IntegrandSpec(rhs), -edge, -18.0 / 7.0, 1.0 / math.sqrt(21.0)),
        closed_form=lambda: closed,
        substitution=(lambda z: (3.0 * z ** 3 - 21.0 * z) / 7.0, ((1.0, -18.0 / 7.0), (s73, -edge))),
    )


_G3_P1 = (math.sqrt(8.0) - math.sqrt(3.0)) / 5.0
_G3_P2 = (math.sqrt(8.0) + math.sqrt(3.0)) / 5.0
_G3_LO = (math.sqrt(11.0) - math.sqrt(3.0)) / 2.0
_G3_HI = 2.0 / math.sqrt(5.0)


def _cubic_lhs(y, dl, dh):
    # 1/sqrt(y^3 - 3y) on (-sqrt3, 0): positive via |y| = dh, y + sqrt3 = dl
    return 1.0 / math.sqrt(dh * (math.sqrt(3.0) - y) * dl)


_CUBIC_SIDE = IntegralSide(IntegrandSpec(_cubic_lhs), -math.sqrt(3.0), 0.0)


def _g3_map(x: float) -> float:
    phi = 125.0 * x ** 6 - 210.0 * x ** 4 + 93.0 * x * x - 4.0
    psi = phi - 12.0 * x * (x * x - 1.0) * (10.0 * x ** 3 - 8.0 * x)
    return psi / (12.0 * x * (x * x - 1.0) ** 2)


def _hermite_g3() -> IdentityRecord:
    pref = 0.4 * math.sqrt(0.6)

    def rhs(x, _dl, dh):
        return (
            pref * (5.0 * x * x - 1.0)
            / math.sqrt(x * dh * (_G3_HI + x) * (x * x - _G3_P1 ** 2) * (_G3_P2 ** 2 - x * x))
        )

    return IdentityRecord(
        id="hermite-g3",
        anchor='"reducing a hyperelliptic integral of genus 3" (degree-6 map), a = 1, b = 0',
        lhs=_CUBIC_SIDE,
        rhs=IntegralSide(IntegrandSpec(rhs), _G3_LO, _G3_HI),
        closed_form=lambda: _G3_CLOSED,
        substitution=(_g3_map, ((_G3_LO, -math.sqrt(3.0)), (_G3_HI, 0.0))),
    )


_G4_LO = 3.0 * (113.0 - 20.0 * math.sqrt(22.0))
_G4_FAR = 3.0 * (113.0 + 20.0 * math.sqrt(22.0))


def _g4_map(x: float) -> float:
    return (
        (x * x - 84.0) * (x ** 4 + 1617.0 * x * x - 1333584.0) ** 2
        / (100.0 * (x ** 3 - 1029.0 * x) ** 2 * (x ** 3 - 624.0 * x))
    )


def _maier_g4() -> IdentityRecord:
    def rhs(u, dl, dh):
        return (
            5.0 * (273.0 - u) * u ** -0.25
            / math.sqrt((624.0 - u) * dh * dl * (_G4_FAR - u))
        )

    return IdentityRecord(
        id="maier-g4",
        anchor='"Restricting ourselves to the integral where the cubic" (degree-10 map)',
        lhs=_CUBIC_SIDE,
        rhs=IntegralSide(IntegrandSpec(rhs), _G4_LO, 84.0),
        closed_form=lambda: _G3_CLOSED,
        substitution=(_g4_map, (
            (-2.0 * math.sqrt(21.0), 0.0),
            (5.0 * math.sqrt(3.0) - 2.0 * math.sqrt(66.0), -math.sqrt(3.0)),
        )),
    )


def _a_side(n: int, a: int) -> IntegralSide:
    def g(x, _dl, dh):
        poly = 1.0  # 1 + x + ... + x**(n-1), added in that order
        for j in range(1, n):
            poly += x ** j
        return x ** (a - 1) / math.sqrt(dh * poly)

    return IntegralSide(IntegrandSpec(g), 0.0, 1.0)


@functools.cache
def _b_integrand(n: int, a: int) -> IntegrandSpec:
    # one integrand per (n, a), so that both Legendre relations share its integral
    limit = 1e290 ** (1.0 / n)

    def g(t, _dl, _dh):
        if t > limit:
            return t ** (a - 1 - 0.5 * n)
        return t ** (a - 1) / math.sqrt(1.0 + t ** n)

    return IntegrandSpec(g)


def _b_side(n: int, a: int, scale: float = 1.0) -> IntegralSide:
    return IntegralSide(_b_integrand(n, a), 0.0, math.inf, scale)


def _legendre_z1(n: int, a: int) -> IdentityRecord:
    return IdentityRecord(
        id=f"legendre-z1[n={n},a={a}]",
        anchor='"two remarkable formulae due to Legendre", first relation',
        lhs=_a_side(n, a),
        rhs=_b_side(n, a, math.cos(a * math.pi / n)),
        tolerance=1e-7,
    )


def _legendre_z2(n: int, a: int) -> IdentityRecord:
    # the product relation: lhs is the product of the two sides, rhs its closed form
    b_side, a_side = _b_side(n, n - a), _a_side(n, a)
    closed = 2.0 * math.pi / (n * (2 * a - n) * math.sin(math.pi * a / n))
    return IdentityRecord(
        id=f"legendre-z2[n={n},a={a}]",
        anchor='"two remarkable formulae due to Legendre", product relation',
        lhs=lambda ctx: b_side(ctx) * a_side(ctx),
        rhs=lambda ctx: closed,
        tolerance=1e-7,
    )


def reduction_registry() -> list[IdentityRecord]:
    """All reduction records (the two Legendre relations carry small grids)."""
    return list(REDUCTIONS.values())


def check_reduction(
    id: str, tol: Optional[float] = None, quad_tol: float = DEFAULT_QUAD_TOL
) -> EvalReport:
    """Check one reduction or representation record by quadrature of both sides."""
    return _verify_record(lookup(CHECKS, id), tol, quad_tol)


def check_all_reductions(
    filter: Optional[str] = None, tol: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[EvalReport]:
    return run_all(REDUCTIONS, check_reduction, filter, tol, quad_tol)


def substitution_errors(id: str) -> list[float]:
    """|image - expected| for each declared endpoint of the record's map."""
    substitution = lookup(REDUCTIONS, id).substitution
    if substitution is None:
        return []
    map_, points = substitution
    return [abs(map_(x) - expected) for x, expected in points]


# ---------------------------------------------------------------------------
# representation formulas for the section-5 integrands

def _fd_plan(pref: float, a, bs, c, xs) -> Plan:
    spec = HyperSpec(a, tuple(bs), c, tuple(xs))
    return _scaled(pref, _hyper_plan("fd", spec, lambda tol: lauricella_fd(spec, quad_tol=tol)))


def _quintic_case(tag: str, a, b, c, y, d, e) -> IdentityRecord:
    def g(z, dl, _dh):
        return 1.0 / math.sqrt((z - a) * (z - b) * dl * (d - z) * (e - z))

    return IdentityRecord(
        f"rep-quintic[{tag}]", "order-4 representation of the quintic-radical integral",
        IntegralSide(IntegrandSpec(g), c, y),
        _fd_plan(
            2.0 * math.sqrt((y - c) / ((c - a) * (c - b) * (d - c) * (e - c))),
            0.5, (0.5,) * 4, 1.5,
            ((c - y) / (c - a), (c - y) / (c - b), (y - c) / (d - c), (y - c) / (e - c)),
        ),
    )


def _sextic_case(tag: str, a, b, c, y, m) -> IdentityRecord:
    def g(x, _dl, dh):
        return x ** m / math.sqrt(x * dh * (b + x) * (x * x - a * a) * (c * c - x * x))

    delta = b * b - y * y
    # the first parameter of the representation is 1 (the printed 1/2 fails
    # the very quadrature cross-check this record performs)
    return IdentityRecord(
        f"rep-sextic[{tag}]", "order-3 representation of the even-sextic-radical integral",
        IntegralSide(IntegrandSpec(g), y, b),
        _fd_plan(
            y ** (m - 1.5) * math.sqrt(delta / ((y * y - a * a) * (c * c - y * y))),
            1.0, (0.75 - 0.5 * m, 0.5, 0.5), 1.5,
            (-delta / (y * y), delta / (a * a - y * y), delta / (c * c - y * y)),
        ),
    )


def _quartic_case(tag: str, a, b, c, d, m) -> IdentityRecord:
    def g(x, dl, dh):
        return x ** m / math.sqrt(dl * dh * (c - x) * (d - x))

    return IdentityRecord(
        f"rep-quartic[{tag}]", "order-3 representation of the complete quartic-radical integral",
        IntegralSide(IntegrandSpec(g), a, b),
        _fd_plan(
            math.pi * a ** m / math.sqrt((c - a) * (d - a)),
            0.5, (-m, 0.5, 0.5), 1.0,
            ((a - b) / a, (b - a) / (c - a), (b - a) / (d - a)),
        ),
    )


def representation_formulas_check() -> list[EvalReport]:
    """Quadrature vs. hypergeometric value for the three stated formulas."""
    return run_all(REPRESENTATIONS, check_reduction)


# ---------------------------------------------------------------------------
# the registries, id -> record, built once at import

REDUCTIONS: dict[str, IdentityRecord] = {r.id: r for r in (
    _jacobi_g2(),
    _hermite_ugu(),
    _goursat_dig(),
    _goursat_gb0(),
    _goursat_011b(),
    _hermite_b0(),
    _hermite_full(),
    _hermite_g3(),
    _maier_g4(),
    *(_legendre_z1(n, a) for n, a in ((4, 1), (6, 1), (6, 2), (8, 1), (8, 3))),
    *(_legendre_z2(n, a) for n, a in ((4, 3), (6, 4), (8, 5))),
)}

_S73 = math.sqrt(7.0 / 3.0)
REPRESENTATIONS: dict[str, IdentityRecord] = {r.id: r for r in (
    _quintic_case("source", -2.0 * _S73, -3.0, 1.0, _S73, 2.0, 2.0 * _S73),
    _quintic_case("generic", -2.0, -1.0, 0.5, 1.0, 2.0, 3.0),
    _sextic_case("source-m2", _G3_P1, _G3_HI, _G3_P2, _G3_LO, 2),
    _sextic_case("source-m0", _G3_P1, _G3_HI, _G3_P2, _G3_LO, 0),
    _sextic_case("generic", 0.3, 0.9, 1.4, 0.5, 1),
    _quartic_case("source", _G4_LO, 84.0, _G4_FAR, 624.0, -0.25),
    _quartic_case("generic", 1.0, 2.0, 4.0, 7.0, 1),
)}

# everything `lauricella reduce` checks
CHECKS: dict[str, IdentityRecord] = {**REDUCTIONS, **REPRESENTATIONS}
