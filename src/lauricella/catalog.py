"""The identity catalog: every closed-form evaluation in the source text.

Family entries are expanded onto small explicit grids so that reports are
reproducible.  Where a printed form fails numerically, the record stores the
corrected form (used for pass/fail) together with the printed one; the
verifier reports such entries as ``pass_with_erratum``.

Closed forms (Gamma quotients, elliptic integrals at singular moduli, pi)
are values: each is computed once, at import, when its record is built, and
a record holds it as a constant plan.  A closed form that raises is a
programming error and fails the import.  Only the hypergeometric sides and
their combinations are deferred plans, evaluated when a record is checked,
so their failures are ``fail`` rows.
"""

from __future__ import annotations

import cmath
import math

from .core import gamma, principal_pow, roots_of_unity, unit_partition_roots
from .elliptic import (
    MODULUS_HERMITE_QUARTIC,
    MODULUS_INV_SQRT2,
    MODULUS_SERRET_CUBIC,
    MODULUS_SIN15,
    MODULUS_SIN75,
    MODULUS_SQRT2_MINUS_1,
    complete_e,
    complete_k,
    incomplete_f,
)
from .hyperfun import HyperSpec, appell_f1, hyp2f1, lauricella_fd
from .identities import Erratum, EvalContext, IdentityRecord, _hyper_plan, _scaled

__all__ = ["RECORDS"]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT7 = math.sqrt(7.0)
SQRT21 = math.sqrt(21.0)
SQRT22 = math.sqrt(22.0)
SQRT33 = math.sqrt(33.0)
I = 1j


# ---------------------------------------------------------------------------
# plan helpers

def _2f1(a, b, c, x):
    return _hyper_plan("2f1", HyperSpec(a, (b,), c, (x,)),
                       lambda tol: hyp2f1(a, b, c, x, quad_tol=tol))


def _f1(a, b1, b2, c, x1, x2):
    return _hyper_plan("f1", HyperSpec(a, (b1, b2), c, (x1, x2)),
                       lambda tol: appell_f1(a, b1, b2, c, x1, x2, quad_tol=tol))


def _fd(a, bs, c, xs):
    spec = HyperSpec(a, tuple(bs), c, tuple(xs))
    return _hyper_plan("fd", spec, lambda tol: lauricella_fd(spec, quad_tol=tol))


def _kummer_rhs(n: int, a: float, b: float) -> complex:
    # Gamma quotient shared by the boundary families of every order n
    return gamma(1 + a - b) * gamma(1 + a / n) / (gamma(1 + a) * gamma(1 + a / n - b))


def _grad_rhs(n: int, a: float, b: float) -> complex:
    # Gamma quotient of the outside-disk families (Mellin evaluation)
    return (
        gamma(a / n) * gamma(n * b) * gamma((n * b - a) / n)
        / (n * gamma(a) * gamma(b) * gamma(n * b - a))
    )


# complete elliptic integrals at the singular moduli of the catalog
_K12 = complete_k(MODULUS_INV_SQRT2)
_K15 = complete_k(MODULUS_SIN15)
_K21 = complete_k(MODULUS_SQRT2_MINUS_1)
_GAMMA_THIRD_CUBED = abs(gamma(1.0 / 3.0)) ** 3


# arguments shared by several section-4 continuation entries
_Z6 = (0.5 - I * SQRT3 / 2, 1.5 - I * SQRT3 / 2, 2.0, 1.5 + I * SQRT3 / 2, 0.5 + I * SQRT3 / 2)
_Z8 = (
    1 - (1 + I) / SQRT2, 1 - I, 1 + (1 - I) / SQRT2, 2.0,
    1 + (1 + I) / SQRT2, 1 + I, 1 - (1 - I) / SQRT2,
)

# Lauricella arguments of the genus-3 combination (H1, H2)
_H_ARGS = (
    (3.0 - SQRT33) / 10.0,
    5.0 * (27.0 - 5.0 * SQRT33) / (153.0 + 8.0 * math.sqrt(6.0) - 25.0 * SQRT33),
    5.0 * (27.0 - 5.0 * SQRT33) / (153.0 - 8.0 * math.sqrt(6.0) - 25.0 * SQRT33),
)
_H1 = _fd(1.0, (-0.25, 0.5, 0.5), 1.5, _H_ARGS)
_H2 = _fd(1.0, (0.75, 0.5, 0.5), 1.5, _H_ARGS)
_H_C1 = (15625.0 * (1649.0 + 225.0 * SQRT33) / 55296.0) ** 0.25
_H_C2 = math.sqrt(5.0 * (1552.0 * SQRT3 + 816.0 * math.sqrt(11.0))) / 96.0

# Lauricella arguments of the genus-4 combination (L1, L2)
_L_ARGS = (
    5.0 * (23.0 - 16.0 * SQRT22) / 567.0,
    0.5 - 17.0 / (8.0 * SQRT22),
    16.0 * SQRT22 - 75.0,
)
_L1 = _fd(0.5, (0.25, 0.5, 0.5), 1.0, _L_ARGS)
_L2 = _fd(0.5, (-0.75, 0.5, 0.5), 1.0, _L_ARGS)
_L_C1 = 91.0 * math.pi / (6.0 * (264.0 * (169.0 + 36.0 * SQRT22)) ** 0.25)
_L_C2 = (
    (113.0 - 20.0 * SQRT22) ** 0.75 * math.pi
    / (2.0 * 3.0 ** 0.25 * math.sqrt(176.0 + 38.0 * SQRT22))
)


def _maier_lhs(ctx: EvalContext) -> complex:
    return _L_C1 * _L1(ctx) - _L_C2 * _L2(ctx)


def _hermite_g3_lhs(ctx: EvalContext) -> complex:
    return math.sqrt(12.0 / 125.0) * (_H_C1 * _H1(ctx) - _H_C2 * _H2(ctx))


def _pi_corollary_lhs(ctx: EvalContext) -> complex:
    denom = 91.0 * _L1(ctx) * 22.0 ** 0.25 - _L2(ctx) * math.sqrt(21569.0 * SQRT22 - 99440.0)
    return 12.0 * math.sqrt(22.0 * (9.0 + 2.0 * SQRT22)) / denom * _K12


# ---------------------------------------------------------------------------
# catalog

def _lift(side):
    """A plan as it is; a closed form's value as the plan that returns it."""
    return side if callable(side) else lambda ctx: side


def _records() -> dict[str, IdentityRecord]:
    out: dict[str, IdentityRecord] = {}

    def rec(id, anchor, lhs, rhs, tol=1e-8, erratum=None):
        # a side that is a number, and an erratum's (printed value, note), become constant plans
        assert id not in out, id
        if erratum is not None:
            erratum = Erratum(_lift(erratum[0]), erratum[1])
        out[id] = IdentityRecord(id, anchor, _lift(lhs), _lift(rhs), tol, erratum)

    # --- outside-disk 2F1 family and its pinned instance ------------------
    # the grid omits (1,1): with b = 1 both parameter orders leave a
    # non-integrable (1-2u)**-1 split in the representation integral
    for a, b in ((0.5, 0.75), (1.5, 1.0)):
        s = 2 * b - a
        rec(
            f"lunga[a={a},b={b}]",
            'eq. (1): "we proved that, if"',
            _2f1(s, b, 2 * b, 2.0),
            principal_pow(-1j, s) * math.sqrt(math.pi) * gamma(b + 0.5)
            / (gamma((a + 1) / 2) * gamma((s + 1) / 2)),
        )

    rec(
        "enu5-1",
        'eq. (2): "for instance, the first is"',
        _2f1(0.5, 0.75, 1.5, 2.0),
        (1 - I) / 2 * _K12,
    )

    # --- boundary families -------------------------------------------------
    for a, b in ((1.0, 0.5), (0.5, 0.25), (1.5, 0.75), (2.0, 0.25), (2.5, 0.75), (3.0, 0.5)):
        rec(
            f"kummer[a={a},b={b}]",
            'eq. (4): "generalizing the Kummer identity"',
            _2f1(a, b, 1 + a - b, -1.0),
            _kummer_rhs(2, a, b),
            tol=1e-10,
        )

    w3 = roots_of_unity(3)
    for a, b in ((0.5, 0.25), (1.0, 0.5), (1.5, 0.75)):
        rec(
            f"effe1[a={a},b={b}]",
            'eq. (9): "two-variable generalization of the Kummer identity"',
            _f1(a, b, b, 1 + a - b, w3[0], w3[1]),
            _kummer_rhs(3, a, b),
        )
    rec(
        "effe1b",
        'display (9b): "using the Pfaff transformation we can rewrite"',
        _f1(0.5, 0.5, 0.5, 1.5, (1 - I / SQRT3) / 2, (1 + I / SQRT3) / 2),
        3.0 ** 0.5 * _kummer_rhs(3, 1.0, 0.5),
    )

    rec(
        "fd3",
        'eq. (12): "Kummer-like formula for the Lauricella"',
        _fd(1.0, (0.5, 0.5, 0.5), 1.5, (-1.0, I, -I)),
        _kummer_rhs(4, 1.0, 0.5),
    )
    rec(
        "fd3b",
        'display (12b), the first-degree transform of eq. (12)',
        _fd(0.5, (0.5, 0.5, 0.5), 1.5, (0.5, (1 - I) / 2, (1 + I) / 2)),
        2.0 * _kummer_rhs(4, 1.0, 0.5),
    )

    for n in (5, 6, 8):
        rec(
            f"fdn[n={n}]",
            'theorem 1: "root of unity so that"',
            _fd(1.0, (0.5,) * (n - 1), 1.5, tuple(roots_of_unity(n))),
            _kummer_rhs(n, 1.0, 0.5),
        )
        zs = tuple(w / (w - 1) for w in roots_of_unity(n))
        rec(
            f"fdnb[n={n}]",
            "theorem 1, transformed form",
            _fd(0.5, (0.5,) * (n - 1), 1.5, zs),
            n ** 0.5 * _kummer_rhs(n, 1.0, 0.5),
        )

    # --- outside-disk families ---------------------------------------------
    for m, a, b in ((1, 0.5, 0.75), (2, 1.5, 0.5), (3, 1.0, 0.5)):
        n = 2 * m
        rec(
            f"even[m={m}]",
            'theorem 2, even case: "Assume that a>0, b>0, nb>a"',
            _fd(n * b - a, (b,) * n, n * b, tuple(unit_partition_roots(n))),
            _grad_rhs(n, a, b),
        )
    for m, a, b in ((2, 0.5, 0.5), (3, 1.0, 0.5)):
        n = 2 * m - 1
        rec(
            f"odd[m={m}]",
            "theorem 2, odd case",
            _fd(n * b - a, (b,) * (n - 1), n * b, tuple(unit_partition_roots(n))),
            _grad_rhs(n, a, b),
        )
    for m, a, b in ((1, 0.5, 0.75), (2, 1.0, 0.5)):
        n = 2 * m
        zs = tuple(
            complex(1.0 - math.cos(math.pi * k / m), -math.sin(math.pi * k / m))
            if k != m else 2.0
            for k in range(1, 2 * m)
        )
        pref = principal_pow(-cmath.exp(1j * math.pi / (2 * m)), 2 * b * m - a)
        printed = _grad_rhs(n, a, b)
        rec(
            f"even-reduced[m={m}]",
            'remark after theorem 2: "to reduce the order of the Lauricella"',
            _scaled(pref, _fd(n * b - a, (b,) * (2 * m - 1), n * b, zs)),
            -printed,
            erratum=(
                printed,
                "the printed prefactor, read on the principal branch, yields "
                "minus the below-side value (the m=1 case holds exactly on the "
                "above side)",
            ),
        )

    # --- elliptic-valued catalog -------------------------------------------
    rec(
        "k12rep",
        '"Starting with the following elliptic integrals" (quartic case)',
        _fd(1.0, (0.5,) * 4, 2.0, tuple(unit_partition_roots(4))),
        _K12,
    )
    rec(
        "kr6r2rep",
        '"Starting with the following elliptic integrals" (cubic case)',
        _fd(1.0, (0.5, 0.5), 1.5, tuple(unit_partition_roots(3))),
        2.0 / 27.0 ** 0.25 * _K15,
    )
    rec(
        "fd3-two",
        '"values of F_D^(3) when one of the variables is in the positive real axis"',
        _fd(1.0, (0.5, 0.5, 0.5), 2.0, (1 - I, 2.0, 1 + I)),
        (1 - I) / SQRT2 * _K12,
        erratum=(
            -(1 - I) / SQRT2 * _K12,
            "printed with the opposite sign; the below-side limit has positive "
            "real part",
        ),
    )

    rec(
        "gr-3-183-2",
        '"integral 3.183.2 p. 313"',
        _2f1(1.0, 0.25, 1.75, -1.0),
        0.75 * SQRT2 * (2 * complete_e(MODULUS_INV_SQRT2) - _K12),
    )
    rec(
        "gr-3-184-1",
        '"entry 3.184.1 p. 314"',
        _2f1(3.0, 0.25, 3.75, -1.0),
        231.0 * SQRT2 / 320.0 * (2 * complete_e(MODULUS_INV_SQRT2) - _K12),
    )
    rec(
        "gr-3-185-2",
        '"formula 3.185.2 p. 314"',
        _2f1(1.0, 0.75, 1.25, -1.0),
        SQRT2 / 4.0 * _K12,
    )
    rec(
        "gr-3-185-4",
        '"entry 3.185.4 p. 314"',
        _2f1(3.0, 0.75, 3.25, -1.0),
        15.0 / (32.0 * SQRT2) * _K12,
    )

    rec(
        "bf-576-00b",
        '"entries 576.00 p. 256 and 578.00" (sextic, inside)',
        _fd(1.0, (0.5,) * 5, 1.5, tuple(roots_of_unity(6))),
        1.0 / (2.0 * 3.0 ** 0.25) * _K15,
        erratum=(
            1.0 / (4.0 * 3.0 ** 0.25) * _K15,
            "printed coefficient 1/4; the order-5 representation of the "
            "sextic integral carries 1/2 (factor 2)",
        ),
    )
    rec(
        "bf-578-00b",
        '"entries 576.00 p. 256 and 578.00" (sextic, outside)',
        _fd(2.0, (0.5,) * 6, 3.0, tuple(unit_partition_roots(6))),
        4.0 / 27.0 ** 0.25 * _K15,
        tol=1e-7,
    )
    rec(
        "serretprol",
        "continuation of entry 578.00 with one argument equal to 2",
        _fd(2.0, (0.5,) * 5, 3.0, _Z6),
        (0.5 - I * SQRT3 / 2) * 4.0 / 27.0 ** 0.25 * _K15,
        tol=1e-7,
        erratum=(
            (-SQRT3 / 2 + I / 2) * 4.0 / 27.0 ** 0.25 * _K15,
            "printed prefactor is the eliminated-argument factor to the first "
            "power; the order reduction of an a=2 entry requires its square",
        ),
    )

    rec(
        "legendre-fd7",
        '"p. 383, proved that"',
        _fd(1.0, (0.5,) * 7, 1.5, tuple(roots_of_unity(8))),
        1.0 / (2.0 * SQRT2) * _K21,
        tol=1e-7,
    )
    rec(
        "richelot-fd7",
        '"Richelot in [R] evaluated"',
        _fd(3.0, (0.5,) * 7, 3.5, tuple(roots_of_unity(8))),
        15.0 / 16.0 * (1.0 - 1.0 / SQRT2) * _K21,
        tol=1e-7,
        erratum=(
            15.0 / 16.0 * (1.0 - 1.0 / (2.0 * SQRT2)) * _K21,
            "printed coefficient (1 - 1/(2 sqrt 2)); the octic source integral "
            "carries (1 - 1/sqrt 2)",
        ),
    )

    for tag, first, c in (("fd8a", 3.0, 4.0), ("fd8b", 1.0, 4.0)):
        rec(
            tag,
            "order-8 values from the octic integrals",
            _fd(first, (0.5,) * 8, c, tuple(unit_partition_roots(8))),
            3.0 * math.sqrt(2.0 - SQRT2) * _K21,
            tol=1e-7,
        )
    rec(
        "fd7a",
        "order-7 continuation values with one argument equal to 2 (a = 3)",
        _fd(3.0, (0.5,) * 7, 4.0, _Z8),
        3.0 * ((1.0 - 1.0 / SQRT2) - I / SQRT2) * _K21,
        tol=1e-7,
        erratum=(
            (-3.0 / SQRT2 + I * (3.0 - 3.0 / SQRT2)) * _K21,
            "printed value is i times the conjugate of the below-side value",
        ),
    )
    rec(
        "fd7b",
        "order-7 continuation values with one argument equal to 2 (a = 1)",
        _fd(1.0, (0.5,) * 7, 4.0, _Z8),
        3.0 * (1.0 / SQRT2 - I * (1.0 - 1.0 / SQRT2)) * _K21,
        tol=1e-7,
        erratum=(
            (3.0 * (1.0 / SQRT2 - 1.0) + 3.0 * I / SQRT2) * _K21,
            "printed value is i times the conjugate of the below-side value",
        ),
    )
    rec(
        "fd7c",
        "order-7 boundary value from the octic x**4 integral",
        _fd(5.0, (0.5,) * 7, 5.5, tuple(roots_of_unity(8))),
        315.0 * math.pi / (1024.0 * SQRT2 * _K21),
        tol=1e-7,
    )
    rec(
        "fd7d",
        "order-7 boundary value from the octic x**6 integral",
        _fd(7.0, (0.5,) * 7, 7.5, tuple(roots_of_unity(8))),
        1001.0 * (2.0 + SQRT2) * math.pi / (16384.0 * _K21),
        tol=1e-7,
    )

    rec(
        "serret-fd6",
        '"considered by Serret"',
        _fd(1.0, (1 / 3,) * 6, 2.0, tuple(unit_partition_roots(6))),
        4.0 ** (1 / 3) / 3.0 ** 0.25 * _K15,
    )
    rec(
        "serretprol2",
        "continuation of the Serret entry with one argument equal to 2",
        _fd(1.0, (1 / 3,) * 5, 2.0, _Z6),
        (SQRT3 / 2 - I / 2) * 4.0 ** (1 / 3) / 3.0 ** 0.25 * _K15,
        erratum=(
            (-SQRT3 / 2 + I / 2) * 4.0 ** (1 / 3) / 3.0 ** 0.25 * _K15,
            "printed with the opposite sign; the below-side limit has positive "
            "real part",
        ),
    )
    rec(
        "capXXX205b",
        '"Legendre evaluated an integral similar"',
        _fd(1.0, (1 / 3,) * 5, 5 / 3, tuple(roots_of_unity(6))),
        32.0 ** (1 / 3) / 2187.0 ** 0.25 * _K15,
    )
    rec(
        "capXXX205-fd4",
        "closing order-4 value from the cubic-root sextic integral",
        _fd(1.0, (1 / 3,) * 4, 5 / 3,
            (1.5 + I * SQRT3 / 2, 1 + I * SQRT3, I * SQRT3, -0.5 + I * SQRT3 / 2)),
        (0.5 + I * SQRT3 / 2) * 32.0 ** (1 / 3) / 2187.0 ** 0.25 * _K15,
    )

    # --- section-5 theorems -------------------------------------------------
    rec(
        "bg00",
        'theorem 5.2: "new evaluation of the analytic continuation"',
        _f1(2 / 3, 0.5, 0.5, 5 / 3, -2.0, -8.0),
        _GAMMA_THIRD_CUBED / (3.0 * math.pi * 16.0 ** (1 / 3) * SQRT3),
        erratum=(
            _GAMMA_THIRD_CUBED / (math.pi * 16.0 ** (1 / 3) * SQRT3),
            "printed right side equals the whole source integral; the cubic "
            "reduction factor 3 is missing (ratio 3)",
        ),
    )
    rec(
        "bg00a",
        "theorem 5.2, incomplete-elliptic form",
        _f1(2 / 3, 0.5, 0.5, 5 / 3, -2.0, -8.0),
        3.0 ** -1.25 * incomplete_f(math.acos(2.0 - SQRT3), MODULUS_SIN75),
    )
    rec(
        "bg01",
        'theorem 5.3: "a new evaluation of the Appell"',
        _f1(1 / 3, 0.5, 0.5, 4 / 3, -0.5, -0.125),
        _GAMMA_THIRD_CUBED / (math.pi * math.sqrt(27.0) * 2.0 ** (1 / 3)),
    )
    rec(
        "bg01-elliptic",
        "eq. (5.9b), incomplete-elliptic form of theorem 5.3",
        _f1(1 / 3, 0.5, 0.5, 4 / 3, -0.5, -0.125),
        2.0 / (3.0 * 3.0 ** 0.25)
        * incomplete_f(math.acos(2.0 - SQRT3), MODULUS_SIN75),
    )

    om = 0.5 - I * SQRT3 / 2
    eps = 0.5 - I * SQRT7 / 2
    alf = -0.375 - I * SQRT7 / 8
    laured_lhs = _fd(2.0, (0.5,) * 6, 3.0,
                     (-1.0, om, om.conjugate(), -2.0, eps, eps.conjugate()))
    rec(
        "laured",
        'theorem 5.4: "We have the reduction"',
        laured_lhs,
        _scaled(2.0 / 3.0, _f1(1.0, 0.5, 0.5, 1.5, alf, alf.conjugate())),
    )
    rec(
        "lauredb",
        "remark after theorem 5.4, incomplete-elliptic form",
        laured_lhs,
        2.0 ** 0.25 / 3.0
        * incomplete_f(math.acos((9.0 - 4.0 * SQRT2) / 7.0), MODULUS_SERRET_CUBIC),
    )
    rec(
        "laured-fd5",
        "remark after theorem 5.4, order-5 form",
        laured_lhs,
        _scaled(0.25, _fd(2.0, (0.5,) * 5, 3.0,
                          (-0.5, (3 - I * SQRT3) / 4, (3 + I * SQRT3) / 4,
                           (3 - I * SQRT7) / 4, (3 + I * SQRT7) / 4))),
    )

    rec(
        "hermyF1",
        '"linking the Appell function to the complete"',
        _scaled(SQRT3, _f1(0.25, 0.5, 0.5, 1.25, 1 / 3, 0.25)),
        _K12,
    )
    her_args = (
        (3.0 * SQRT21 - 17.0) / 25.0,
        (3.0 - SQRT21) / 12.0,
        (SQRT21 - 3.0) / 3.0,
        (11.0 - SQRT21) / 25.0,
    )
    rec(
        "her1876bth",
        '"The hypergeometric approach through the integral representation"',
        5.0 / 14.0 * math.sqrt(7.0 / 3.0 + math.sqrt(7.0 / 3.0))
        * complete_k(MODULUS_HERMITE_QUARTIC),
        _fd(0.5, (0.5,) * 4, 1.5, her_args),
        erratum=(
            _fd(0.5, (0.5,) * 4, 0.75, her_args),
            "printed lower parameter 3/4; the quintic integral representation "
            "requires 3/2",
        ),
    )
    rec(
        "idhermiteK",
        '"H_1 and H_2 are two Lauricella"',
        _hermite_g3_lhs,
        (4.0 / 3.0) ** 0.25 * _K12,
    )
    rec(
        "maier-g4",
        'theorem 5.7: "L_1 and L_2 are two Lauricella"',
        _maier_lhs,
        (4.0 / 3.0) ** 0.25 * _K12,
    )
    rec(
        "pi-corollary",
        'corollary 5.8: "new formula for pi"',
        _pi_corollary_lhs,
        math.pi,
    )

    return out


# the registry, id -> record, built once at import
RECORDS = _records()
