"""Machine-checkable identity catalog and the double-evaluation verifier.

Each record carries two evaluation plans (a hypergeometric side and a closed
form, or two integrals) plus a tolerance, and optionally a closed-form value
the left side must equal as well, or a declared `Erratum` for a printed form
that fails.
``_verify_record`` is the one check behind the identity catalog, the
reductions and the representation formulas: it evaluates both plans once and
judges the record only as declared.  A record that fails without a declared
erratum stays ``fail``, and its note gives the ratio lhs/rhs so that a printed
factor slip reads off directly.  ``run_all`` runs a check over a registry,
ordered by id.
"""

from __future__ import annotations

import fnmatch
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .core import DEFAULT_QUAD_TOL, MIN_QUAD_TOL

__all__ = [
    "EvalContext",
    "EvalReport",
    "Erratum",
    "IdentityRecord",
    "registry",
    "run_all",
    "verify",
    "verify_all",
]


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs threaded through every plan; `tol` is the check tolerance.

    Plans evaluate on the evaluators' default branch side (`DEFAULT_SIDE`).
    """

    quad_tol: float = DEFAULT_QUAD_TOL
    tol: float = 1e-8


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
    closed_form: Optional[Callable[[], complex]] = None   # a third value lhs must equal
    # (map, ((x, image), ...)): the substitution behind a reduction and its endpoint images
    substitution: Optional[tuple[Callable[[float], float], tuple[tuple[float, float], ...]]] = None


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


def _errors(lhs: complex, rhs: complex) -> tuple[float, float]:
    abs_err = abs(lhs - rhs)
    scale = abs(rhs)
    rel_err = abs_err / scale if scale >= 1e-6 else abs_err
    return abs_err, rel_err


def verify(
    id: str,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> EvalReport:
    """Evaluate both plans of one record and report agreement."""
    from . import catalog

    return _verify_record(lookup(catalog.RECORDS, id), tol_override, quad_tol)


def _verify_record(
    record: IdentityRecord,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> EvalReport:
    tol = record.tolerance if tol_override is None else tol_override
    ctx = EvalContext(min(quad_tol, max(tol / 10.0, MIN_QUAD_TOL)), tol)
    start = time.perf_counter()

    lhs = complex(record.lhs(ctx))
    rhs = complex(record.rhs(ctx))
    abs_err, rel_err = _errors(lhs, rhs)
    status = "pass" if rel_err <= tol else "fail"
    note = ""

    if record.closed_form is not None:
        closed_err = _errors(lhs, complex(record.closed_form()))[1]
        if closed_err <= tol:
            note = f"closed form agrees to {closed_err:.2e}"
        else:
            status, note = "fail", f"closed-form mismatch: {closed_err:.2e}"
    elif record.erratum is not None:
        printed = complex(record.erratum.as_printed_rhs(ctx))
        ratio = abs(printed / lhs) if lhs != 0 else math.inf
        if status == "pass":
            status = "pass_with_erratum"
        note = f"{record.erratum.note}; as printed |rhs/lhs| = {ratio:.9g}"
    elif status == "fail" and rhs != 0:
        note = f"lhs/rhs = {lhs / rhs:.9g}"

    elapsed = time.perf_counter() - start
    return EvalReport(record.id, record.anchor, lhs, rhs, abs_err, rel_err, status, elapsed, note)


def run_all(
    records: dict,
    check: Callable[[str, Optional[float], float], EvalReport],
    filter: Optional[str] = None,
    tol: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[EvalReport]:
    """`check` every record of an id -> record registry that matches `filter`.

    `filter` is an exact id or else a glob; an exact id comes first because
    grid ids such as ``kummer[a=1.0,b=0.5]`` read as glob character classes.
    The report list is ordered by id; a record whose evaluation raises is a
    ``fail`` row with the error in its note.
    """
    def run(id: str) -> EvalReport:
        try:
            return check(id, tol, quad_tol)
        except Exception as exc:  # evaluation failure is itself a result
            return EvalReport(id, records[id].anchor, complex("nan"), complex("nan"),
                              math.inf, math.inf, "fail", 0.0,
                              f"evaluation error: {exc}")

    if filter in records:
        ids = [filter]
    else:
        ids = sorted(id for id in records if filter is None or fnmatch.fnmatch(id, filter))
    return [run(id) for id in ids]


def lookup(records: dict, id: str):
    """The record `id` of a registry; an unknown id raises KeyError with near misses."""
    try:
        return records[id]
    except KeyError:
        near = [one for one in records if one.startswith(id)]
        hint = f"; did you mean one of {near}?" if near else ""
        raise KeyError(f"unknown record id {id!r}{hint}") from None


def verify_all(
    filter: Optional[str] = None,
    tol_override: Optional[float] = None,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> list[EvalReport]:
    """Run every matching identity record; the report list is ordered by id."""
    from . import catalog

    return run_all(catalog.RECORDS, verify, filter, tol_override, quad_tol)


def registry() -> list[IdentityRecord]:
    """The full identity catalog (family records expanded per grid point)."""
    from . import catalog

    return list(catalog.RECORDS.values())
