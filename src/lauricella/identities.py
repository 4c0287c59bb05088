"""Machine-checkable identity catalog and the double-evaluation verifier.

Each record carries two evaluation plans (a hypergeometric side and a closed
form, or two integrals) plus a tolerance, and optionally a closed-form value
the left side must equal as well, or a declared `Erratum` for a printed form
that fails.  A closed form is computed once, at import, when its record is
built, and its plan returns that number; a closed form that raises is a
programming error that fails the import.  Only the hypergeometric and
integral sides are evaluated when a record is checked.
``_verify_record`` is the one check behind the identity catalog, the
reductions and the representation formulas: it evaluates both plans once and
judges the record only as declared.  A record that fails without a declared
erratum stays ``fail``, and its note gives the ratio lhs/rhs so that a printed
factor slip reads off directly.  ``run_all`` runs a check over a registry,
ordered by id.

One ``run_all`` call evaluates each distinct value once: the leaf plans (a
2F1, F1 or FD at given parameters, arguments and ``quad_tol``, or one
integral at given limits and tolerance) look their value up in a store that
lasts for that call alone, through ``_once_per_run`` and ``_hyper_plan``.  The evaluators are
deterministic, so every reported number is the one a record run alone gives.
A record's ``elapsed`` is its own time, so a record whose values were
computed earlier in the run reads near 0.  Outside a run, as in `verify`,
every plan computes its values.
"""

from __future__ import annotations

import fnmatch
import math
import time
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

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

# the values computed so far in the current `run_all` call; None outside one
_RUN_VALUES: ContextVar[Optional[dict]] = ContextVar("lauricella_run_values", default=None)


def _once_per_run(key: Hashable, compute: Callable[[], complex]) -> complex:
    """``compute()``, evaluated once per `run_all` call for each `key`.

    `key` must name the evaluation's full input.  Outside a run it computes
    every time, and a value that raises is never stored.
    """
    values = _RUN_VALUES.get()
    if values is None:
        return compute()
    if key not in values:
        values[key] = compute()
    return values[key]


def _hyper_plan(function: str, inputs: object, evaluate: Callable[[float], complex]) -> Plan:
    """The plan ``evaluate(ctx.quad_tol)``, computed once per run for its inputs.

    `inputs` holds the evaluation's coerced parameters and arguments (a
    `HyperSpec`).  They key the value by their repr, which tells -0.0 from
    0.0 where == does not, since a branch cut can turn on that sign.
    """
    key = (function, repr(inputs))
    return lambda ctx: _once_per_run((key, ctx.quad_tol), lambda: evaluate(ctx.quad_tol))


def _scaled(k: complex, plan: Plan) -> Plan:
    """The plan `k` times `plan`, for a constant `k` computed once."""
    return lambda ctx: k * plan(ctx)


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
    The report list is ordered by id; a record whose hypergeometric or
    integral side raises is a ``fail`` row with the error in its note and the
    time it took.  Each distinct value is computed once per call (see
    ``_once_per_run``).
    """
    def run(id: str) -> EvalReport:
        start = time.perf_counter()
        try:
            return check(id, tol, quad_tol)
        except Exception as exc:  # evaluation failure is itself a result
            return EvalReport(id, records[id].anchor, complex("nan"), complex("nan"),
                              math.inf, math.inf, "fail", time.perf_counter() - start,
                              f"evaluation error: {exc}")

    if filter in records:
        ids = [filter]
    else:
        ids = sorted(id for id in records if filter is None or fnmatch.fnmatch(id, filter))
    token = _RUN_VALUES.set({})
    try:
        return [run(id) for id in ids]
    finally:
        _RUN_VALUES.reset(token)


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
