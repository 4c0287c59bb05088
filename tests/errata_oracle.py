"""Regenerate the mpmath values that `test_errata.py` freezes.

Usage, from the repository root:

    PYTHONPATH=src python tests/errata_oracle.py

For each catalog record with a declared erratum it evaluates the record's
left side and its printed right side with every evaluator the catalog calls
replaced by an mpmath reference: 2F1, F1 and FD by ``perfbench/oracle.py``
(``mpmath.hyp2f1`` with the cut approached from the default side, and the
Euler integral along a path that passes each split by a half circle), and
Gamma, K, E and the incomplete F by ``mpmath.gamma``, ``ellipk``, ``ellipe``
and ``ellipf``.  It prints the table to paste into the test.  Closed-form
constants that the catalog computes at import (Gamma(1/3)**3, the even-reduced
prefactors) keep their float values.  It takes about a second.
"""

from __future__ import annotations

import os
import sys

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import oracle  # noqa: E402  (perfbench/oracle.py, used as it is)
from inputs import point  # noqa: E402

from lauricella import catalog  # noqa: E402
from lauricella.core import DEFAULT_SIDE  # noqa: E402
from lauricella.identities import EvalContext  # noqa: E402

SIDE = DEFAULT_SIDE.name.lower()


def _reference(a, bs, c, xs) -> complex:
    return oracle.reference(point("erratum", a, bs, c, xs, SIDE))


def _with_dps(fn):
    def wrapped(*args):
        with mp.workdps(oracle.DPS):
            return complex(fn(*args))
    return wrapped


ORACLES = {
    "hyp2f1": lambda a, b, c, x, quad_tol=None: _reference(a, [b], c, [x]),
    "appell_f1": lambda a, b1, b2, c, x1, x2, quad_tol=None: _reference(a, [b1, b2], c, [x1, x2]),
    "lauricella_fd": lambda spec, quad_tol=None: _reference(spec.a, spec.bs, spec.c, spec.xs),
    "gamma": _with_dps(lambda z: mp.gamma(mp.mpc(z))),
    "complete_k": _with_dps(lambda k: mp.ellipk(mp.mpf(k) ** 2)),
    "complete_e": _with_dps(lambda k: mp.ellipe(mp.mpf(k) ** 2)),
    "incomplete_f": _with_dps(lambda phi, k: mp.ellipf(mp.mpf(phi), mp.mpf(k) ** 2)),
}


def errata_values() -> dict[str, tuple[complex, complex]]:
    """id -> (lhs, printed rhs), each from the mpmath references."""
    saved = {name: getattr(catalog, name) for name in ORACLES}
    ctx = EvalContext()
    try:
        for name, fn in ORACLES.items():
            setattr(catalog, name, fn)
        return {
            id: (complex(record.lhs(ctx)), complex(record.erratum.as_printed_rhs(ctx)))
            for id, record in sorted(catalog.RECORDS.items())
            if record.erratum is not None
        }
    finally:
        for name, fn in saved.items():
            setattr(catalog, name, fn)


def main() -> None:
    print("ORACLE = {   # id: (lhs, printed rhs), from tests/errata_oracle.py")
    for id, (lhs, printed) in errata_values().items():
        print(f"    {id!r}: (complex({lhs.real!r}, {lhs.imag!r}), complex({printed.real!r}, {printed.imag!r})),")
    print("}")


if __name__ == "__main__":
    main()
