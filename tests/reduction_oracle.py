"""Regenerate the mpmath integrals that `test_reduction_oracle.py` freezes.

Usage, from the repository root:

    PYTHONPATH=src python tests/reduction_oracle.py

Each reduction record is checked with every integral that its sides take
computed by ``mpmath.quad`` at 30 digits instead of the library's tanh-sinh
rule.  The integrands are the library's own, called as the rule calls them,
with a node's distances to the interval's ends; a semi-infinite side is split
at lo, lo + 1, lo + 10 and infinity.  For each record the script prints the
integrals in the order the record's plans take them, unscaled, as the table to
paste into the test.  It takes about 2 seconds.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from lauricella import reductions
from lauricella.quadrature import QuadratureResult

DPS = 30


@contextmanager
def integrals_from(integral):
    """Route the sides' integrals through ``integral(spec, lo, hi) -> complex``."""
    saved = reductions.integrate, reductions.integrate_semi_infinite
    reductions.integrate = lambda spec, lo, hi, tol: QuadratureResult(integral(spec, lo, hi), 0.0, 0)
    reductions.integrate_semi_infinite = lambda spec, lo, tol: QuadratureResult(integral(spec, lo, math.inf), 0.0, 0)
    try:
        yield
    finally:
        reductions.integrate, reductions.integrate_semi_infinite = saved


def mpmath_integral(spec, lo: float, hi: float) -> complex:
    import mpmath as mp

    g = spec.evaluator
    with mp.workdps(DPS):
        if math.isinf(hi):
            return complex(mp.quad(lambda t: g(t, t - lo, math.inf), [lo, lo + 1.0, lo + 10.0, mp.inf]))
        return complex(mp.quad(lambda x: g(x, x - lo, hi - x), [lo, hi]))


def oracle_values() -> dict[str, list[complex]]:
    """id -> the mpmath integrals of the record's sides, in the order its plans take them."""
    values: dict[str, list[complex]] = {}

    def integral(spec, lo, hi):
        value = mpmath_integral(spec, lo, hi)
        values[id].append(value)
        return value

    with integrals_from(integral):
        for id in sorted(reductions.REDUCTIONS):
            values[id] = []
            reductions.check_reduction(id)
    return values


def main() -> None:
    print("ORACLE = {   # id: the sides' integrals in plan order, from tests/reduction_oracle.py")
    for id, values in oracle_values().items():
        assert all(v.imag == 0.0 for v in values), (id, values)   # every side is a real integral
        print(f"    {id!r}: ({', '.join(f'{v.real!r}' for v in values)}),")
    print("}")


if __name__ == "__main__":
    main()
