"""The Euler integral keeps its bits.

`euler_frozen.py` holds the outcome of `hyperfun._euler_fd` at about 150
seeded points, recorded with `euler_freeze.py`: the repr of a value, None
where the integral does not apply, or the library exception raised.  A
change of the kernels' or the quadrature's arithmetic that is meant to keep
every value and refusal must reproduce each outcome exactly.
"""

import pytest

from lauricella import hyperfun
from lauricella.core import BranchSide

from euler_freeze import outcome
from euler_frozen import FROZEN


def _args(case):
    a, bs, c, xs, side, tol, _ = case
    return complex(*a), [complex(*b) for b in bs], complex(*c), [complex(*x) for x in xs], BranchSide[side], tol


def _evaluator(case):
    a, bs, c, xs, side, _ = _args(case)
    return hyperfun._euler_integrand(a, bs, c, xs, side).evaluator


def test_frozen_cases_cover_every_kind():
    assert len(FROZEN) >= 150
    values = [case for case in FROZEN if case[-1].startswith("(")]
    assert len(values) >= 120 and any(case[-1] == "None" for case in FROZEN)
    assert {case[-1].split(":")[0] for case in FROZEN if case[-1][0] not in "(N"} >= {"DomainError", "QuadratureError"}
    kernels = {_evaluator(case).__qualname__.split(".")[0] for case in values}
    assert kernels == {"_real_panel", "_complex_panel"}
    # one panel with no turn, where the real kernel's sample is a float
    assert any(
        not hyperfun._euler_integrand(*_args(case)[:5]).interior_singularities
        and isinstance(_evaluator(case)(0.5, 0.5, 0.5), float)
        for case in values
    )
    # on the cut, from each side, and |x| >= 2**500
    on_cut = {case[4] for case in values if any(x[1] == 0.0 and x[0] > 1.0 for x in case[3])}
    assert on_cut == {"BELOW", "ABOVE"}
    assert any(abs(complex(*x)) >= 2.0 ** 500 for case in values for x in case[3])


@pytest.mark.parametrize("case", FROZEN, ids=range(len(FROZEN)))
def test_outcome_is_frozen(case):
    assert outcome(*_args(case)) == case[-1]
