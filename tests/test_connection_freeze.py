"""The 2F1 connection formula keeps its bits.

`connection_frozen.py` holds the repr of `hyperfun._hyp2f1_connection` at
about 200 seeded points, refusals (None) included, recorded with
`connection_freeze.py`.  A change of the formula's arithmetic that is meant
to keep every value, bound and refusal must reproduce each repr exactly.
"""

import pytest

from lauricella import hyperfun
from lauricella.core import BranchSide

from connection_frozen import FROZEN


def _args(case):
    *pairs, side, tol, _ = case
    return (*(complex(re, im) for re, im in pairs), BranchSide[side], tol)


def _real_parameters(case):
    a, b, c = case[:3]
    return not (a[1] or b[1] or c[1])


def test_frozen_cases_cover_every_kind():
    assert len(FROZEN) >= 200
    values = [case for case in FROZEN if case[-1] != "None"]
    assert len(values) >= 100 and len(FROZEN) - len(values) >= 40
    assert any(_real_parameters(case) for case in values)
    assert any(not _real_parameters(case) for case in values)
    # both forms: w = 1/x (Re x >= 1/2) and w = 1/(1-x)
    assert any(case[3][0] >= 0.5 for case in values) and any(case[3][0] < 0.5 for case in values)
    # on the cut, taken from each side
    assert {case[4] for case in values if case[3][1] == 0.0 and case[3][0] > 1.0} == {"BELOW", "ABOVE"}


@pytest.mark.parametrize("case", FROZEN, ids=range(len(FROZEN)))
def test_repr_is_frozen(case):
    assert repr(hyperfun._hyp2f1_connection(*_args(case))) == case[-1]


def test_real_parameters_take_no_complex_log_gamma(monkeypatch):
    def refuse(z):
        raise AssertionError(f"complex log-Gamma at {z!r}")

    monkeypatch.setattr(hyperfun, "_log_gamma", refuse)
    real = [case for case in FROZEN if _real_parameters(case)]
    assert len(real) >= 100
    for case in real:
        assert repr(hyperfun._hyp2f1_connection(*_args(case))) == case[-1]


def test_complex_parameters_take_the_complex_log_gamma(monkeypatch):
    def refuse(z):
        raise AssertionError(f"complex log-Gamma at {z!r}")

    monkeypatch.setattr(hyperfun, "_log_gamma", refuse)
    case = next(case for case in FROZEN if not _real_parameters(case) and case[-1] != "None")
    with pytest.raises(AssertionError, match="complex log-Gamma"):
        hyperfun._hyp2f1_connection(*_args(case))
