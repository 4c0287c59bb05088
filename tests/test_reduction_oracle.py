"""The reductions' integrals, judged against mpmath instead of the library's quadrature.

A reduction record compares two integrals that the library's own tanh-sinh
rule computes, so a fault of the rule that both sides share would pass.  Each
integral a record's sides take is checked here against ``mpmath.quad`` at 30
digits, frozen as literals; `reduction_oracle.py` regenerates them.  The
integrands themselves stay checked by the closed forms the records carry.
"""

import pytest

from lauricella import reductions
from lauricella.reductions import REDUCTIONS, check_reduction

from reduction_oracle import integrals_from

ORACLE = {   # id: the sides' integrals in plan order, from tests/reduction_oracle.py
    'goursat-011b': (0.7944704335877699, 0.7944704335877699),
    'goursat-dig': (1.4021821053254542, 0.23369701755424238),
    'goursat-gb0': (1.4021821053254542, 0.23369701755424238),
    'hermite-b0': (2.6220575542921196, 2.6220575542921196),
    'hermite-full': (0.28308888269970134, 1.2972762333718562),
    'hermite-g3': (1.9923328995834908, 1.9923328995834897),
    'hermite-ugu': (1.5721050137883272, 3.850855105852514),
    'jacobi-g2': (1.7650261616665268, 3.0571149886947033),
    'legendre-z1[n=4,a=1]': (1.3110287771460598, 1.8540746773013719),
    'legendre-z1[n=6,a=1]': (1.2143253239437908, 1.4021821053254542),
    'legendre-z1[n=6,a=2]': (0.7010910526627271, 1.4021821053254542),
    'legendre-z1[n=8,a=1]': (1.1635925712182693, 1.2594635234048268),
    'legendre-z1[n=8,a=3]': (0.4819758240751887, 1.2594635234048268),
    'legendre-z2[n=4,a=3]': (1.8540746773013719, 0.5990701173677961),
    'legendre-z2[n=6,a=4]': (1.4021821053254542, 0.43118492653829843),
    'legendre-z2[n=8,a=5]': (1.2594635234048268, 0.3374884744129745),
    'maier-g4': (1.9923328995834908, 1.9923328995834908),
}


@pytest.fixture
def library_integrals(monkeypatch):
    """The values of the library's integrals, in the order the sides take them."""
    values = []

    def recording(integrate):
        def recorded(*args):
            result = integrate(*args)
            values.append(result.value)
            return result
        return recorded

    for name in ("integrate", "integrate_semi_infinite"):
        monkeypatch.setattr(reductions, name, recording(getattr(reductions, name)))
    return values


def test_oracle_covers_every_reduction():
    assert set(ORACLE) == set(REDUCTIONS)
    assert len(ORACLE) == 17


@pytest.mark.parametrize("id", sorted(ORACLE))
def test_library_integrals_against_mpmath(library_integrals, id):
    check_reduction(id)
    assert len(library_integrals) == len(ORACLE[id]) == 2
    for got, want in zip(library_integrals, ORACLE[id]):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize("id", sorted(ORACLE))
def test_mpmath_integrals_satisfy_the_relation(id):
    # lhs = scale * rhs, or lhs * rhs = closed form, with every integral from mpmath
    values = iter(ORACLE[id])
    with integrals_from(lambda spec, lo, hi: next(values)):
        report = check_reduction(id)
    assert report.rel_err <= 1e-14, report
    assert report.status == "pass", report
