"""The catalog's erratum records, judged against mpmath instead of the library.

An erratum record's corrected right side agrees with the library's left
side, and most printed right sides differ from it only by a sign, a phase or
a conjugate: exactly what a branch defect in the library would look like.
So each record is checked here against values from mpmath references,
frozen as literals; `errata_oracle.py` regenerates them.
"""

import math

import pytest

from lauricella import catalog
from lauricella.identities import EvalContext

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

ORACLE = {   # id: (lhs, printed rhs), from tests/errata_oracle.py
    'bf-576-00b': (complex(0.6071626619718955, -1.5822443170424497e-29), complex(0.3035813309859477, 0.0)),
    'bg00': (complex(0.46739403510848476, 0.0), complex(1.4021821053254548, 0.0)),
    'even-reduced[m=1]': (complex(-1.3110287771460598, 8.027735977609953e-17), complex(1.3110287771460598, 0.0)),
    'even-reduced[m=2]': (complex(-1.854074677301372, 0.0), complex(1.8540746773013717, 0.0)),
    'fd3-two': (complex(1.3110287771460598, -1.3110287771460598), complex(-1.3110287771460598, 1.3110287771460598)),
    'fd7a': (complex(1.4459274722255662, -3.4907777136548086), complex(-3.490777713654808, 1.4459274722255664)),
    'fd7b': (complex(3.490777713654808, -1.4459274722255662), complex(-1.4459274722255664, 3.490777713654808)),
    'her1876bth': (complex(1.125150384377028, 0.0), complex(1.2980901250482948, 0.0)),
    'richelot-fd7': (complex(0.45185233507048944, -3.861316342818934e-29), complex(0.9972863528290532, 0.0)),
    'serretprol': (complex(1.4021821053254544, -2.428650647887582), complex(-2.4286506478875816, 1.4021821053254544)),
    'serretprol2': (complex(1.669369011783458, -0.9638106483299991), complex(-1.6693690117834579, 0.9638106483299991)),
}

# the printed right side as a function of the true left side, as each note states it
PRINTED = {
    "bf-576-00b": lambda v: v / 2.0,                  # coefficient 1/4 for 1/2
    "bg00": lambda v: 3.0 * v,                        # the cubic reduction factor 3 is missing
    "even-reduced[m=1]": lambda v: -v,                # minus the below-side value
    "even-reduced[m=2]": lambda v: -v,
    "fd3-two": lambda v: -v,                          # the opposite sign
    "fd7a": lambda v: 1j * v.conjugate(),             # i times the conjugate
    "fd7b": lambda v: 1j * v.conjugate(),
    "her1876bth": None,                               # lower parameter 3/4 for 3/2: no factor
    "richelot-fd7": lambda v: v * (1.0 - 1.0 / (2.0 * SQRT2)) / (1.0 - 1.0 / SQRT2),
    # the eliminated-argument factor f to the first power, for its square
    "serretprol": lambda v: v / complex(-SQRT3 / 2.0, 0.5),
    "serretprol2": lambda v: -v,                      # the opposite sign
}


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def test_oracle_covers_every_erratum():
    errata = {id for id, record in catalog.RECORDS.items() if record.erratum is not None}
    assert set(ORACLE) == set(PRINTED) == errata
    assert len(errata) == 11


@pytest.mark.parametrize("id", sorted(ORACLE))
def test_erratum_against_mpmath(id):
    record = catalog.RECORDS[id]
    lhs, printed = ORACLE[id]
    tol = record.tolerance
    ctx = EvalContext(tol=tol)
    # the library's left side, and the corrected right side, pass against mpmath
    assert _close(complex(record.lhs(ctx)), lhs, tol)
    assert _close(complex(record.rhs(ctx)), lhs, tol)
    # the printed right side fails against mpmath ...
    assert not _close(printed, lhs, tol)
    assert _close(complex(record.erratum.as_printed_rhs(ctx)), printed, tol)
    # ... by the factor its note states
    if PRINTED[id] is not None:
        assert _close(PRINTED[id](lhs), printed, 1e-12)
