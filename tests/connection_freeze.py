"""Regenerate the values that `test_connection_freeze.py` freezes.

Usage, from the repository root:

    PYTHONPATH=src python tests/connection_freeze.py > tests/connection_frozen.py

It draws seeded arguments for `hyperfun._hyp2f1_connection`, the 2F1
connection formula, and records the repr of what it returns: a value, or
None where the formula refuses the point.  The draws cover real and complex
a, b and c, both forms (w = 1/x and w = 1/(1-x)), real, complex and on-cut x
with both sides, a - b near an integer, c - a at a non-positive integer,
parameters with a signed-zero imaginary part, and points the formula refuses
(integer a - b, a Gamma pole at c, |w| > 0.9, a factor past the float range,
cancelling terms).  The test asserts that each repr comes out the same, so a
change of the formula's arithmetic that is meant to keep its bits can show
it.  Regenerate only for a change that is meant to move them.  It takes well
under a second.
"""

from __future__ import annotations

import cmath
import math
import random

from lauricella import hyperfun
from lauricella.core import BranchSide, DEFAULT_QUAD_TOL

SEED = 20121
SIDES = (BranchSide.BELOW, BranchSide.ABOVE)


def _param(rng: random.Random, complex_part: bool) -> complex:
    im = rng.uniform(-2.0, 2.0) if complex_part else rng.choice((0.0, 0.0, 0.0, -0.0))
    return complex(rng.uniform(-5.0, 5.0), im)


def _argument(rng: random.Random) -> complex:
    r = rng.uniform(0.05, 0.9)
    w = complex(r) if rng.random() < 0.4 else cmath.rect(r, rng.uniform(-math.pi, math.pi))
    x = 1.0 / w if rng.random() < 0.5 else 1.0 - 1.0 / w
    if rng.random() < 0.15 and x.real > 1.0:
        # just off the cut, within its 1e-13 (1 + Re x) band: the point's own side
        x = complex(x.real, rng.choice((1.0, -1.0)) * 1e-14 * x.real)
    return x


def _drawn(rng: random.Random, count: int):
    kinds = ("real", "complex", "near-integer a-b", "integer c-a")
    for i in range(count):
        kind = kinds[i % len(kinds)]
        complex_part = kind == "complex" or (kind != "real" and rng.random() < 0.5)
        a, b, c = (_param(rng, complex_part) for _ in range(3))
        if kind == "near-integer a-b":
            b = a + rng.randint(-3, 3) + rng.choice((1.0, -1.0)) * 10.0 ** -rng.uniform(2.0, 8.0)
        elif kind == "integer c-a":
            # eighths keep a = c + n exact, so c - a is exactly -n
            c = complex(rng.randint(-40, 40) / 8.0, c.imag)
            a = c + rng.randint(0, 4)
        x = _argument(rng)
        tol = DEFAULT_QUAD_TOL if rng.random() < 0.8 else 1e-6
        if x.imag == 0.0 and x.real > 1.0:
            for side in SIDES:
                yield a, b, c, x, side, tol
        else:
            yield a, b, c, x, rng.choice(SIDES), tol


def cases() -> list[tuple]:
    """(a, b, c, x, side, quad_tol) for every frozen point, in table order."""
    rng = random.Random(SEED)
    tol = DEFAULT_QUAD_TOL
    fixed = [
        # the seed-1 eval-continuation median point, a cont.2f1.cut point
        (0.5638805328671993, 0.10486791648564076, 2.1408644574343536, 3.339429154139169),
        (0.7 + 0.3j, 1.2 - 0.5j, 2.9 + 0.1j, -6 + 2j),
        (1.7, 0.45, 2.2, -25.0),
        (2.5, 2.0, 1.5, -10.0),
        (1.3, 2.6, 3.1, 5.0),
        (0.7, 0.4, 1.9, 0.5 + 3j),
        (1e-7, -1.0, 1.0, -15.0),
        # refused: integer a - b, cancelling terms, a pole at c, |w| > 0.9, a
        # factor past the float range, an overflowing log-Gamma reflection
        (2.0, 2.0, 5.0, 10.0),
        (60.0, 0.5, 120.0, 3.0),
        (0.5, 0.3, -2.0, 4.0),
        (0.5, 0.3, 1.5, 1.05),
        (-300.0, 0.25, 1.5, 1e3),
        (0.5, 0.2 + 300j, 1.3 - 200j, 4 + 1j),
    ]
    out = []
    for a, b, c, x in fixed:
        a, b, c, x = complex(a), complex(b), complex(c), complex(x)
        sides = SIDES if x.imag == 0.0 and x.real > 1.0 else (BranchSide.BELOW,)
        out.extend((a, b, c, x, side, tol) for side in sides)
    out.extend(_drawn(rng, 160))
    return out


def _pair(z: complex) -> str:
    return f"({z.real!r}, {z.imag!r})"


def main() -> None:
    print('"""The frozen reprs of `hyperfun._hyp2f1_connection`, from `tests/connection_freeze.py`."""')
    print()
    print("# ((a), (b), (c), (x) as (re, im) float pairs, side, quad_tol, repr of the result)")
    print("FROZEN = [")
    for a, b, c, x, side, tol in cases():
        got = hyperfun._hyp2f1_connection(a, b, c, x, side, tol)
        args = ", ".join(map(_pair, (a, b, c, x)))
        print(f"    ({args}, {side.name!r}, {tol!r}, {repr(got)!r}),")
    print("]")


if __name__ == "__main__":
    main()
