"""Reference values from mpmath, computed independently of the library.

* 2F1: ``mpmath.hyp2f1``, with an argument on the cut moved off it by an
  infinitesimal on the requested side.
* Appell F1 inside the polydisk: ``mpmath.appellf1``.
* FD of any order with real 0 < a < c: the Euler integral by ``mpmath.quad``
  at raised precision.  The path runs along [0, 1] and passes each point 1/x
  of an argument on the cut by a small half circle, below it for the limit
  from Im x < 0 and above it for Im x > 0, so the side is explicit and
  Re b >= 1 on the cut is covered too.
* FD of order >= 3 with small arguments and no Euler integral: the power
  series, summed by total degree.

References are cached on disk by point, since one FD reference costs
0.1-1 s; no reference is ever computed inside a timed region.
"""

from __future__ import annotations

import json
import os

import mpmath as mp

from inputs import Point

DPS = 20
REL_TOL = 1e-8       # |value - ref| <= REL_TOL * max(|ref|, ABS_FLOOR)
ABS_FLOOR = 1e-12
_TINY = mp.mpf("1e-60")


def _on_cut(x) -> bool:
    return x.imag == 0.0 and x.real > 1.0


def _neg_pow(base, exponent):
    """base**(-exponent) on the principal branch."""
    return mp.exp(-exponent * mp.log(base)) if exponent else mp.mpf(1)


def _euler(a, bs, c, xs, below: bool):
    """Gamma(c)/(Gamma(a)Gamma(c-a)) * int_path u^(a-1) (1-u)^(c-a-1) prod (1-x u)^(-b) du."""
    a, c = mp.mpf(a.real), mp.mpf(c.real)
    factors = [(mp.mpc(x), mp.mpc(b)) for b, x in zip(bs, xs)]
    cut_points = sorted({mp.mpf(1) / mp.mpf(x.real) for x in xs if _on_cut(x)})

    def kernel(u):
        val = mp.mpc(1)
        for x, b in factors:
            base = 1 - x * u
            if base.imag == 0 and base.real < 0:
                # real u past a cut point: the side fixes the argument of 1 - x u
                val *= mp.exp(-b * (mp.log(-base.real) + (1j if below else -1j) * mp.pi))
            else:
                val *= _neg_pow(base, b)
        return val

    # distance from a cut point to every other singular point, and to the ray
    # {t/x, t >= 1} along which a complex argument's factor has its branch cut
    def clearance(s):
        gaps = [s, 1 - s] + [abs(s - t) for t in cut_points if t != s]
        for x, _ in factors:
            if x.imag != 0:
                o = 1 / x
                d = o / abs(o)
                t = max(mp.mpf(0), ((s - o) * mp.conj(d)).real)
                gaps.append(abs(s - (o + t * d)))
        return min(gaps)

    total = mp.mpc(0)
    lo = mp.mpf(0)
    pieces, arcs = [], []   # real intervals, and half circles (centre, radius)
    for s in cut_points:
        r = min(clearance(s) / 4, mp.mpf("0.02"))
        pieces.append((lo, s - r))
        arcs.append((s, r))
        lo = s + r
    pieces.append((lo, mp.mpf(1)))
    if len(pieces) == 1:
        pieces = [(mp.mpf(0), mp.mpf("0.5")), (mp.mpf("0.5"), mp.mpf(1))]
    cam = c - a

    for i, (p, q) in enumerate(pieces):
        if i == 0:
            # u = v^(1/a) removes the u^(a-1) endpoint singularity
            total += mp.quad(lambda v: (1 - v ** (1 / a)) ** (cam - 1) * kernel(v ** (1 / a)), [0, q ** a]) / a
        elif i == len(pieces) - 1:
            # and u = 1 - w^(1/(c-a)) the (1-u)^(c-a-1) one
            total += mp.quad(lambda w: (1 - w ** (1 / cam)) ** (a - 1) * kernel(1 - w ** (1 / cam)),
                             [0, (1 - p) ** cam]) / cam
        else:
            total += mp.quad(lambda u: u ** (a - 1) * (1 - u) ** (cam - 1) * kernel(u), [p, q])
    sweep = -1 if below else 1   # below: phi from pi to 2pi; above: pi to 0
    for s, r in arcs:
        def arc(t, s=s, r=r):
            e = mp.expjpi(1 - sweep * t)
            u = s + r * e
            return u ** (a - 1) * (1 - u) ** (cam - 1) * kernel(u) * (1j * r * e * mp.pi * -sweep)
        total += mp.quad(arc, [0, 1])
    return mp.gamma(c) / (mp.gamma(a) * mp.gamma(cam)) * total


def _series(a, bs, c, xs):
    """sum_N (a)_N/(c)_N h_N with h_N the t^N coefficient of prod (1 - x t)^(-b)."""
    a, c = mp.mpc(a), mp.mpc(c)
    rows = [[mp.mpc(1)] for _ in xs]
    conv = [[mp.mpc(1)] for _ in xs]   # conv[k][N]: coefficient of prod over factors 0..k
    total, ratio, small, n = mp.mpc(1), mp.mpc(1), 0, 0
    while small < 4:
        for k, (b, x) in enumerate(zip(bs, xs)):
            rows[k].append(rows[k][-1] * (b + n) / (n + 1) * x)
            prev = conv[k - 1] if k else None
            conv[k].append(rows[k][n + 1] if k == 0 else mp.fsum(prev[m] * rows[k][n + 1 - m] for m in range(n + 2)))
        ratio *= (a + n) / (c + n)
        term = ratio * conv[-1][n + 1]
        total += term
        small = small + 1 if abs(term) < mp.mpf(10) ** (-DPS) * abs(total) else 0
        n += 1
        if n > 5000:
            raise ArithmeticError("FD series reference did not converge")
    return total


def reference(p: Point) -> complex:
    below = p.side == "below"
    with mp.workdps(DPS):
        if p.function == "2f1":
            x = mp.mpc(p.xs[0])
            if _on_cut(p.xs[0]):
                x += mp.mpc(0, -_TINY if below else _TINY)
            value = mp.hyp2f1(mp.mpc(p.a), mp.mpc(p.bs[0]), mp.mpc(p.c), x)
        elif p.function == "f1" and max(abs(x) for x in p.xs) < 0.95:
            value = mp.appellf1(mp.mpc(p.a), mp.mpc(p.bs[0]), mp.mpc(p.bs[1]), mp.mpc(p.c),
                                mp.mpc(p.xs[0]), mp.mpc(p.xs[1]))
        elif p.a.imag == 0 and p.c.imag == 0 and 0 < p.a.real < p.c.real:
            value = _euler(p.a, p.bs, p.c, p.xs, below)
        elif max(abs(x) for x in p.xs) <= 0.5:
            value = _series(p.a, [mp.mpc(b) for b in p.bs], p.c, [mp.mpc(x) for x in p.xs])
        else:
            raise ValueError(f"no reference method for {p}")
        return complex(value)


def within_tolerance(value: complex, ref: complex) -> bool:
    return abs(value - ref) <= REL_TOL * max(abs(ref), ABS_FLOOR)


class ReferenceCache:
    """Point key -> reference value, kept in one JSON file."""

    def __init__(self, path: str):
        self.path = path
        self.values: dict[str, list[float]] = {}
        if os.path.exists(path):
            with open(path) as handle:
                self.values = json.load(handle)
        self.dirty = False

    def get(self, p: Point) -> complex:
        key = p.key()
        if key not in self.values:
            ref = reference(p)
            self.values[key] = [ref.real, ref.imag]
            self.dirty = True
        re, im = self.values[key]
        return complex(re, im)

    def save(self) -> None:
        if self.dirty:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            tmp = self.path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(self.values, handle)
            os.replace(tmp, self.path)
            self.dirty = False
