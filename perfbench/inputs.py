"""Seeded evaluation points for the eval-disk, eval-continuation and cli-oneshot workloads.

Every region gives each seed a fixed number of points.  The known-defect
points from ROADMAP.md are fixed members of every point set.

The regions the library handles draw from fixed pools (``POOLS``), every
point of which it evaluates correctly today, as ``vet_pool.py`` checks: the
continuation regions fail quadrature on about one random draw in a thousand,
with nothing in the parameters to tell which, so points drawn afresh per seed
could not keep the timed loop free of failures.  A seed takes one point from
each of n equal slices of a pool ordered by cost, so two seeds give different
points with the same mix of regions and costs.

Points of ``KNOWN_DEFECT_REGIONS`` are drawn per seed and fail today on all
or part of their draws; run.py keeps them out of the timed loop, whose every
failure is therefore a regression, and evaluates them once per run as the
known-defect probe, whose failures it reports on their own.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """One FD evaluation (a; bs; c | xs): order 1 is 2F1, order 2 is Appell F1."""

    region: str
    a: complex
    bs: tuple[complex, ...]
    c: complex
    xs: tuple[complex, ...]
    side: str = "below"

    @property
    def function(self) -> str:
        return {1: "2f1", 2: "f1"}.get(len(self.xs), "fd")

    def key(self) -> str:
        """Canonical text of the inputs, used to cache references."""
        nums = [self.a, *self.bs, self.c, *self.xs]
        return ";".join(f"{z.real!r},{z.imag!r}" for z in nums) + f"|{len(self.xs)}|{self.side}"


def point(region, a, bs, c, xs, side="below") -> Point:
    return Point(region, complex(a), tuple(map(complex, bs)), complex(c), tuple(map(complex, xs)), side)


# The repro points of ROADMAP.md open items 2-4, each checked at commit 05f83c5.
DISK_DEFECTS = (
    point("defect.2f1.cancellation", 10, [10], 1.5, [-0.9]),       # relative error 2e8
    point("defect.2f1.terminating", -20, [5], 1.5, [0.85]),        # relative error 7e-5
    point("defect.f1.slow-series", 0.5, [0.5, 0.5], 1.5, [0.89, 0.89]),  # correct, ~40 ms
)
CONTINUATION_DEFECTS = (
    point("defect.2f1.small-a", 0.01, [1], 2, [-3]),               # QuadratureError after ~190 ms
    point("defect.2f1.no-path", 1, [1], 2, [300]),                 # DomainError
    point("defect.2f1.near-cut", 0.5, [0.5], 1.5, [2 - 1e-6j]),    # QuadratureError after ~85 ms
    point("defect.fd3.no-series", 2, [0.5, 0.5, 0.5], 1.5, [0.1, 0.2, 0.3]),  # DomainError
)


# Regions whose points the library answers wrongly or refuses today: every draw
# of each, except some of cont.2f1.off-disk.c-lt-ab (Pfaff answers |x| <= 9)
# and a few of disk.2f1.negative-large-ab.  defect.f1.slow-series is correct
# and stays timed.
KNOWN_DEFECT_REGIONS = frozenset({
    "defect.2f1.cancellation", "defect.2f1.terminating", "disk.2f1.negative-large-ab",
    "defect.2f1.small-a", "defect.2f1.no-path", "defect.2f1.near-cut", "defect.fd3.no-series",
    "cont.2f1.off-disk.c-lt-ab", "cont.2f1.cut.ab-ge-1", "cont.2f1.near-cut", "cont.f1.cut-b-ge-1",
    "cont.fd.c-le-a",
})


def known_defect(p: Point) -> bool:
    return p.region in KNOWN_DEFECT_REGIONS


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """n values, one uniform draw in each of n equal slices of [lo, hi], shuffled."""
    if log:
        lo, hi = math.log(lo), math.log(hi)
    out = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return [math.exp(v) for v in out] if log else out


def _between(lo: float, hi: float, u: float, log: bool = False) -> float:
    if log:
        return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)
    return lo + (hi - lo) * u


def _gauss_params(rng: random.Random, ab: tuple[float, float], c: tuple[float, float]):
    return rng.uniform(*ab), rng.uniform(*ab), rng.uniform(*c)


def _off_axis(rng: random.Random, r: float) -> complex:
    """A point of modulus r at least 0.2 rad away from the positive real axis."""
    theta = rng.uniform(0.2, math.pi) * rng.choice((-1.0, 1.0))
    return cmath.rect(r, theta)


def _euler_params(rng: random.Random, b_max: float) -> tuple[float, float, float]:
    """0 < a < c, so the (a, b) order of the Euler integral is admissible."""
    a = rng.uniform(0.15, 3.0)
    return a, rng.uniform(-1.5, b_max), a + rng.uniform(0.2, 2.5)


def _fd_argument(rng: random.Random, r: float) -> complex:
    roll = rng.random()
    if roll < 0.4:
        return complex(1.05 + r, 0.0)          # on the cut
    if roll < 0.7:
        return complex(-r, 0.0)
    return _off_axis(rng, r)


# Makers of pool point i at quantile u of what sets its |x| or order.  Odd
# and even i alternate the sign or the side where a region has one.

def _disk_real(rng: random.Random, i: int, u: float) -> Point:
    a, b, c = _gauss_params(rng, (-4.0, 4.0), (0.3, 5.0))
    return point("disk.2f1.real", a, [b], c, [_between(-0.9, 0.9, u)])


def _disk_complex(rng: random.Random, i: int, u: float) -> Point:
    a, b, c = _gauss_params(rng, (-4.0, 4.0), (0.3, 5.0))
    return point("disk.2f1.complex", a, [b], c, [cmath.rect(0.9 * math.sqrt(u), rng.uniform(-math.pi, math.pi))])


def _f1_edge(rng: random.Random, i: int, u: float) -> Point:
    """The larger |x| sets an F1 series' cost, with the ratio of the smaller to it."""
    m = _between(0.8, 0.9, u)
    big = m if rng.random() < 0.5 else _off_axis(rng, m)
    big = -big if rng.random() < 0.3 else big
    small = cmath.rect(m * rng.random(), rng.uniform(-math.pi, math.pi))
    xs = [big, small] if rng.random() < 0.5 else [small, big]
    bs = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    return point("disk.f1.edge", rng.uniform(0.2, 2.5), bs, rng.uniform(0.5, 3.0), xs)


def _f1_inner(rng: random.Random, i: int, u: float) -> Point:
    m = _between(0.1, 0.6, u)
    xs = [cmath.rect(m, rng.uniform(-math.pi, math.pi)), cmath.rect(m * rng.random(), rng.uniform(-math.pi, math.pi))]
    bs = [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]
    return point("disk.f1.inner", rng.uniform(-2.0, 2.5), bs, rng.uniform(0.5, 3.0), xs)


def _off_disk(rng: random.Random, i: int, u: float) -> Point:
    r = _between(0.95, 300.0, u, log=True)
    x = complex(-r, 0.0) if i % 2 else _off_axis(rng, r)
    a, b, c = _euler_params(rng, 3.0)
    return point("cont.2f1.off-disk", a, [b], c, [x])


def _cut(rng: random.Random, i: int, u: float) -> Point:
    a, b, c = _euler_params(rng, 0.95)
    return point("cont.2f1.cut", a, [b], c, [_between(1.05, 300.0, u, log=True)], "below" if i % 2 else "above")


def _f1_outside(rng: random.Random, i: int, u: float) -> Point:
    a = rng.uniform(0.2, 2.0)
    c = a + rng.uniform(0.3, 2.0)
    xs = [_fd_argument(rng, _between(1.05, 50.0, u, log=True)), _fd_argument(rng, rng.uniform(0.1, 50.0))]
    bs = [rng.uniform(-1.0, 0.95), rng.uniform(-1.0, 0.95)]
    return point("cont.f1.out-of-polydisk", a, bs, c, xs, "below" if i % 2 else "above")


def _fd_mixed(rng: random.Random, i: int, u: float) -> Point:
    order = 3 + int(5 * u)
    a = rng.uniform(0.2, 2.0)
    c = a + rng.uniform(0.3, 2.0)
    xs = [_fd_argument(rng, rng.uniform(0.1, 30.0)) for _ in range(order)]
    bs = [rng.uniform(-0.9, 0.9) for _ in range(order)]
    return point("cont.fd.mixed", a, bs, c, xs, "below" if i % 2 else "above")


# region -> (pool size, points per seed, maker)
POOLS = {
    "disk.2f1.real": (3000, 150, _disk_real),
    "disk.2f1.complex": (3000, 150, _disk_complex),
    "disk.f1.edge": (480, 48, _f1_edge),
    "disk.f1.inner": (320, 16, _f1_inner),
    "cont.2f1.off-disk": (900, 90, _off_disk),
    "cont.2f1.cut": (600, 60, _cut),
    "cont.f1.out-of-polydisk": (360, 18, _f1_outside),
    "cont.fd.mixed": (1000, 40, _fd_mixed),
}
# Each pool's indices from the cheapest point to the costliest, in bytecode
# instructions executed, as vet_pool.py counted them.  A point's cost varies up
# to a hundredfold within a region, and what sets it (series length, quadrature
# levels and panels) has no simple formula, so seeds stratify over this
# measured order: the order, not the points, came from running the library.
ORDER_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pool_order.json")


def generated_pool(region: str) -> list[Point]:
    """The region's fixed points in the order their maker draws them."""
    size, _, make = POOLS[region]
    rng = random.Random(f"{region}/pool")
    return [make(rng, i, (i + rng.random()) / size) for i in range(size)]


@functools.lru_cache(maxsize=None)
def pool(region: str) -> tuple[Point, ...]:
    """The region's fixed points, cheapest first."""
    with open(ORDER_FILE) as handle:
        order = json.load(handle)[region]
    points = generated_pool(region)
    if sorted(order) != list(range(len(points))):
        raise ValueError(f"{ORDER_FILE} does not order the {region} pool; run vet_pool.py")
    return tuple(points[i] for i in order)


def _from_pool(rng: random.Random, region: str) -> list[Point]:
    """One point from each of the n equal slices of the region's pool."""
    size, n, _ = POOLS[region]
    points, width = pool(region), size // n
    return [points[j * width + rng.randrange(width)] for j in range(n)]


def disk_points(seed: int) -> list[Point]:
    """2F1 and F1 points with |x| <= 0.9: the series kernels only."""
    rng = random.Random(f"eval-disk/{seed}")
    pts = _from_pool(rng, "disk.2f1.real") + _from_pool(rng, "disk.2f1.complex")
    for x in _strata(rng, 24, -0.9, -0.8):
        a, b, c = _gauss_params(rng, (5.0, 12.0), (0.5, 3.0))
        pts.append(point("disk.2f1.negative-large-ab", a, [b], c, [x]))
    pts += _from_pool(rng, "disk.f1.edge") + _from_pool(rng, "disk.f1.inner")
    return pts + list(DISK_DEFECTS)


def continuation_points(seed: int) -> list[Point]:
    """Points off the disk.  Each region has a fixed share of parameters with
    no admissible Euler integral, which raise today."""
    rng = random.Random(f"eval-continuation/{seed}")
    pts = _from_pool(rng, "cont.2f1.off-disk")
    # c below both a and b on the negative axis: only Pfaff helps, and only for |x| <= 9
    for r in sorted(_strata(rng, 15, 0.95, 300.0, log=True)):
        c = rng.uniform(0.3, 1.2)
        pts.append(point("cont.2f1.off-disk.c-lt-ab", rng.uniform(c + 0.1, 3.5), [rng.uniform(c + 0.1, 3.5)], c, [-r]))
    pts += _from_pool(rng, "cont.2f1.cut")
    for i, x in enumerate(_strata(rng, 10, 1.05, 300.0, log=True)):
        a, b = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)  # both orders leave Re b >= 1 on the cut
        pts.append(point("cont.2f1.cut.ab-ge-1", a, [b], max(a, b) + rng.uniform(0.2, 2.0), [x],
                         "below" if i % 2 else "above"))
    # each near-cut point fails quadrature after ~100 ms today, so two keep the probe short
    for x in _strata(rng, 2, 1.1, 20.0, log=True):
        a = rng.uniform(0.2, 0.9)
        pts.append(point("cont.2f1.near-cut", a, [rng.uniform(0.2, 0.9)], a + rng.uniform(0.5, 2.0),
                         [complex(x, rng.choice((-1e-6, 1e-6)))]))
    pts += _from_pool(rng, "cont.f1.out-of-polydisk")
    for i, r in enumerate(_strata(rng, 3, 1.05, 50.0, log=True)):
        # an argument on the cut with Re b >= 1: the split is not integrable
        a = rng.uniform(0.2, 2.0)
        xs = [complex(1.05 + r, 0.0), _fd_argument(rng, rng.uniform(0.1, 50.0))]
        bs = [rng.uniform(1.0, 1.8), rng.uniform(-1.0, 0.95)]
        pts.append(point("cont.f1.cut-b-ge-1", a, bs, a + rng.uniform(0.3, 2.0), xs, "below" if i % 2 else "above"))
    pts += _from_pool(rng, "cont.fd.mixed")
    for i in range(4):
        order = 3 + i % 3
        c = rng.uniform(0.5, 2.0)
        a = c + rng.uniform(0.0, 1.5)   # Re c <= Re a: no Euler integral
        xs = [_off_axis(rng, rng.uniform(0.05, 0.3)) for _ in range(order)]
        pts.append(point("cont.fd.c-le-a", a, [rng.uniform(-0.9, 0.9) for _ in range(order)], c, xs))
    return pts + list(CONTINUATION_DEFECTS)


def cli_points(seed: int) -> list[Point]:
    """The fixed defect points plus a seeded sample of the pooled regions."""
    rng = random.Random(f"cli-oneshot/{seed}")
    disk = [p for p in disk_points(seed) if p.region in ("disk.2f1.real", "disk.2f1.complex", "disk.f1.inner")]
    cont = [p for p in continuation_points(seed)
            if p.region in ("cont.2f1.off-disk", "cont.2f1.cut", "cont.f1.out-of-polydisk", "cont.fd.mixed")]
    # more disk points than continuation ones, so the median falls among the
    # former rather than in the gap between the two
    return rng.sample(disk, 26) + rng.sample(cont, 14) + list(DISK_DEFECTS) + list(CONTINUATION_DEFECTS)
