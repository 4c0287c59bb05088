"""Singularity-aware tanh-sinh quadrature for complex-valued integrands.

The rule transforms each panel to the double-exponential variable
x = mid + half*tanh((pi/2) sinh t) and doubles the node density per level
until two consecutive levels agree.  Interior algebraic singularities are
panel boundaries, so every panel is singular at its endpoints at worst.

Endpoint accuracy: plain evaluators f(x) lose the distance to a nonzero
endpoint to rounding once it falls below ~1e-16, which caps achievable
accuracy near 1e-8 for (b-x)**beta behaviour.  Integrands that need the
full 1e-11 therefore receive the node's distance to both panel endpoints,
computed in the t-domain to full relative precision, via
``IntegrandSpec.distance_evaluator``.

Samples may be float or complex and are used as returned.  Each one must be
finite: the panel loop tests the weighted term once per node (the sum of its
real and imaginary parts is finite) and re-checks the raw sample only when
that test fails, so a non-finite sample raises :class:`QuadratureError` at the
node that produced it, while a finite sample whose term overflows does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "IntegrandSpec",
    "QuadratureError",
    "QuadratureResult",
    "integrate",
    "integrate_semi_infinite",
]

MAX_LEVEL = 12
_SIGMA_FLOOR = 5e-300      # drop nodes once the near-endpoint distance underflows
_SEMI_INF_U_FLOOR = 1e-40  # mapped semi-infinite integrands are cut below this


class QuadratureError(RuntimeError):
    """Non-convergence or a non-finite sample at a regular point."""


@dataclass(frozen=True)
class IntegrandSpec:
    """One integrand plus the singularity structure the rule must respect.

    evaluator               plain f(x) -> complex
    interior_singularities  strictly increasing points inside the interval
                            carrying integrable algebraic singularities
    endpoint_exponents      algebraic orders at (lo, hi); each > -1
    distance_evaluator      optional f(x, dist_lo, dist_hi) -> complex where
                            the distances are to the current panel's endpoints
                            at full relative precision; wins over `evaluator`
    """

    evaluator: Callable[[float], complex]
    interior_singularities: tuple[float, ...] = ()
    endpoint_exponents: tuple[float, float] = (0.0, 0.0)
    distance_evaluator: Optional[Callable[[float, float, float], complex]] = None

    def __post_init__(self) -> None:
        pts = self.interior_singularities
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("interior singularities must be strictly increasing")
        if min(self.endpoint_exponents) <= -1.0:
            raise ValueError("endpoint exponents must exceed -1 (integrability)")

    def _distance_form(self) -> tuple[Callable[[float, float, float], complex], bool]:
        """(three-arg form, whether nodes colliding with an endpoint are usable).

        With a distance evaluator the singular behaviour is computed from the
        exact distances, so a node whose coordinate rounds onto the endpoint
        is still fine; a plain evaluator would blow up there instead.
        """
        if self.distance_evaluator is not None:
            return self.distance_evaluator, True
        f = self.evaluator
        return (lambda x, _dlo, _dhi: f(x)), False


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# Node tables, shared by every panel.  A node is (sigma_lo, sigma_hi, weight)
# with sigma_lo + sigma_hi = 1 the normalized positions measured from each
# panel end, both kept to full relative precision.
_node_cache: dict[int, list[tuple[float, float, float]]] = {}


def _make_node(t: float) -> Optional[tuple[float, float, float]]:
    theta = 0.5 * math.pi * math.sinh(t)
    try:
        e = math.exp(-2.0 * abs(theta))
    except OverflowError:
        return None
    near = e / (1.0 + e)          # distance to the endpoint t runs towards
    if near < _SIGMA_FLOOR:
        return None
    far = 1.0 / (1.0 + e)
    weight = math.pi * math.cosh(t) * e / ((1.0 + e) * (1.0 + e))
    if t >= 0.0:
        return (far, near, weight)
    return (near, far, weight)


def _nodes(level: int) -> list[tuple[float, float, float]]:
    """New nodes introduced at `level` (odd multiples of h except level 0)."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    h = 0.5 ** level
    out = []
    if level == 0:
        ks: Sequence[float] = range(0, 64)
        step = 1.0
    else:
        ks = range(1, 64 * 2 ** level, 2)
        step = h
    for k in ks:
        t = k * step
        node = _make_node(t)
        if node is None:
            break
        out.append(node)
        if k > 0 or level > 0:
            mirrored = _make_node(-t)
            if mirrored is not None:
                out.append(mirrored)
    _node_cache[level] = out
    return out


def _integrate_panel(
    g: Callable[[float, float, float], complex],
    lo: float,
    hi: float,
    tol: float,
    collision_ok: bool,
) -> tuple[complex, float, int, bool, bool]:
    span = hi - lo
    evaluations = 0
    level_sum = 0.0 + 0.0j      # sum of w*g over all nodes seen so far
    prev_value: Optional[complex] = None
    value = 0.0 + 0.0j
    err = math.inf
    collided_lo = collided_hi = False
    isfinite = math.isfinite
    for level in range(MAX_LEVEL + 1):
        h = 0.5 ** level
        scale = span * h
        # term cutoff on the scale of the final value, not of level_sum
        floor = 1e-3 * tol * max(1.0, scale * abs(level_sum)) / scale
        tail_small = 0
        for sigma_lo, sigma_hi, weight in _nodes(level):
            d_lo = span * sigma_lo
            d_hi = span * sigma_hi
            x = lo + d_lo if sigma_lo <= 0.5 else hi - d_hi
            if not (lo < x < hi):
                # the coordinate rounded onto an endpoint; the distances are
                # still exact, so keep the node when g works off them
                if not collision_ok:
                    if sigma_lo <= 0.5:
                        collided_lo = True
                    else:
                        collided_hi = True
                    continue
            sample = g(x, d_lo, d_hi)
            evaluations += 1
            term = weight * sample
            # an inf or nan part of the sample makes this sum non-finite; a
            # sum that merely overflows is caught by re-checking the sample
            if not isfinite(term.real + term.imag) and not (
                isfinite(sample.real) and isfinite(sample.imag)
            ):
                raise QuadratureError(f"non-finite integrand sample at x = {x}")
            level_sum += term
            # Nodes are generated outward within a level; once contributions
            # are far below tolerance the remaining tail cannot matter.
            if abs(term) < floor:
                tail_small += 1
                if tail_small >= 12:
                    break
            else:
                tail_small = 0
        value = scale * level_sum
        if prev_value is not None:
            err = abs(value - prev_value)
            if err <= tol * max(1.0, abs(value)) and level >= 2:
                return value, err, evaluations, collided_lo, collided_hi
        prev_value = value
    return value, err, evaluations, collided_lo, collided_hi


def integrate(
    spec: IntegrandSpec,
    lo: float,
    hi: float,
    tol: float = 1e-11,
) -> QuadratureResult:
    """Integrate over [lo, hi], splitting at declared interior singularities."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if tol < 1e-13:
        raise ValueError(f"tol must be >= 1e-13, got {tol}")
    splits = [p for p in spec.interior_singularities if lo < p < hi]
    points = [lo] + splits + [hi]
    g, collision_ok = spec._distance_form()
    total = 0.0 + 0.0j
    total_err = 0.0
    evaluations = 0
    panel_tol = tol / max(1, len(points) - 1)
    skipped_tail = 0.0
    for i, (a, b) in enumerate(zip(points[:-1], points[1:])):
        value, err, n, hit_lo, hit_hi = _integrate_panel(g, a, b, panel_tol, collision_ok)
        total += value
        total_err += err
        evaluations += n
        # A plain evaluator cannot see inside the band where the coordinate
        # rounds onto a singular endpoint; charge the un-sampled tail mass
        # (width**(1+beta)) to the error estimate instead of hiding it.
        for hit, coord, beta in (
            (hit_lo, a, spec.endpoint_exponents[0] if i == 0 else -0.5),
            (hit_hi, b, spec.endpoint_exponents[1] if i == len(points) - 2 else -0.5),
        ):
            if hit and beta < 0.0:
                width = 1.2e-16 * max(1.0, abs(coord))
                skipped_tail += width ** (1.0 + beta) / (1.0 + beta) * max(1.0, abs(value))
    total_err += skipped_tail
    if total_err > tol * max(1.0, abs(total)):
        detail = "; singular-endpoint integrands need a distance_evaluator" if skipped_tail else ""
        raise QuadratureError(
            f"quadrature did not converge: error estimate {total_err:.3e} > tol {tol:.3e}{detail}"
        )
    return QuadratureResult(total, total_err, evaluations)


def integrate_semi_infinite(
    spec: IntegrandSpec,
    lo: float,
    tol: float = 1e-9,
    mapped_exponent: float = 0.0,
) -> QuadratureResult:
    """Integrate over [lo, inf) via the map u = 1/(1 + t - lo).

    The integrand must decay at least algebraically with exponent < -1.
    ``mapped_exponent`` declares the algebraic order of the transformed
    integrand at u = 0 (i.e. decay_exponent + 2) when it is singular there.
    """
    if tol < 1e-13:
        raise ValueError(f"tol must be >= 1e-13, got {tol}")
    f = spec.evaluator

    # Divergence tripwire: three decades of non-decreasing |t*f(t)| mean the
    # tail integral cannot converge.
    probes = [abs(complex(f(lo + 10.0 ** j))) * (lo + 10.0 ** j) for j in (2, 3, 4)]
    if all(p > 0 for p in probes) and probes[0] <= probes[1] <= probes[2]:
        raise QuadratureError("integrand tail does not decay faster than 1/t")

    distance_form = spec.distance_evaluator

    def g(u: float, _d0: float, d1: float) -> complex:
        if u < _SEMI_INF_U_FLOOR:
            return 0.0 + 0.0j
        t = lo + (1.0 - u) / u
        if distance_form is not None:
            # d1 is the exact distance to u = 1, so t - lo = d1/u keeps full
            # relative precision for integrands singular at the finite end
            return distance_form(t, d1 / u, math.inf) / (u * u)
        return f(t) / (u * u)

    mapped = IntegrandSpec(
        evaluator=lambda u: g(u, u, 1.0 - u),
        endpoint_exponents=(mapped_exponent, 0.0),
        distance_evaluator=g,
    )
    return integrate(mapped, 0.0, 1.0, tol)
