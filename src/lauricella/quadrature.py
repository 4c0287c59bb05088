"""Singularity-aware tanh-sinh quadrature for complex-valued integrands.

The rule transforms each panel to the double-exponential variable
x = mid + half*tanh((pi/2) sinh t) and doubles the node density per level
until the error estimate meets the tolerance.  Interior algebraic
singularities are panel boundaries, so every panel is singular at its
endpoints at worst.

Stopping: with I_L the value at level L and d_L = |I_L - I_{L-1}|, the rule
converges quadratically, so I_L is off by about d_L**2 / d_{L-1} (Takahasi &
Mori 1974; Bailey, Jeyabalan & Li 2005).  The estimate e_L is
d_L * (d_L / d_{L-1}) when d_L < d_{L-1} and d_L otherwise, formed without
d_L**2, which underflows for integrals below ~1e-154.  It is never below the
rounding floor 8 eps * span * sum|level-0 terms|.  A panel stops at the first
level L >= 3 with e_L <= tol * |I_L| and reports e_L.  `integrate` splits tol
evenly over the panels and accepts when the summed estimates are within tol
of |value|; when the panels cancel, so that |value| is below the sum of their
sizes, it integrates them once more at a tolerance tightened by that ratio
before it raises.  Every test is relative: an integral of 1e-120 is accepted
on the same terms as one of 1.

Tolerance: tol follows `core.check_quad_tol`, the one rule that the
evaluators' ``quad_tol`` and the command line's ``--quad-tol`` share: finite
and at least 1e-13.  Any other tol, inf and nan included, raises
`DomainError` before the integrand is called.

Endpoint accuracy: the integrand receives, with each node x, the node's
distances to both panel ends, computed in the t-domain to full relative
precision.  Near a nonzero end x itself loses that distance to rounding
once it falls below ~1e-16, and the nodes nearer than that round onto the
end; an integrand singular there must take its singular factors from the
distances, which is what lets (b-x)**beta behaviour reach the full 1e-11.
On a panel so short that span * 5e-300 underflows to 0.0, each level drops
the nodes whose distance to their own end, span * sigma, underflows to 0.0:
no singular factor survives a distance of 0.0.  Every other panel keeps all
of its nodes.

Truncation: each side of a panel (the nodes towards lo and those towards hi)
keeps a reach, the furthest |t| at which a term met the tail floor.  The
floor is relative to the running sum, 1e-3*tol*|sum|, so a term below it moves
the panel's value by under 1e-3*tol of itself, whatever the value's size.
Level 0 evaluates all of its nodes and sets each reach against its own sum;
every later level evaluates a side only out to its reach plus a margin of
max(2h, 0.5) in t, and a term inside the margin that still meets the floor
pushes the reach out.  A side that decays fast thus stops early, whatever the
other side does.

Samples may be float or complex and are used as returned.  Each one must be
finite.  Finiteness is checked once per level, on the running sum: a finite
sum proves every sample in it finite.  When the sum is not finite, the level
is re-evaluated to name the first non-finite sample in the
:class:`QuadratureError`; when every sample is finite, the integral has left
the float range and that is the error raised.  An integrand that raises
``OverflowError``, ``ZeroDivisionError`` or ``ValueError`` gives a
:class:`QuadratureError` too; the library's own ``DomainError`` and
``GammaPoleError`` pass through unchanged.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import InitVar, dataclass
from typing import Callable, Optional, Sequence

from .core import DEFAULT_QUAD_TOL, DomainError, GammaPoleError, QuadratureError, check_quad_tol

__all__ = [
    "IntegrandSpec",
    "QuadratureError",
    "QuadratureResult",
    "integrate",
    "integrate_semi_infinite",
]

MAX_LEVEL = 12
_REACH_MARGIN = 0.5        # least |t| past a side's reach that each level evaluates
_SIGMA_FLOOR = 5e-300      # drop nodes once the near-endpoint distance underflows
_SEMI_INF_U_FLOOR = 1e-150  # mapped semi-infinite integrands are cut below this
_SLOPE_DROP = 0.1           # largest inward fall of a mapped tail's power that is not a divergence
SEMI_QUAD_TOL = 1e-9        # `integrate_semi_infinite`'s tolerance when none is given
# rounding of a weighted sample, relative to its size: the weight, the
# distances raised to the integrand's powers and the product each add a few eps
_ROUNDING = 8.0 * sys.float_info.epsilon

# f(x, d_lo, d_hi): the integrand at x, given x's distances to the panel ends
_Integrand = Callable[[float, float, float], complex]


@dataclass(frozen=True)
class IntegrandSpec:
    """One integrand: its evaluator and the points where the rule must split.

    evaluator               f(x, d_lo, d_hi) -> complex, where d_lo and d_hi
                            are x's distances to the current panel's ends at
                            full relative precision; near a singular end,
                            compute the singular factors from them
    interior_singularities  strictly increasing finite points inside the
                            interval carrying integrable algebraic singularities
    distance_evaluator      init-only alias for `evaluator`; reads None

    No singularity order is declared: tanh-sinh integrates an integrable
    algebraic end singularity without knowing it.
    """

    evaluator: Optional[_Integrand] = None
    interior_singularities: tuple[float, ...] = ()
    distance_evaluator: InitVar[Optional[_Integrand]] = None

    def __post_init__(self, distance_evaluator: Optional[_Integrand]) -> None:
        if distance_evaluator is not None:
            if self.evaluator is not None:
                raise ValueError("give evaluator or its alias distance_evaluator, not both")
            object.__setattr__(self, "evaluator", distance_evaluator)
        if self.evaluator is None:
            raise ValueError("an integrand needs an evaluator")
        pts = self.interior_singularities
        if not all(map(math.isfinite, pts)):
            raise ValueError(f"interior singularities must be finite, got {pts}")
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise ValueError("interior singularities must be strictly increasing")


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# Node tables, shared by every panel.  Each level's nodes split into the ones
# towards lo and the ones towards hi, each list running outward from the
# midpoint; the node at t = 0 goes with lo.  A node is
# (|t|, offset, sigma_lo, sigma_hi, weight): sigma_lo + sigma_hi = 1 are the
# normalized distances to the panel ends, kept to full relative precision, and
# x = end + span*offset from the end its side runs towards.
_Node = tuple[float, float, float, float, float]
_node_cache: dict[int, tuple[list[_Node], list[_Node]]] = {}


def _make_node(t: float) -> Optional[tuple[float, float, float]]:
    """(distance to the end t runs towards, distance to the other, weight)."""
    theta = 0.5 * math.pi * math.sinh(t)
    e = math.exp(-2.0 * abs(theta))
    near = e / (1.0 + e)
    if near < _SIGMA_FLOOR:
        return None
    return near, 1.0 / (1.0 + e), math.pi * math.cosh(t) * e / ((1.0 + e) * (1.0 + e))


def _nodes(level: int) -> tuple[list[_Node], list[_Node]]:
    """The (towards lo, towards hi) nodes new at `level`: odd multiples of h, except level 0."""
    cached = _node_cache.get(level)
    if cached is not None:
        return cached
    if level == 0:
        ts = [float(k) for k in range(64)]
    else:
        h = 0.5 ** level
        ts = [k * h for k in range(1, 64 * 2 ** level, 2)]
    towards_lo: list[_Node] = []
    towards_hi: list[_Node] = []
    for t in ts:
        node = _make_node(t)
        if node is None:
            break
        near, far, weight = node
        towards_lo.append((t, near, near, far, weight))
        if t > 0.0:
            towards_hi.append((t, -near, far, near, weight))
    _node_cache[level] = (towards_lo, towards_hi)
    return towards_lo, towards_hi


def _sweep(
    g: _Integrand,
    nodes: list[_Node],
    end: float,
    span: float,
    total: complex,
    reach: float,
    margin: float,
    floor: float,
    terms: Optional[list[tuple[float, complex]]] = None,
) -> tuple[complex, float, int]:
    """Add weight*g over one side's nodes, out to |t| = reach + margin, to `total`.

    A term at or above `floor` past the reach moves the reach out to its |t|.
    Returns (total, reach, evaluations).  The evaluated nodes are exactly
    those with |t| <= reach + margin for the returned reach.  `terms`, when
    given, collects (|t|, term) for every evaluated node.
    """
    evaluations = 0
    limit = reach + margin
    for t, offset, sigma_lo, sigma_hi, weight in nodes:
        if t > limit:
            break
        term = weight * g(end + span * offset, span * sigma_lo, span * sigma_hi)
        evaluations += 1
        total += term
        if terms is not None:
            terms.append((t, term))
        if t > reach and abs(term) >= floor:
            reach = t
            limit = t + margin
    return total, reach, evaluations


def _integrate_panel(
    g: _Integrand,
    lo: float,
    hi: float,
    tol: float,
) -> tuple[complex, float, int]:
    """(value, error estimate, evaluations)."""
    span = hi - lo
    tiny = span * _SIGMA_FLOOR == 0.0   # some nodes' distances to their own end underflow
    evaluations = 0
    level_sum = 0.0 + 0.0j      # sum of w*g over all nodes seen so far
    prev_value = value = 0.0 + 0.0j
    prev_diff = 0.0             # |I_{L-1} - I_{L-2}|; 0 until there is one
    rounding = 0.0
    err = math.inf
    reach_lo = reach_hi = math.inf   # level 0 evaluates every node
    first_lo: list[tuple[float, complex]] = []   # level 0's (|t|, term) per side
    first_hi: list[tuple[float, complex]] = []
    for level in range(MAX_LEVEL + 1):
        h = 0.5 ** level
        margin = max(2.0 * h, _REACH_MARGIN)
        # a term below the floor moves the value by under 1e-3*tol of itself
        floor = 1e-3 * tol * abs(level_sum)
        towards_lo, towards_hi = _nodes(level)
        if tiny:
            towards_lo = [node for node in towards_lo if span * node[2] != 0.0]
            towards_hi = [node for node in towards_hi if span * node[3] != 0.0]
        level_sum, reach_lo, n_lo = _sweep(
            g, towards_lo, lo, span, level_sum, reach_lo, margin, floor, first_lo if level == 0 else None
        )
        level_sum, reach_hi, n_hi = _sweep(
            g, towards_hi, hi, span, level_sum, reach_hi, margin, floor, first_hi if level == 0 else None
        )
        evaluations += n_lo + n_hi
        if not cmath.isfinite(level_sum):
            # a finite sum proves every sample in it finite; only now sweep the
            # level's nodes once more, to raise at its first non-finite sample
            def checked(x: float, d_lo: float, d_hi: float) -> complex:
                sample = g(x, d_lo, d_hi)
                if not cmath.isfinite(sample):
                    raise QuadratureError(f"non-finite integrand sample at x = {x}")
                return sample

            _sweep(checked, towards_lo, lo, span, 0j, reach_lo, margin, floor)
            _sweep(checked, towards_hi, hi, span, 0j, reach_hi, margin, floor)
            raise QuadratureError(f"integral over [{lo}, {hi}] exceeds the floating-point range")
        value = span * h * level_sum
        if level == 0:
            # level 0 saw every node; each side reaches as far as a term meets its own floor
            floor = 1e-3 * tol * abs(level_sum)
            reach_lo = max((t for t, term in first_lo if abs(term) >= floor), default=0.0)
            reach_hi = max((t for t, term in first_hi if abs(term) >= floor), default=0.0)
            rounding = _ROUNDING * span * sum(abs(term) for _, term in first_lo + first_hi)
        else:
            diff = abs(value - prev_value)
            # quadratic convergence: I_L is off by about d_L**2/d_{L-1}, formed
            # as a product of ratios because d_L**2 underflows for tiny integrals
            err = max(diff * (diff / prev_diff) if diff < prev_diff else diff, rounding)
            if level >= 3 and err <= tol * abs(value):
                break
            prev_diff = diff
        prev_value = value
    return value, err, evaluations


def _integrate_panels(g: _Integrand, points: Sequence[float], panel_tol: float) -> tuple[complex, float, float, int]:
    """(sum, summed error estimate, sum of |panel|, evaluations)."""
    total = 0.0 + 0.0j
    total_err = size = 0.0
    evaluations = 0
    for a, b in zip(points[:-1], points[1:]):
        try:
            value, err, n = _integrate_panel(g, a, b, panel_tol)
        except (DomainError, GammaPoleError):
            raise
        except OverflowError:
            # raised by the integrand itself, or by abs() of a huge finite sum
            raise QuadratureError(f"integrand on [{a}, {b}] exceeds the floating-point range") from None
        except (ZeroDivisionError, ValueError) as exc:
            # math.pow(0.0, -0.5) and math.log(0.0) raise ValueError
            what = "divided by zero" if isinstance(exc, ZeroDivisionError) else f"raised ValueError ({exc})"
            raise QuadratureError(
                f"integrand on [{a}, {b}] {what}: a node's x can round onto a panel end, "
                "so take the singular factors from the distances d_lo, d_hi"
            ) from None
        total += value
        total_err += err
        size += abs(value)
        evaluations += n
    return total, total_err, size, evaluations


def _check_converged(value: complex, err: float, tol: float) -> None:
    if not err <= tol * abs(value):   # a nan estimate fails too
        raise QuadratureError(
            f"quadrature did not converge: error estimate {err:.3e} > tol {tol:.3e} * |value| {abs(value):.3e}"
        )


def integrate(
    spec: IntegrandSpec,
    lo: float,
    hi: float,
    tol: float = DEFAULT_QUAD_TOL,
) -> QuadratureResult:
    """Integrate over a finite [lo, hi], splitting at declared interior singularities.

    The returned value meets error_estimate <= tol * |value|.  When the
    panels cancel, so that |value| is below the sum of their sizes, they are
    integrated once more at a tolerance tightened by that ratio.
    """
    if not -math.inf < lo < hi < math.inf:   # nan fails too
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    check_quad_tol(tol)
    points = [lo, *(p for p in spec.interior_singularities if lo < p < hi), hi]
    panel_tol = tol / (len(points) - 1)
    total, total_err, size, evaluations = _integrate_panels(spec.evaluator, points, panel_tol)
    if not total_err <= tol * abs(total) and abs(total) < size:
        total, total_err, _, n = _integrate_panels(spec.evaluator, points, panel_tol * abs(total) / size)
        evaluations += n
    _check_converged(total, total_err, tol)
    return QuadratureResult(total, total_err, evaluations)


def integrate_semi_infinite(
    spec: IntegrandSpec,
    lo: float,
    tol: float = SEMI_QUAD_TOL,
) -> QuadratureResult:
    """Integrate over [lo, inf), lo finite: the tail past the last split via u = 1/(1 + t - end).

    The integrand must decay faster than 1/t.  A t**-p tail maps to
    u**(p - 2) at u = 0, an algebraic end like any other.  With interior
    singularities t > lo, [lo, end] up to the last one goes to `integrate`,
    which splits at the others, and the two estimates together must meet
    tol.  The integrand is called as g(t, d_lo, d_hi) with t's distances to
    the ends of its panel, d_hi = inf on the tail.

    The mapped integrand h is 0 below u = 1e-150.  The band [0, u1) below
    the innermost nonzero sample u1 is charged u1 |h(u1)| / (1 + beta), its
    integral were h a power u**beta there, with beta read from the two
    innermost nonzero samples; 1 + beta <= 0 raises `QuadratureError`.  So
    does a beta more than `_SLOPE_DROP` below the power read from the second
    and third samples: a power that falls inward is a tail whose decay
    stops, which beta alone can read as convergent.  A power that rises
    inward (a tail decaying ever faster, like e**-t) is kept.
    """
    if not -math.inf < lo < math.inf:   # nan fails too
        raise ValueError(f"need finite lo < hi, got [{lo}, inf]")
    check_quad_tol(tol)
    g = spec.evaluator
    end = max((lo, *spec.interior_singularities))   # where the tail starts

    # Divergence tripwire: three decades of non-decreasing |t*f(t)| mean the
    # tail integral cannot converge.  The probes take the form the mapped
    # samples take, distances and all.
    ts = (end + 1e2, end + 1e3, end + 1e4)
    try:
        probes = [abs(complex(g(t, t - end, math.inf))) * t for t in ts]
    except (DomainError, GammaPoleError):
        raise
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise QuadratureError(f"integrand at the divergence probes t = {ts} raised {exc!r}") from None
    if all(p > 0 for p in probes) and probes[0] <= probes[1] <= probes[2]:
        raise QuadratureError("integrand tail does not decay faster than 1/t")

    inner = [(math.inf, 0.0)] * 3   # the three innermost nonzero samples (u, |h(u)|)

    def mapped(u: float, _d0: float, d1: float) -> complex:
        if u < _SEMI_INF_U_FLOOR:
            return 0.0 + 0.0j
        # d1 is the exact distance to u = 1, so t - end = d1/u keeps full
        # relative precision for integrands singular at the finite end
        h = g(end + (1.0 - u) / u, d1 / u, math.inf) / (u * u)
        if h and u < inner[2][0] and u != inner[0][0] and u != inner[1][0]:
            inner[:] = sorted((inner[0], inner[1], (u, abs(h))))
        return h

    tail = integrate(IntegrandSpec(evaluator=mapped), 0.0, 1.0, tol)
    value, err, evaluations = tail.value, tail.error_estimate, tail.evaluations
    (u1, h1), (u2, h2), (u3, h3) = inner
    if u2 < math.inf:
        # the band [0, u1) below the innermost sample, were h = h1 (u/u1)**beta there
        beta = (math.log(h1) - math.log(h2)) / math.log(u1 / u2)
        outer = (math.log(h2) - math.log(h3)) / math.log(u2 / u3) if u3 < math.inf else beta
        if not 1.0 + beta > 0.0 or beta < outer - _SLOPE_DROP:
            raise QuadratureError(
                f"integrand tail does not decay faster than 1/t: its mapped samples go like u**{beta:.3g} "
                f"at u = {u1:.3g}, after u**{outer:.3g} further out"
            )
        err += u1 * h1 / (1.0 + beta)
    if end > lo:
        head = integrate(spec, lo, end, tol)
        value, err, evaluations = value + head.value, err + head.error_estimate, evaluations + head.evaluations
    _check_converged(value, err, tol)   # fails where the band's charge is too large, or head and tail cancel
    return QuadratureResult(value, err, evaluations)
