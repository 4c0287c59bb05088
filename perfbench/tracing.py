"""Spans around the calls between lauricella's modules, recorded from outside.

``Tracer.install`` replaces each public function by a timing wrapper at the
place where another lauricella module (or the benchmark) binds it, e.g.
``hyperfun.integrate`` or ``catalog.hyp2f1``, and wraps the ``IntegrandSpec``
handed to ``integrate``.  Spans stay in memory as
[name, start, end, parent, op, outcome, evaluations, panels]; spans of one
operation share the op id.  Nothing in the library is edited.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, OUTCOME, EVALS, PANELS = range(8)

# span name -> (module, attribute) pairs it wraps
_SITES = {
    "core.gamma": [("hyperfun", "gamma"), ("catalog", "gamma"), ("reductions", "gamma")],
    "core.principal_pow": [("hyperfun", "principal_pow"), ("catalog", "principal_pow")],
    "hyperfun.eval": [(m, f) for m in ("catalog", "hyperfun", "cli")
                      for f in ("hyp2f1", "appell_f1", "lauricella_fd")] + [("reductions", "lauricella_fd")],
    "hyperfun.series": [("hyperfun", "hyp2f1_series"), ("hyperfun", "_appell_series")],
    "elliptic": [("catalog", f) for f in ("complete_k", "complete_e", "incomplete_f")]
                + [("reductions", f) for f in ("complete_k", "incomplete_f")],
    "identities.verify": [("identities", "verify")],
    "reductions.check": [("reductions", f) for f in ("check_reduction", "_quintic_case", "_sextic_case", "_quartic_case")],
    "cli.main": [("cli", "main")],
}
# integrate() call sites, and the layer whose integrand each one receives
_INTEGRATE_SITES = [("hyperfun", "integrate", "hyperfun"), ("reductions", "integrate", "reductions")]
_SEMI_INFINITE_SITES = [("reductions", "integrate_semi_infinite", "reductions")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[OUTCOME] = type(exc).__name__
                raise
            finally:
                self._close(rec)
        return traced

    def wrap_integrate(self, layer: str, fn):
        """integrate(spec, lo, hi, ...) with its integrand traced as `layer`.integrand."""
        integrand = f"{layer}.integrand"

        def traced(spec, lo, hi, *args, **kwargs):
            spec = dataclasses.replace(
                spec,
                evaluator=self.wrap(integrand, spec.evaluator),
                distance_evaluator=None if spec.distance_evaluator is None
                else self.wrap(integrand, spec.distance_evaluator),
            )
            rec = self._open("quadrature.integrate")
            rec[PANELS] = 1 + sum(1 for p in spec.interior_singularities if lo < p < hi)
            rec[START] = time.perf_counter()
            try:
                result = fn(spec, lo, hi, *args, **kwargs)
            except BaseException as exc:
                rec[OUTCOME] = type(exc).__name__
                raise
            finally:
                self._close(rec)
            rec[EVALS] = result.evaluations
            return result
        return traced

    def wrap_semi_infinite(self, layer: str, fn, quadrature):
        """integrate_semi_infinite, whose inner integrate() call sees the mapped integrand."""
        inner = self.wrap_integrate(layer, quadrature.integrate)
        span = self.wrap("quadrature.semi_infinite", fn)

        def traced(*args, **kwargs):
            original = quadrature.integrate
            quadrature.integrate = inner
            try:
                return span(*args, **kwargs)
            finally:
                quadrature.integrate = original
        return traced

    @contextmanager
    def install(self):
        """Patch every site for the duration of the block."""
        mods = {m: importlib.import_module(f"lauricella.{m}")
                for m in ("core", "quadrature", "hyperfun", "identities", "catalog", "reductions", "cli")}
        saved = []

        def patch(module: str, attr: str, wrapper) -> None:
            target = mods[module]
            saved.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper(getattr(target, attr)))

        for name, sites in _SITES.items():
            for module, attr in sites:
                patch(module, attr, lambda fn, name=name: self.wrap(name, fn))
        for module, attr, layer in _INTEGRATE_SITES:
            patch(module, attr, lambda fn, layer=layer: self.wrap_integrate(layer, fn))
        for module, attr, layer in _SEMI_INFINITE_SITES:
            patch(module, attr, lambda fn, layer=layer: self.wrap_semi_infinite(layer, fn, mods["quadrature"]))
        try:
            yield
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span; its spans share the op id."""
        self.op = op
        return self.wrap("op", fn)(*args)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Counts and self times (ms) summed over the given spans."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (rec[END] - rec[START] - child_time[i]) * 1e3

    def ancestor(i: int, names: tuple[str, ...]) -> int:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    quad = ("quadrature.integrate", "quadrature.semi_infinite")
    integrates = [r for r in spans if r[NAME] == "quadrature.integrate"]
    returned = [r for r in integrates if r[OUTCOME] is None]
    integrand_calls = sum(r[EVALS] for r in returned)
    # integrand spans whose integrate() returned: these must match the reported evaluations
    counted = sum(1 for i, r in enumerate(spans)
                  if r[NAME].endswith(".integrand") and spans[r[PARENT]][OUTCOME] is None)
    top_evals = [i for i, r in enumerate(spans) if r[NAME] == "hyperfun.eval" and ancestor(i, ("hyperfun.eval",)) < 0]
    verify_calls = calls.get("identities.verify", 0)
    plan_evals = sum(1 for i in top_evals if ancestor(i, ("identities.verify",)) >= 0)
    main_calls = calls.get("cli.main", 0)
    cli_evals = sum(1 for i in top_evals if ancestor(i, ("cli.main",)) >= 0)
    get = lambda d, k: d.get(k, 0)  # noqa: E731
    return {
        "core.gamma.calls": get(calls, "core.gamma"),
        "core.gamma.self_ms": get(self_ms, "core.gamma"),
        "core.principal_pow.calls": get(calls, "core.principal_pow"),
        "core.principal_pow.self_ms": get(self_ms, "core.principal_pow"),
        "quadrature.integrate.calls": len(integrates),
        "quadrature.integrate.self_ms": get(self_ms, "quadrature.integrate") + get(self_ms, "quadrature.semi_infinite"),
        "quadrature.integrand_calls": integrand_calls,
        "quadrature.panels": sum(r[PANELS] for r in integrates),
        "quadrature.integrand_calls_per_integrate": integrand_calls / len(returned) if returned else 0.0,
        "quadrature.errors": sum(1 for i, r in enumerate(spans)
                                 if r[NAME] in quad and r[OUTCOME] and ancestor(i, quad) < 0),
        "hyperfun.eval.calls": get(calls, "hyperfun.eval"),
        "hyperfun.eval.self_ms": get(self_ms, "hyperfun.eval"),
        "hyperfun.series.calls": get(calls, "hyperfun.series"),
        "hyperfun.series.self_ms": get(self_ms, "hyperfun.series"),
        "hyperfun.integrand.calls": get(calls, "hyperfun.integrand"),
        "hyperfun.integrand.self_ms": get(self_ms, "hyperfun.integrand"),
        "hyperfun.domain_errors": sum(1 for i in top_evals if spans[i][OUTCOME] == "DomainError"),
        "elliptic.calls": get(calls, "elliptic"),
        "elliptic.self_ms": get(self_ms, "elliptic"),
        "identities.verify.calls": verify_calls,
        "identities.verify.self_ms": get(self_ms, "identities.verify"),
        "identities.plan_evals_per_record": plan_evals / verify_calls if verify_calls else 0.0,
        "reductions.check.calls": get(calls, "reductions.check"),
        "reductions.check.self_ms": get(self_ms, "reductions.check"),
        "reductions.integrand.calls": get(calls, "reductions.integrand"),
        "reductions.integrand.self_ms": get(self_ms, "reductions.integrand"),
        "cli.main.self_ms": get(self_ms, "cli.main") / main_calls if main_calls else 0.0,
        "cli.evals_per_request": cli_evals / main_calls if main_calls else 0.0,
        "_integrand_spans_returned": counted,
    }


def dump(spans: list[list], handle) -> None:
    """Write spans as JSON lines: op, name, start and end in microseconds, parent index, outcome."""
    for rec in spans:
        handle.write(json.dumps([rec[OP], rec[NAME], round(rec[START] * 1e6, 1),
                                 round(rec[END] * 1e6, 1), rec[PARENT], rec[OUTCOME]]) + "\n")
