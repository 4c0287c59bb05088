"""The lauricella benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
One client runs the workload closed loop, in whole passes over the seeded
inputs, for at least S seconds, with no threads.  Every output is checked:
values against mpmath references (computed before any timing and cached in
``.perfbench/``), catalog verdicts against ``verdicts.json``.  Inputs of the
known-defect regions (inputs.KNOWN_DEFECT_REGIONS) are not timed: they run
once after the timed loop, and their failures are reported on "#" lines and
as defects.failing, not in attempted and failed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes,
then three passes with spans around every call between lauricella's modules
(see tracing.py), and prints the per-layer metrics of one pass.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import inputs
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

# The highest percentile with at least ten samples beyond it in a 20-second run
# on a 2-CPU host (catalog, cli-oneshot), or, where a run has thousands of
# operations, the highest whose spread over seeds stays within a third of its
# bound: in eval-disk and eval-continuation the highest percentiles rest on the
# few costliest points of a seed's inputs.
TAIL_PERCENTILE = {"catalog": 94.0, "eval-disk": 98.0, "eval-continuation": 95.0, "cli-oneshot": 90.0}
SETUP_REPEATS = 7
TRACED_PASSES = 3
COUNT_SUFFIXES = (".calls", "integrand_calls", ".panels", ".errors", "domain_errors")
END_TO_END_UNITS = {"latency_ms.p50": "ms", "latency_ms.tail": "ms", "throughput_ops_s": "1/s", "setup_s": "s"}
PER_LAYER_UNITS = {
    "quadrature.integrand_calls_per_integrate": "evals/integrate",
    "identities.plan_evals_per_record": "evals/record",
    "cli.evals_per_request": "evals/request",
    "trace.overhead_frac": "frac",
    **{name: "ms" for name in ("core.gamma.self_ms", "core.principal_pow.self_ms", "quadrature.integrate.self_ms",
                               "hyperfun.eval.self_ms", "hyperfun.series.self_ms", "hyperfun.integrand.self_ms",
                               "elliptic.self_ms", "identities.verify.self_ms", "reductions.check.self_ms",
                               "reductions.integrand.self_ms", "cli.import_ms", "cli.main.self_ms")},
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library() -> None:
    """Import lauricella from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "lauricella", "__init__.py")):
        fail(f"no library sources under {SRC}; run from the root of a lauricella checkout")
    sys.path.insert(0, SRC)
    import lauricella

    if not os.path.abspath(lauricella.__file__).startswith(SRC + os.sep):
        fail(f"imported lauricella from {lauricella.__file__}, not from {SRC}")


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# operations: each returns (seconds, failed, wrong value)

def catalog_op(expected):
    start = time.perf_counter()
    try:
        got = workloads.catalog_pass()
    except Exception:
        return time.perf_counter() - start, True, False
    elapsed = time.perf_counter() - start
    return elapsed, got != expected, False


def make_eval_op():
    import oracle

    evaluate = workloads.make_evaluator()

    def op(item):
        p, ref = item
        start = time.perf_counter()
        try:
            value = evaluate(p)
        except Exception:
            return time.perf_counter() - start, True, False
        elapsed = time.perf_counter() - start
        wrong = not oracle.within_tolerance(complex(value), ref)
        return elapsed, wrong, wrong
    return op


def check_cli_output(code: int, stdout: str, ref: complex) -> tuple[bool, bool]:
    import oracle

    if code != 0:
        return True, False
    try:
        value = workloads.parse_cli_value(stdout)
    except (ValueError, IndexError):
        return True, True
    wrong = not oracle.within_tolerance(value, ref)
    return wrong, wrong


def make_cli_op(env):
    def op(item):
        p, ref = item
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", workloads.CLI_ENTRY, *workloads.cli_argv(p)],
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        return (elapsed, *check_cli_output(proc.returncode, proc.stdout, ref))
    return op


@dataclass
class Pass:
    """One pass over the inputs, in host seconds until `scale` turns them into reference seconds."""

    latencies: list[float]
    steps: list[float]   # each operation plus its output check
    samples: list[int]   # gauge sample in force at each operation
    bad: list[bool]      # whether each operation failed
    wrong: int
    factor: float = 1.0  # mean host-to-reference factor, once scaled

    def scale(self, gauge: speed.Gauge) -> "Pass":
        factors = [gauge.factor(k) for k in self.samples]
        self.latencies = [t * f for t, f in zip(self.latencies, factors)]
        self.steps = [t * f for t, f in zip(self.steps, factors)]
        self.factor = statistics.fmean(factors)
        return self

    @property
    def failed(self) -> int:
        return sum(self.bad)

    @property
    def busy(self) -> float:
        return sum(self.steps)


def one_pass(items, op, gauge: speed.Gauge, tracer=None, first_op: int = 0) -> Pass:
    result = Pass([], [], [], [], 0)
    for i, item in enumerate(items, first_op):
        sample = gauge.refresh_if_due()
        start = time.perf_counter()
        elapsed, bad, bad_value = tracer.run_op(i, op, item) if tracer else op(item)
        result.steps.append(time.perf_counter() - start)
        result.latencies.append(elapsed)
        result.samples.append(sample)
        result.bad.append(bool(bad))
        result.wrong += bad_value
    return result


def run_passes(items, op, seconds: float, gauge: speed.Gauge, min_passes: int = 1) -> list[Pass]:
    """Whole passes over items until `seconds` have elapsed; closed loop, one client."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(items, op, gauge))
    return passes


# ---------------------------------------------------------------------------
# set-up

def measure_setup(workload: str, seed: int, env, gauge: speed.Gauge) -> float:
    """Median time from starting a fresh interpreter to its "ready" line, in reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        sample = gauge.refresh()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), "setup", workload, str(seed)],
                              env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append((time.perf_counter() - start, sample))
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"set-up probe failed with exit code {proc.returncode}")
    gauge.refresh()
    return statistics.median(t * gauge.factor(k) for t, k in times)


def load_items(workload: str, seed: int):
    """The workload's inputs paired with what their outputs must be: (timed, known-defect probe)."""
    if workload == "catalog":
        return [workloads.load_verdicts()], []
    import oracle

    cache = oracle.ReferenceCache(os.path.join(STATE, "references.json"))
    try:
        items = [(p, cache.get(p)) for p in workloads.POINTS[workload](seed)]
    finally:
        cache.save()
    return ([item for item in items if not inputs.known_defect(item[0])],
            [item for item in items if inputs.known_defect(item[0])])


def report_probe(probe_items, probe: Pass) -> None:
    """The known-defect probe's outcome, one "#" line per region."""
    failed: dict[str, list[int]] = {}
    for (p, _), bad in zip(probe_items, probe.bad):
        counts = failed.setdefault(p.region, [0, 0])
        counts[0] += bad
        counts[1] += 1
    print(f"# known-defect probe, untimed and outside attempted/failed: {probe.failed} of {len(probe_items)} "
          f"points fail, {probe.wrong} of them with a wrong value")
    for region, (bad, total) in failed.items():
        print(f"#   {region}: {bad} of {total} fail")


# ---------------------------------------------------------------------------
# traced passes

def traced_pass(workload: str, items, probe_items, op, env, gauge: speed.Gauge):
    """One pass with spans over the timed inputs, then the probe's; returns both passes,
    their spans and the CLI import times (ms)."""
    import tracing

    if workload != "cli-oneshot":
        tracer = tracing.Tracer()
        with tracer.install():
            result = one_pass(items, op, gauge, tracer)
            probe = one_pass(probe_items, op, gauge, tracer, first_op=len(items))
        return result, probe, tracer.spans, []

    spans, imports = [], []

    def probe_op(item):
        p, ref = item
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), "cli", *workloads.cli_argv(p)],
                              env=env, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"traced CLI probe failed: {proc.stderr.strip()}")
        data = json.loads(proc.stdout.splitlines()[-1])
        offset = len(spans)
        for rec in data["spans"]:
            if rec[tracing.PARENT] >= 0:
                rec[tracing.PARENT] += offset
            rec[tracing.OP] = len(imports)
            spans.append(rec)
        imports.append(data["import_ms"])
        return (elapsed, *check_cli_output(data["exit"], data["stdout"], ref))

    return one_pass(items, probe_op, gauge), one_pass(probe_items, probe_op, gauge), spans, imports


def source_digest() -> str:
    """Digest of the library's and the benchmark's sources."""
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "lauricella"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def trace_run(workload: str, seed: int, seconds: float, items, probe_items, op, env, gauge: speed.Gauge):
    import tracing

    untraced = run_passes(items, op, seconds / 2, gauge, min_passes=2)
    spans_path = os.path.join(STATE, f"spans-{workload}-{seed}.jsonl")
    traced, probes, raw_metrics, imports = [], [], [], []
    for k in range(TRACED_PASSES):
        result, probe, spans, pass_imports = traced_pass(workload, items, probe_items, op, env, gauge)
        raw_metrics.append(tracing.layer_metrics(spans))
        if k == 0:
            with open(spans_path, "w") as handle:
                tracing.dump(spans, handle)
        traced.append(result)
        probes.append(probe)
        imports.append(pass_imports)
    gauge.refresh()
    for p in untraced + traced:
        p.scale(gauge)
    per_pass = [{name: v * p.factor if name.endswith("_ms") else v for name, v in m.items()}
                for p, m in zip(traced, raw_metrics)]
    imports = [ms * p.factor for p, pass_imports in zip(traced, imports) for ms in pass_imports]
    attempted = sum(len(p.latencies) for p in untraced + traced)
    failed = sum(p.failed for p in untraced + traced)

    correct = True
    counts = [{**{k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)}, "defects.failing": p.failed}
              for m, p in zip(per_pass, probes)]
    if any(c != counts[0] for c in counts):
        print("perfbench: call counts differ between traced passes of one run", file=sys.stderr)
        correct = False
    # counts must also repeat across processes for the same seed and sources
    record = os.path.join(STATE, f"counts-{workload}-{seed}-{source_digest()}.json")
    if os.path.exists(record):
        with open(record) as handle:
            if json.load(handle) != counts[0]:
                print(f"perfbench: call counts differ from the earlier run recorded in {record}", file=sys.stderr)
                correct = False
    else:
        with open(record, "w") as handle:
            json.dump(counts[0], handle)
    for m in per_pass:
        if m["_integrand_spans_returned"] != m["quadrature.integrand_calls"]:
            print(f"perfbench: integrand spans {m['_integrand_spans_returned']} != "
                  f"sum of QuadratureResult.evaluations {m['quadrature.integrand_calls']}", file=sys.stderr)
            correct = False

    metrics = {}
    for name in per_pass[0]:
        if not name.startswith("_"):
            values = [m[name] for m in per_pass]
            metrics[name] = values[0] if name.endswith(COUNT_SUFFIXES) or "_per_" in name else statistics.median(values)
    metrics["hyperfun.wrong"] = traced[0].wrong + probes[0].wrong
    metrics["defects.failing"] = probes[0].failed
    metrics["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    metrics["trace.overhead_frac"] = (statistics.median(p.busy for p in traced)
                                      / statistics.median(p.busy for p in untraced) - 1.0)
    print(f"# traced passes: {TRACED_PASSES}; untraced passes: {len(untraced)}; spans of the first: {spans_path}")
    report_probe(probe_items, probes[0])
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_library()
    os.makedirs(STATE, exist_ok=True)
    env = child_env()
    items, probe_items = load_items(args.workload, args.seed)
    gauge = speed.Gauge()
    if args.workload == "cli-oneshot":
        op = make_cli_op(env)
    else:
        op = catalog_op if args.workload == "catalog" else make_eval_op()
    if args.trace:
        workloads.set_up(args.workload, args.seed)
        correct, attempted, failed, metrics = trace_run(args.workload, args.seed, args.seconds, items, probe_items, op,
                                                      env, gauge)
        units = {name: PER_LAYER_UNITS.get(name, "count") for name in metrics}
    else:
        setup_s = measure_setup(args.workload, args.seed, env, gauge)
        workloads.set_up(args.workload, args.seed)
        if args.workload == "cli-oneshot":
            op(items[0])   # one untimed process, so the first timed one is not the first from disk
        passes = run_passes(items, op, args.seconds, gauge)
        gauge.refresh()
        for p in passes:
            p.scale(gauge)
        probe = one_pass(probe_items, op, gauge)
        latencies = [v for p in passes for v in p.latencies]
        busy = sum(p.busy for p in passes)
        attempted = len(latencies)
        failed = sum(p.failed for p in passes)
        tail = TAIL_PERCENTILE[args.workload]
        tail_s = percentile(latencies, tail)
        beyond = sum(1 for v in latencies if v > tail_s)
        print(f"# {attempted} operations, {len(passes)} passes of {len(items)}; latency_ms.tail is "
              f"p{tail:g} with {beyond} samples beyond it")
        print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
        print(f"# times in reference seconds: host-to-reference factor median "
              f"{statistics.median(gauge.factors):.3f}, range {min(gauge.factors):.3f}-{max(gauge.factors):.3f}")
        report_probe(probe_items, probe)
        correct = True
        metrics = {
            "latency_ms.p50": statistics.median(latencies) * 1e3,
            "latency_ms.tail": tail_s * 1e3,
            "throughput_ops_s": attempted / busy,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
