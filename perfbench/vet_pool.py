"""Check the pools of inputs.POOLS and order each from its cheapest point to its costliest.

    PYTHONPATH=src python3 perfbench/vet_pool.py [region ...]

Every point must evaluate to within tolerance of its mpmath reference: the
timed loop of run.py counts any point that does not as a failure.  Prints
each failure and a count per region, and exits 1 if any point failed.
Otherwise it writes the regions' entries of inputs.ORDER_FILE: the pool's
indices sorted by the Python bytecode instructions its evaluation executes,
a cost that, unlike a time, repeats exactly.  Run from the root of a
checkout; all regions when none is named.
"""

from __future__ import annotations

import json
import os
import sys

import inputs
import oracle
import workloads


def bytecodes(fn, *args) -> int:
    """Bytecode instructions executed by fn(*args), in every Python frame it enters."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def main(regions: list[str]) -> int:
    evaluate = workloads.make_evaluator()
    failed = 0
    orders = {}
    for region in regions or inputs.POOLS:
        points = inputs.generated_pool(region)
        costs, bad = [], 0
        for i, p in enumerate(points):
            ref = oracle.reference(p)
            try:
                value = evaluate(p)
                costs.append(bytecodes(evaluate, p))
            except Exception as exc:  # noqa: BLE001 - every failure is listed
                bad += 1
                print(f"{region} {i}: {type(exc).__name__}: {exc}", flush=True)
                continue
            if not oracle.within_tolerance(complex(value), ref):
                bad += 1
                print(f"{region} {i}: {value} against the reference {ref}", flush=True)
        print(f"{region}: {bad} of {len(points)} points fail", flush=True)
        failed += bad
        orders[region] = sorted(range(len(costs)), key=costs.__getitem__)
    if failed:
        return 1
    if os.path.exists(inputs.ORDER_FILE):
        with open(inputs.ORDER_FILE) as handle:
            orders = {**json.load(handle), **orders}
    with open(inputs.ORDER_FILE, "w") as handle:
        handle.write("{\n" + ",\n".join(f"  {json.dumps(r)}: {json.dumps(orders[r])}" for r in inputs.POOLS) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
