"""Fresh-process probes started by run.py.

    probe.py setup <workload> <seed>   set up as run.py does, then print "ready"
    probe.py cli <eval arguments...>    run `lauricella eval` traced and print one
                                        JSON object: exit code, output, import time
                                        and spans

Both expect the checkout's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def _setup(workload: str, seed: str) -> int:
    import workloads

    workloads.set_up(workload, int(seed))
    print("ready", flush=True)
    return 0


def _cli(argv: list[str]) -> int:
    import contextlib
    import io

    import tracing

    start = time.perf_counter()
    from lauricella import cli
    import_ms = (time.perf_counter() - start) * 1e3
    tracer = tracing.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with tracer.install(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tracer.run_op(0, cli.main, argv)
    print(json.dumps({"exit": code, "stdout": out.getvalue(), "import_ms": import_ms, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(_setup(*rest) if mode == "setup" else _cli(rest))
