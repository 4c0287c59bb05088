"""What one operation of each workload does, shared by run.py and probe.py.

Nothing here imports lauricella at module level: the caller puts the
checkout's ``src`` on the path first.
"""

from __future__ import annotations

import json
import os

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("catalog", "eval-disk", "eval-continuation", "cli-oneshot")
POINTS = {
    "eval-disk": inputs.disk_points,
    "eval-continuation": inputs.continuation_points,
    "cli-oneshot": inputs.cli_points,
}
# `lauricella eval ...` as the installed console script runs it
CLI_ENTRY = "import sys; from lauricella.cli import main; sys.exit(main())"


def load_verdicts() -> dict[str, dict[str, str]]:
    """The catalog verdicts of commit 05f83c5: catalog name -> record id -> status."""
    with open(os.path.join(HERE, "verdicts.json")) as handle:
        return json.load(handle)


def catalog_pass() -> dict[str, dict[str, str]]:
    """One full pass over both catalogs and the representation formulas."""
    from lauricella import identities, reductions

    verified = identities.verify_all()
    reduced = reductions.check_all_reductions()
    represented = reductions.representation_formulas_check()
    return {
        "identities": {r.id: r.status for r in verified},
        "reductions": {r.id: r.status for r in reduced},
        "representations": {r.id: r.status for r in represented},
    }


def make_evaluator():
    """point -> value through the public evaluators, looked up at each call so a tracer sees them."""
    from lauricella import hyperfun
    from lauricella.core import BranchSide

    sides = {"above": BranchSide.ABOVE, "below": BranchSide.BELOW}

    def evaluate(p: inputs.Point) -> complex:
        side = sides[p.side]
        if p.function == "2f1":
            return hyperfun.hyp2f1(p.a, p.bs[0], p.c, p.xs[0], side)
        if p.function == "f1":
            return hyperfun.appell_f1(p.a, p.bs[0], p.bs[1], p.c, p.xs[0], p.xs[1], side)
        return hyperfun.lauricella_fd(hyperfun.HyperSpec(p.a, p.bs, p.c, p.xs), side)

    return evaluate


def _num(z: complex) -> str:
    return repr(z.real) if z.imag == 0 else f"{z.real!r},{z.imag!r}"


def cli_argv(p: inputs.Point) -> list[str]:
    """Arguments of `lauricella eval` for one point; `--a=...` keeps negative values intact."""
    argv = ["eval", p.function, f"--a={_num(p.a)}", f"--c={_num(p.c)}", f"--side={p.side}"]
    if p.function == "2f1":
        return argv + [f"--b={_num(p.bs[0])}", f"--x={_num(p.xs[0])}"]
    pairs = lambda zs: ";".join(f"{z.real!r},{z.imag!r}" for z in zs)  # noqa: E731
    return argv + [f"--bs={pairs(p.bs)}", f"--xs={pairs(p.xs)}"]


def parse_cli_value(stdout: str) -> complex:
    """Read the value line `re`, `re + imi` or `re - imi` printed by `lauricella eval`."""
    line = stdout.splitlines()[0].strip()
    for sign, op in ((" + ", 1.0), (" - ", -1.0)):
        if sign in line:
            re, im = line.split(sign)
            return complex(float(re), op * float(im.rstrip("i")))
    return complex(float(line), 0.0)


def set_up(workload: str, seed: int) -> None:
    """Import, build both registries and run one untimed warm-up pass over the workload's timed inputs."""
    import lauricella  # noqa: F401
    from lauricella import cli, identities, reductions  # noqa: F401

    identities.registry()
    reductions.reduction_registry()
    if workload == "catalog":
        catalog_pass()
        return
    evaluate = make_evaluator()
    for p in POINTS[workload](seed):
        if inputs.known_defect(p):
            continue
        try:
            if workload == "cli-oneshot":
                _silent_cli(cli.main, cli_argv(p))
            else:
                evaluate(p)
        except Exception:  # a regression shows in the timed loop, not here
            pass


def _silent_cli(main, argv: list[str]) -> int:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)
