"""Closed-loop load process: one client sends each CLI command after the last returns.

Run as ``python loadgen.py PLAN.json``.  The plan (written by ``run.py``)
names the work directory, the pass (a list of ``[kind, argv]``), the run
length and whether to trace.  Phases:

1. one warm-up pass, in ``<work>/warm``, so that lazy imports, allocator
   growth and caches settle before timing; its times are kept apart;
2. untraced passes, in ``<work>/plain``, repeated until ``seconds`` have
   elapsed and at least ``min_passes`` are done;
3. with tracing, the same number of traced passes in ``<work>/traced``.

After every pass the output tree is hashed (outside the timed region) so
that run.py can check that passes, and the traced and untraced runs, wrote
byte-identical files.  Results go to ``<work>/loadgen.json``; spans to
``<work>/spans.npz``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter


def tree_hashes(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def probe() -> float:
    """Median time of three runs of a fixed pure-Python loop: the host's current speed."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def run_pass(cli, commands, caught: dict) -> dict:
    """Run one pass, counting every warning by (command kind, category, module, line).

    The pass time is the sum of its command times; the speed probe runs
    between commands, outside them.
    """
    cmds, probes = [], []

    def count(message, category, filename, lineno, file=None, line=None):
        key = (kind, category.__name__, Path(filename).stem, lineno)
        if key not in caught:
            caught[key] = [0, str(message)]
        caught[key][0] += 1

    for kind, argv in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count
            c0 = perf_counter()
            try:
                rc = cli.run(argv)
            except Exception:  # an uncaught error ends the real CLI with exit code 1
                traceback.print_exc()
                rc = 1
            c1 = perf_counter()
        cmds.append({"kind": kind, "s": c1 - c0, "rc": rc})
        probes.append(probe())
    return {"wall_s": sum(c["s"] for c in cmds), "cmds": cmds, "probe_s": probes}


def tally(caught: dict) -> list:
    return [{"kind": k, "category": c, "module": m, "line": line, "message": msg, "count": n}
            for (k, c, m, line), (n, msg) in caught.items()]


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    work = Path(plan["work"])
    from eccentric import cli

    phase_dir = work / "warm"
    phase_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(phase_dir)
    result = {"warmup": run_pass(cli, plan["commands"], {}), "plain": [], "traced": [],
              "hashes": {"plain": [], "traced": []}}
    caught: dict = {}
    phase_dir = work / "plain"
    phase_dir.mkdir()
    os.chdir(phase_dir)
    begin = perf_counter()
    while True:
        result["plain"].append(run_pass(cli, plan["commands"], caught))
        result["hashes"]["plain"].append(tree_hashes(phase_dir))
        if (perf_counter() - begin >= plan["seconds"]
                and len(result["plain"]) >= plan["min_passes"]):
            break
    result["warnings"] = tally(caught)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        phase_dir = work / "traced"
        phase_dir.mkdir()
        os.chdir(phase_dir)
        result["layers"] = []
        for _ in range(len(result["plain"])):
            lo = tracer.marks()
            result["traced"].append(run_pass(cli, plan["commands"], {}))
            result["layers"].append(tracer.layer_metrics(lo, tracer.marks()))
            result["hashes"]["traced"].append(tree_hashes(phase_dir))
        result["span_count"] = tracer.marks()
        tracer.dump(work / "spans.npz")

    (work / "loadgen.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
