"""Benchmark of the eccentric CLI: four workloads, one closed-loop client each.

Usage, from the repository root:

    python3 perfbench/run.py --workload theory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the four workloads in turn

For one workload the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full report (raw samples, checks, warnings,
provenance) goes to ``.perfbench-work/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
SETUP_CODE = "import sys; from eccentric import cli; sys.exit(cli.run(sys.argv[1:]))"
# The first trivial command of setup_s: argument parsing, one tiny output, manifest.
SETUP_ARGV = ["force-profile", "--dim", "2", "--mu", "1.0", "--big-n", "1.0",
              "--r-max", "1.0", "--steps", "2"]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    # the benchmark must not depend on the program's worker-count knob
    env.pop("ECCENTRIC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # One client on one core: two BLAS threads made b=100 matmuls slower and
    # run-to-run times on a 2-core VM twice as noisy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def provenance(root: Path, env: dict) -> dict:
    import scipy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    l2 = _getconf("LEVEL2_CACHE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": l2,
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")},
        "git_commit": commit,
        "bxb_float64_bytes": {str(b): {"bytes": 8 * b * b,
                                       "x_l2": (8 * b * b / l2) if l2 else None}
                              for b in (100, 512, 2048)},
    }


def measure_setup(work: Path, env: dict) -> tuple[list[float], int]:
    """Fresh interpreter -> import eccentric.cli -> first trivial command done."""
    samples, failures = [], 0
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV,
                "--out-dir", str(work / "setup" / str(i))]
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in 50 ms sleeps
        rc = subprocess.run(argv, env=env, cwd=work, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode
        samples.append(time.perf_counter() - t0)
        failures += rc != 0
    return samples, failures


def _median(values):
    return float(statistics.median(values)) if values else None


def _kind_s(passes, kind):
    return [c["s"] for p in passes for c in p["cmds"] if c["kind"] == kind]


def user_metrics(plan, lg, e2e: dict, attempted: int, failed: int) -> dict:
    """The eleven end-to-end metrics of the workload's users, where they apply, in seconds."""
    passes = lg["plain"]
    out = {
        "setup_s": (e2e["setup_s"], "s"),
        "wall_s": (_median([p["wall_s"] for p in passes]), "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MiB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "warnings": (sum(w["count"] for w in lg["warnings"]), "count"),
    }
    if plan.name == "theory":
        solve = np.array(_kind_s(passes, "solve")) * 1e3
        out["solve_p50_ms"] = (float(np.percentile(solve, 50)), "ms")
        out["solve_p90_ms"] = (float(np.percentile(solve, 90)), "ms")
        out["sweep_s"] = (_median(_kind_s(passes, "sweep")), "s")
    elif plan.name == "flow":
        for count, steps in wl.FLOW_SIZES.items():
            out[f"flow_steps_per_s.b{count}"] = (
                steps / _median(_kind_s(passes, f"simulate.b{count}")), "1/s")
    elif plan.name == "train":
        steps = sum(len(passes) * n for n in plan.data["opt_steps"].values())
        seconds = sum(sum(_kind_s(passes, kind)) for kind in plan.data["opt_steps"])
        out["train_steps_per_s"] = (steps / seconds, "1/s")
    out["primary_ms"] = (1e3 * _median(_kind_s(passes, plan.primary)), "ms")
    out["secondary_ms"] = (1e3 * _median(_kind_s(passes, plan.secondary)), "ms")
    out["probe_ms"] = (1e3 * _median([t for p in passes for t in p["probe_s"]]), "ms")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    base = root / ".perfbench-work"
    tag = f"{name}-s{seed}-t{int(trace)}"
    work = base / tag
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    (base / "results").mkdir(exist_ok=True)
    env = child_env(root / "src")

    plan = wl.build(name, seed, work / "inputs")
    setup, setup_failures = measure_setup(work, env)

    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps({
        # a traced run splits its time between the untraced and the traced passes
        "work": str(work), "seconds": seconds / 2 if trace else seconds,
        "min_passes": MIN_PASSES, "trace": trace,
        "commands": plan.commands}))
    log = work / "loadgen.log"
    with open(log, "w") as fh:
        proc = subprocess.run([sys.executable, str(HERE / "loadgen.py"), str(plan_path)],
                              env=env, cwd=work, stdout=fh, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise RuntimeError(f"load process exited with code {proc.returncode}")
    lg = json.loads((work / "loadgen.json").read_text())

    all_cmds = [c for p in lg["plain"] + lg["traced"] for c in p["cmds"]]
    attempted = len(all_cmds) + SETUP_REPEATS
    nonzero = sum(c["rc"] != 0 for c in all_cmds) + setup_failures
    try:
        checks = oracles.CHECKS[name](plan, work / "plain")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks = [(f"{name}.outputs_readable", False, repr(exc))]
    first = lg["hashes"]["plain"][0]
    same = sum(h == first for h in lg["hashes"]["plain"])
    checks.append(("determinism.passes", same == len(lg["hashes"]["plain"]),
                   f"{same}/{len(lg['hashes']['plain'])} untraced passes byte-identical"
                   f" over {len(first)} files"))
    if trace:
        same = sum(h == first for h in lg["hashes"]["traced"])
        checks.append(("determinism.trace_on_off", same == len(lg["hashes"]["traced"]),
                       f"{same}/{len(lg['hashes']['traced'])} traced passes byte-identical"
                       " to untraced"))
    failed = nonzero + sum(not ok for _, ok, _ in checks)

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "load_shape": "closed loop, 1 client, next command sent when the previous returns",
        "passes": len(lg["plain"]), "attempted": attempted, "failed": failed,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "warnings": lg["warnings"],
        "samples": {"setup_s": setup, "warmup_pass_wall_s": lg["warmup"]["wall_s"],
                    "pass_wall_s": [p["wall_s"] for p in lg["plain"]],
                    "probe_s": [t for p in lg["plain"] for t in p["probe_s"]],
                    "commands": [[c["kind"], c["s"], c["rc"]] for p in lg["plain"]
                                 for c in p["cmds"]]},
        "provenance": provenance(root, env),
    }
    if trace:
        layers = {key: _median([m[key] for m in lg["layers"]]) for key in lg["layers"][0]}
        layers["trace.overhead_s"] = (_median([p["wall_s"] for p in lg["traced"]])
                                      - _median([p["wall_s"] for p in lg["plain"]]))
        report["per_layer"] = layers
        report["samples"]["layers"] = lg["layers"]
        report["samples"]["traced_pass_wall_s"] = [p["wall_s"] for p in lg["traced"]]
        report["span_count"] = lg["span_count"]
        shutil.copy(work / "spans.npz", base / "results" / f"{tag}.spans.npz")
    else:
        # Times in multiples of the speed probe measured between the same
        # commands: the host's speed drifts by up to 2x over minutes, and the
        # ratio cancels most of it.  Seconds are kept in user_metrics.
        probe = _median([t for p in lg["plain"] for t in p["probe_s"]])
        e2e = {
            "setup_s": _median(setup),
            "peak_rss_mb": lg["maxrss_mb"],
            "wall_rel": _median([p["wall_s"] for p in lg["plain"]]) / probe,
            "primary_rel": _median(_kind_s(lg["plain"], plan.primary)) / probe,
            "secondary_rel": _median(_kind_s(lg["plain"], plan.secondary)) / probe,
        }
        report["end_to_end"] = e2e
        report["user_metrics"] = {k: {"value": v, "unit": u} for k, (v, u)
                                  in user_metrics(plan, lg, e2e, attempted, failed).items()}
    (base / "results" / f"{tag}.json").write_text(json.dumps(report, indent=1))
    shutil.rmtree(work)
    return report


def contract_line(report: dict, spec: dict) -> str:
    section = "per_layer" if report["trace"] else "end_to_end"
    values = report[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def summarize(report: dict):
    print(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])}: "
          f"{report['passes']} passes, {report['attempted']} commands attempted, "
          f"{report['failed']} failed")
    for c in report["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    for w in report["warnings"]:
        print(f"  warning x{w['count']} in {w['kind']}: {w['category']} from "
              f"{w['module']}:{w['line']}: {w['message']}", file=sys.stderr)
    for key, item in report.get("user_metrics", {}).items():
        print(f"  {key:26s} {item['value']:.6g} {item['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "eccentric" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from the repository root (src/eccentric and BENCHMARK.json "
              "are required)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(root / "src"))  # the oracles read checkpoints and datasets
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    for name in wl.NAMES if args.workload == "all" else (args.workload,):
        report = run_workload(name, args.seed, seconds, bool(args.trace), root)
        summarize(report)
    if args.workload != "all":
        print(contract_line(report, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
