"""Paper-shape benchmark of the Fabricated Flips reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload fmnist-dfar-refd --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --self-test             # smoke-scale check of this benchmark

Each measured run is a fresh interpreter (``child.py``).  ``run.py``
checks every run's outputs (sanity checks plus a digest of the science
outputs that must repeat across runs, across the serial/pooled twins and
with tracing on), prints every metric by name and unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones of a traced run (see ``README.md``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: A run must finish inside this many seconds, children included.
BUDGET_S = 170.0
#: Set-up samples per run: build_simulation calls, or runner constructions.
SIM_SETUPS = 3
GRID_SETUPS = 25

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "run_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.load_task_s": "s",
    "data.partition_s": "s",
    "fl.round_s": "s",
    "fl.local_train_s": "s",
    "fl.train_steps": "count",
    "fl.evaluate_s": "s",
    "fl.eval_images_per_s": "1/s",
    "fl.aggregate_s": "s",
    "fl.round_other_s": "s",
    "attacks.craft_s": "s",
    "attacks.synthesize_s": "s",
    "attacks.adv_train_s": "s",
    "attacks.active_rounds": "count",
    "defenses.aggregate_s": "s",
    "defenses.refd_score_s": "s",
    "defenses.refd_images_per_s": "1/s",
    "defenses.distance_s": "s",
    "nn.conv2d.infer_s": "s",
    "nn.conv2d.train_s": "s",
    "nn.conv2d.calls": "count",
    "nn.conv2d.gflop": "GFLOP",
    "nn.conv2d.im2col_mb": "MB",
    "nn.linear_s": "s",
    "nn.conv_transpose2d_s": "s",
    "nn.backward_s": "s",
    "nn.trace.replay_ratio": "ratio",
    "dispatch.fanout_s.round": "s",
    "dispatch.fanout_s.refd": "s",
    "dispatch.fanout_s.distance": "s",
    "dispatch.decisions.round.serial": "count",
    "dispatch.decisions.round.process": "count",
    "dispatch.decisions.refd.serial": "count",
    "dispatch.decisions.refd.process": "count",
    "dispatch.decisions.distance.serial": "count",
    "dispatch.decisions.distance.process": "count",
    "dispatch.decisions.grid.process": "count",
    "dispatch.decisions.train.eager": "count",
    "dispatch.decisions.train.replay": "count",
    "executor.shm_rounds": "count",
    "executor.task_kb": "KB",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "grid.cells_executed": "count",
    "grid.baselines_executed": "count",
    "grid.dataset_publications": "count",
    "grid.cache_store_s": "s",
    "grid.artifact_kb": "KB",
    "grid.cell_interval_s": "s",
    "trace.span_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads():
    import numpy

    for library in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*blas*")):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                return int(function())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": _src_digest(),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
class RunFailed(RuntimeError):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one child interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RunFailed(f"{job['workload']}: run exceeded the time budget")
    finally:
        # Pool workers live in the child's session; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RunFailed(f"{job['workload']}: run exited with code {process.returncode}")
    return json.loads(lines[-1])


def _ledger_check(key: str, chain: list) -> bool:
    """Compare a digest chain with earlier runs of the same code, seed and group."""
    path = OUT_DIR / "digests.json"
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    known = ledger.get(key, [])
    agrees = all(a == b for a, b in zip(known, chain))
    if agrees and len(chain) > len(known):
        ledger[key] = chain
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(scratch, path)
    return agrees


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 inject: bool = False, src: str = "") -> dict:
    """Measure one workload; returns a report with metrics, checks and runs.

    ``scale`` is ``"paper"`` (``benchmark_scale`` for the grid) or ``"smoke"``
    for the self-test, which also sets ``inject`` to perturb the last run's
    digest: that run must then count as failed.
    """
    spec = workloads.WORKLOADS[name]
    grid = spec["kind"] == "grid"
    if scale == "paper" and grid:
        scale = "benchmark"
    deadline = time.monotonic() + BUDGET_S
    units = workloads.units_for(name, seconds)
    base = {"workload": name, "seed": seed, "scale": scale, "out_dir": str(OUT_DIR)}
    setups = GRID_SETUPS if grid else SIM_SETUPS
    # (role, job) pairs; every job's digest chain must agree with the first's.
    if trace:
        traced_units = 1 if grid else units
        jobs = [
            ("untraced", dict(base, units=traced_units, setups=1, trace=False)),
            ("traced", dict(base, units=traced_units, setups=1, trace=True)),
        ]
    elif grid:
        jobs = [(f"sweep{i}", dict(base, units=1, setups=setups, trace=False)) for i in range(units)]
    else:
        jobs = [("measured", dict(base, units=units, setups=setups, trace=False))]
        if spec["twin"] != name:
            # The first round on the twin's dispatch must reproduce this run's.
            jobs.append(("twin", dict(base, workload=spec["twin"], units=0, setups=1, trace=False)))
    if inject:
        jobs[-1][1]["perturb"] = True

    results, problems = [], []
    for role, job in jobs:
        try:
            result = spawn(job, deadline)
        except RunFailed as error:
            problems.append(str(error))
            continue
        result["role"] = role
        result["problems"] = [f"{role}: {problem}" for problem in result["problems"]]
        if results and any(a != b for a, b in zip(results[0]["chain"], result["chain"])):
            result["problems"].append(
                f"{role}: digest {result['chain'][0]} differs from {results[0]['role']}"
            )
        results.append(result)
    if not results or results[0]["role"] != jobs[0][0]:
        raise RunFailed("; ".join(problems))
    lead = results[0]
    group = spec.get("twin", name)
    if not trace and not _ledger_check(f"{src}|{group}|{seed}|{scale}", lead["chain"]):
        lead["problems"].append(f"digest {lead['digest']} differs from an earlier run of this seed")
    problems += [problem for result in results for problem in result["problems"]]
    failed = len(jobs) - len(results) + sum(1 for result in results if result["problems"])

    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "digest": lead["digest"],
        "runs": [{k: v for k, v in r.items() if k != "layer"} for r in results],
    }
    if trace:
        traced = next((r for r in results if r["role"] == "traced"), None)
        if traced is None:
            raise RunFailed("; ".join(problems))
        layer = {key: 0.0 for key in PER_LAYER}
        layer.update({k: v for k, v in traced["layer"].items() if k in PER_LAYER})
        layer["proc.cpu_s"] = traced["cpu_s"]
        layer["proc.cpu_util"] = traced["cpu_util"]
        layer["trace.overhead_ratio"] = traced["run_s"] / lead["run_s"]
        report["metrics"] = {key: (layer[key], PER_LAYER[key]) for key in PER_LAYER}
        report["notes"] = {"trace_file": traced["trace_file"], "spans": traced["spans"]}
        return report
    if grid:
        run_s = statistics.median(r["run_s"] for r in results)
        setup_s = statistics.median(s for r in results for s in r["setup_s"])
        round_s = statistics.median(r["run_s"] * r["workers"] / r["rounds"] for r in results)
        cells = lead["cells"]
        notes = {"sweeps": len(results), "rounds_per_sweep": lead["rounds"]}
    else:
        run_s = lead["run_s"]
        setup_s = statistics.median(lead["setup_s"])
        round_s = statistics.median(lead["round_s"][1:])
        cells = 1
        notes = {"round_samples": len(lead["round_s"]) - 1, "setup_samples": len(lead["setup_s"])}
    report["metrics"] = {
        "setup_s": (setup_s, "s"),
        "round_s": (round_s, "s"),
        "run_s": (run_s, "s"),
        "cells_per_s": (cells / run_s, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    report["notes"] = notes
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(report: dict) -> None:
    ratio = report["failed"] / report["attempted"]
    print(
        f"{report['workload']}  seed={report['seed']}  scale={report['scale']}  "
        f"trace={int(report['trace'])}  runs={report['attempted']}  "
        f"failed={report['failed']}  fail_ratio={ratio:.3f}  digest={report['digest']}"
    )
    for key, (value, unit) in report["metrics"].items():
        print(f"  {key:<38} {value:>14.6g} {unit}")
    for key, value in report.get("notes", {}).items():
        print(f"  ({key}: {value})")
    for problem in report["problems"]:
        print(f"  FAIL {problem}")


def result_line(reports: list, prefix: bool) -> dict:
    metrics = {}
    for report in reports:
        for key, (value, unit) in report["metrics"].items():
            name = f"{report['workload']}.{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit}
    failed = sum(report["failed"] for report in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(report["attempted"] for report in reports),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured seconds per run, nominally")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_test:
        import selftest

        return selftest.main()

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    try:
        for name in names:
            report = run_workload(
                name, args.seed, args.seconds, bool(args.trace), "paper", src=env["src_sha256"],
            )
            print_report(report)
            reports.append(report)
    except RunFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as handle:
        for report in reports:
            handle.write(json.dumps({"env": env, **report}, sort_keys=True) + "\n")
    line = result_line(reports, prefix=len(reports) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
