"""One measured run of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per measured run, so process-global
state (trace tapes, worker attach caches, the dataset broker's memo, the
dispatch cost model) never leaks between runs or into ``ru_maxrss``.  It
takes one JSON job on the command line and prints one JSON result as the
last line of its standard output.  Job keys: ``workload``, ``seed``,
``units`` (rounds after the warm-up round, or sweeps), ``setups``,
``scale``, ``trace``, ``out_dir`` and, for the self-test, ``perturb``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np
import workloads
from tracer import Tracer, install, layer_metrics


def _hex(value) -> str:
    return "none" if value is None else float(value).hex()


def _record_bytes(record) -> bytes:
    return json.dumps(
        [
            record.round_number,
            record.selected_client_ids,
            record.accepted_client_ids,
            _hex(record.accuracy),
            _hex(record.test_loss),
        ]
    ).encode()


def _record_checks(where: str, record, refd: bool) -> list:
    problems = []
    if not (math.isfinite(record.accuracy) and 0.0 <= record.accuracy <= 1.0):
        problems.append(f"{where}: accuracy {record.accuracy!r} outside [0, 1]")
    if refd and len(record.selected_client_ids) > workloads.REFD_REJECTED:
        rejected = len(record.selected_client_ids) - len(record.accepted_client_ids or [])
        if rejected != workloads.REFD_REJECTED:
            problems.append(
                f"{where}: REFD rejected {rejected} updates, expected {workloads.REFD_REJECTED}"
            )
    return problems


def _decisions(policy) -> dict:
    counts = {}
    for decision in policy.trace:
        key = f"dispatch.decisions.{decision.site}.{decision.backend}"
        counts[key] = counts.get(key, 0) + decision.count
    return counts


def run_sim(job: dict, tracer) -> dict:
    from repro.experiments import build_simulation

    config = workloads.sim_config(
        job["workload"], job["seed"], job["units"] + 1, job["scale"]
    )
    setup_s = []
    for index in range(job["setups"]):
        started = time.perf_counter()
        simulation = build_simulation(config)
        setup_s.append(time.perf_counter() - started)
        if index + 1 < job["setups"]:
            # A discarded set-up must not linger into the measured run's memory.
            simulation.close()
            del simulation
            gc.collect()
    refd = config.defense == "refd"
    digest = hashlib.sha256(b"perturbed" if job.get("perturb") else b"")
    round_s, chain, problems = [], [], []
    with simulation:
        for number in range(config.num_rounds):
            if tracer is not None:
                tracer.tag = f"round/{number}"
            started = time.perf_counter()
            record = simulation.run_round()
            round_s.append(time.perf_counter() - started)
            params = simulation.server.global_params
            digest.update(_record_bytes(record))
            digest.update(params.tobytes())
            chain.append(digest.hexdigest()[:16])
            problems += _record_checks(f"round {number}", record, refd)
            if not np.isfinite(params).all():
                problems.append(f"round {number}: non-finite global parameters")
        layer = _decisions(simulation.dispatch)
        layer["executor.shm_rounds"] = sum(
            value
            for key, value in simulation.dispatch.counter_snapshot().items()
            if key.endswith("shm_rounds")
        )
    return {
        "setup_s": setup_s,
        "round_s": round_s,
        "run_s": sum(round_s),
        "rounds": len(round_s),
        "chain": chain,
        "digest": chain[-1],
        "problems": problems,
        "layer": layer,
    }


def run_grid(job: dict, tracer) -> dict:
    from repro.experiments import GridRunner

    spec = workloads.WORKLOADS[job["workload"]]
    cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=job["out_dir"])
    stamps = []

    def progress(message: str) -> None:
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.tag = f"cell/{len(stamps)}"

    setup_s = []
    for _ in range(job["setups"]):
        started = time.perf_counter()
        scenarios = workloads.grid_scenarios(job["workload"], job["seed"], job["scale"])
        runner = GridRunner(policy=spec["dispatch"], cache_dir=cache_dir, progress=progress)
        setup_s.append(time.perf_counter() - started)
    try:
        started = time.perf_counter()
        results = runner.run(scenarios)
        run_s = time.perf_counter() - started
        artifact_bytes = sum(
            os.path.getsize(os.path.join(cache_dir, name)) for name in os.listdir(cache_dir)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    stats = runner.last_stats
    digest = hashlib.sha256(b"perturbed" if job.get("perturb") else b"")
    problems = []
    rounds = 0
    for label, result in results:
        digest.update(label.encode())
        digest.update(_hex(result.baseline_accuracy).encode() + _hex(result.asr).encode())
        refd = result.config.defense == "refd"
        for record in result.records:
            digest.update(_record_bytes(record))
            problems += _record_checks(f"{label} round {record.round_number}", record, refd)
        rounds += len(result.records)
    if stats.executed != len(scenarios) or stats.failed or stats.cache_hits:
        problems.append(
            f"sweep executed {stats.executed}/{len(scenarios)} cells "
            f"({stats.failed} failed, {stats.cache_hits} cached)"
        )
    if len(results) != len(scenarios):
        problems.append(f"sweep returned {len(results)} of {len(scenarios)} cells")
    # Clean baselines run as many rounds as their cells.
    rounds += stats.baselines_executed * scenarios[0][1].num_rounds
    gaps = [b - a for a, b in zip([started] + stamps, stamps)]
    layer = _decisions(runner.dispatch)
    layer.update(
        {
            "grid.cells_executed": stats.executed,
            "grid.baselines_executed": stats.baselines_executed,
            "grid.dataset_publications": stats.dataset_publications,
            "grid.artifact_kb": artifact_bytes / 1024.0,
            "grid.cell_interval_s": statistics.median(gaps) if gaps else 0.0,
        }
    )
    return {
        "setup_s": setup_s,
        "round_s": [],
        "run_s": run_s,
        "rounds": rounds,
        "cells": stats.executed + stats.baselines_executed,
        "workers": runner.workers,
        "chain": [digest.hexdigest()[:16]],
        "digest": digest.hexdigest()[:16],
        "problems": problems,
        "layer": layer,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job["trace"]:
        tracer = install(Tracer())
    from repro.nn.trace import trace_counters

    replay_before = trace_counters()
    cpu_before, wall_before = os.times(), time.perf_counter()
    run = run_grid if workloads.WORKLOADS[job["workload"]]["kind"] == "grid" else run_sim
    result = run(job, tracer)
    cpu_after, wall = os.times(), time.perf_counter() - wall_before
    cpu_s = sum(cpu_after[:4]) - sum(cpu_before[:4])
    cores = len(os.sched_getaffinity(0))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    result["rss_self_mb"], result["rss_children_mb"] = self_kb / 1024.0, children_kb / 1024.0
    result["cpu_s"] = cpu_s
    result["cpu_util"] = cpu_s / (wall * cores) if wall > 0 else 0.0
    if tracer is not None:
        tracer.uninstall()
        result["layer"].update(
            layer_metrics(tracer, job["setups"], replay_before, trace_counters())
        )
        path = os.path.join(
            job["out_dir"], f"trace-{job['workload']}-seed{job['seed']}.json"
        )
        tracer.write_chrome(path)
        result["trace_file"] = path
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
