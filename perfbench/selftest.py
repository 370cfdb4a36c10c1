"""Smoke-scale self-test of the benchmark (``run.py --self-test``).

Runs every workload's code path at smoke scale with tracing off and on,
checks that an injected digest mismatch counts as a failure, that the
traced run writes a Chrome trace, and that the metric names ``run.py``
prints are exactly the ones ``BENCHMARK.json`` declares.  Takes well
under a minute.
"""

from __future__ import annotations

import json

import run
import workloads

SEED = 7


def _check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main() -> int:
    failures = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    _check(end_to_end == run.END_TO_END, "end_to_end names and units match BENCHMARK.json", failures)
    _check(per_layer == run.PER_LAYER, "per_layer names and units match BENCHMARK.json", failures)
    _check(
        sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS),
        "workload names match BENCHMARK.json",
        failures,
    )

    src = run._src_digest()
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        for trace in (False, True):
            report = run.run_workload(name, SEED, 1.0, trace, "smoke", src=src)
            line = run.result_line([report], prefix=False)
            expected = per_layer if trace else end_to_end
            _check(
                line["correct"] and line["failed"] == 0,
                f"{name} trace={int(trace)}: outputs check ({report['problems']})",
                failures,
            )
            _check(
                {k: v["unit"] for k, v in line["metrics"].items()} == expected,
                f"{name} trace={int(trace)}: prints every declared metric",
                failures,
            )
            if trace:
                events = json.loads(open(report["notes"]["trace_file"]).read())["traceEvents"]
                names = {event["name"] for event in events}
                wanted = "grid.run" if name.startswith("grid") else "fl.round"
                _check(
                    wanted in names and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
                    f"{name}: traced run wrote a Chrome trace with {wanted} spans",
                    failures,
                )
            else:
                _check(
                    all(value["value"] > 0 for value in line["metrics"].values()),
                    f"{name}: every end-to-end metric is positive",
                    failures,
                )
            digests[(name, trace)] = report["digest"]

    _check(
        digests[("fmnist-dfar-refd", False)] == digests[("fmnist-dfar-refd-pooled", False)],
        "serial and pooled twins produce the same digest",
        failures,
    )
    for name in ("fmnist-dfar-refd", "grid-bench-sweep"):
        report = run.run_workload(name, SEED, 1.0, False, "smoke", inject=True, src=src)
        _check(
            report["failed"] == 1 and not run.result_line([report], False)["correct"],
            f"{name}: an injected digest mismatch counts as one failed run",
            failures,
        )
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
