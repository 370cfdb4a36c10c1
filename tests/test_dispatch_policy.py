"""Tests for the unified dispatch policy: cost model, parsing, kwargs, parity."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.defenses import Bulyan, FoolsGold, Krum
from repro.experiments import ExperimentRunner, GridRunner, run_experiment, run_grid, smoke_scale
from repro.experiments.runner import build_simulation
from repro.fl import FederatedSimulation
from repro.fl.dispatch_policy import SITES, BenchRecord, CostModel, DispatchPolicy
from repro.fl.executor import SerialExecutor, ThreadedExecutor
from repro.fl.types import DefenseContext, ModelUpdate

LEDGER_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


def _synthetic_model() -> CostModel:
    """A hand-calibrated model with a known serial/process crossover.

    At the recorded scale (items=8, work=8e4): serial 10ms, process 20ms —
    pooling loses.  Scaling work x1000 with the same item count leaves the
    per-item overhead constant while the compute halves across 2 workers,
    so process wins decisively.
    """
    return CostModel(
        [
            BenchRecord(
                site="refd",
                backend="process",
                items=8,
                work=8e4,
                serial_s=0.01,
                parallel_s=0.02,
                workers=2,
            )
        ]
    )


class TestCostModel:
    def test_golden_decision_table(self):
        model = _synthetic_model()
        table = [
            # (items, work, workers) -> expected backend
            ((8, 8e4, 2), "serial"),  # bench scale: pooling measured slower
            ((8, 8e7, 2), "process"),  # 1000x work: compute dominates overhead
            ((8, 8e7, 1), "serial"),  # one worker can never win
            ((1, 8e7, 2), "serial"),  # single item: nothing to fan out
            ((8, None, 2), "serial"),  # unknown work: stay serial
        ]
        for (items, work, workers), expected in table:
            backend, reason, _, _ = model.choose(
                "refd", items=items, work=work, workers=workers
            )
            assert backend == expected, (items, work, workers, reason)

    def test_serial_bias_margin(self):
        # Pooled estimate must beat margin * serial, not merely tie it.
        model = _synthetic_model()
        est_serial = model.estimate_serial("refd", 8e4)
        est_par = model.estimate_parallel("refd", "process", 8e4, items=8, workers=2)
        assert est_serial == pytest.approx(0.01)
        assert est_par == pytest.approx(0.02)
        # Find roughly where the raw estimates tie and check the margin keeps
        # the decision serial there.
        work = 8e4
        while True:
            est_serial = model.estimate_serial("refd", work)
            est_par = model.estimate_parallel("refd", "process", work, 8, 2)
            if est_par < est_serial:
                break
            work *= 1.5
        if est_par >= model.margin * est_serial:
            backend, _, _, _ = model.choose("refd", items=8, work=work, workers=2)
            assert backend == "serial"

    def test_grid_site_rule(self):
        model = CostModel()
        assert model.choose("grid", items=6, work=6.0, workers=4)[0] == "process"
        assert model.choose("grid", items=1, work=1.0, workers=4)[0] == "serial"
        assert model.choose("grid", items=6, work=6.0, workers=1)[0] == "serial"

    def test_from_ledger_dispatch_sites_shape(self):
        payload = {
            "results": {
                "dispatch_sites": [
                    {
                        "site": "refd",
                        "backend": "process",
                        "items": 8,
                        "work": 8e4,
                        "serial_s": 0.01,
                        "parallel_s": 0.02,
                        "workers": 2,
                    }
                ]
            }
        }
        model = CostModel.from_ledger(payload)
        assert model.choose("refd", items=8, work=8e4, workers=2)[0] == "serial"
        assert model.choose("refd", items=8, work=8e7, workers=2)[0] == "process"

    def test_from_ledger_legacy_shape(self, tmp_path):
        payload = {
            "results": {
                "refd_fanout": {"serial_s": 0.012, "process_s": 0.0195, "workers": 2},
                "round_dispatch": {"inline_s": 0.11, "shm_s": 0.13},
                "e2e_round": {"current_s": 0.104},
            }
        }
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps(payload))
        model = CostModel.from_ledger(path)
        # The measured refd fan-out lost at bench scale -> serial there.
        assert model.choose("refd", items=8, work=8 * 3818.0, workers=2)[0] == "serial"
        # shm cost 20ms slower than inline -> crossover well above tiny payloads.
        assert model.shm_min_bytes > 1 << 20

    def test_adaptive_pairwise_stays_serial_at_bench_scale(self):
        # The distance plane is plain serial compute: the Krum family and
        # FoolsGold never consult the policy, so it records nothing and
        # builds no executor, whatever the ledger says.
        assert SITES == ("round", "refd", "grid", "train")
        policy = DispatchPolicy.adaptive(
            workers=2, cost_model=CostModel.from_ledger(LEDGER_PATH)
        )
        rng = np.random.default_rng(0)
        updates = [
            ModelUpdate(client_id=i, parameters=rng.normal(size=4096).astype(np.float32), num_samples=10)
            for i in range(10)
        ]
        context = DefenseContext(
            round_number=0,
            global_params=np.zeros(4096, dtype=np.float32),
            expected_num_malicious=2,
            rng=np.random.default_rng(0),
            dispatch=policy,
        )
        for defense in (Krum(), Bulyan(), FoolsGold()):
            defense.aggregate(list(updates), context)
        assert policy.trace == []
        assert policy.counter_snapshot()["decisions"] == 0

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            CostModel([BenchRecord("bogus", "process", 8, 8e4, 0.01, 0.02)])


class TestParseAndCoerce:
    def test_parse_specs(self):
        assert DispatchPolicy.parse("serial").backend == "serial"
        policy = DispatchPolicy.parse("process:4")
        assert policy.backend == "process" and policy.workers == 4
        policy = DispatchPolicy.parse("adaptive:2,refd=serial")
        assert policy.is_adaptive and policy.workers == 2
        assert policy.overrides == {"refd": "serial"}
        assert DispatchPolicy.parse(None).backend == "serial"
        assert DispatchPolicy.parse("").backend == "serial"
        existing = DispatchPolicy.serial()
        assert DispatchPolicy.parse(existing) is existing

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            DispatchPolicy.parse("bogus")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,refd")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,bogus=serial")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,refd=bogus")
        with pytest.raises(ValueError):
            DispatchPolicy.parse("adaptive,distance=serial")  # site removed

    def test_coerce(self):
        assert DispatchPolicy.coerce(None).backend == "serial"
        existing = DispatchPolicy.fixed("thread", workers=2)
        assert DispatchPolicy.coerce(existing) is existing
        assert DispatchPolicy.coerce("thread:2").backend == "thread"
        with pytest.raises(ValueError):
            DispatchPolicy.coerce(SerialExecutor())  # executors are not policies


class TestPinningAndOverrides:
    def test_overrides_pin_sites(self):
        policy = DispatchPolicy.adaptive(workers=2, overrides={"refd": "serial"})
        decision = policy.decide("refd", items=8, work=1e12)
        assert decision.backend == "serial"
        assert "override" in decision.reason
        with pytest.raises(ValueError):
            DispatchPolicy.adaptive(overrides={"refd": "bogus"})
        with pytest.raises(ValueError):
            DispatchPolicy.adaptive(overrides={"bogus": "serial"})

    def test_trace_deduplicates_with_counts(self):
        policy = DispatchPolicy.serial()
        policy.decide("round", items=4, work=10.0)
        policy.decide("round", items=4, work=10.0)
        policy.decide("refd", items=4, work=10.0)
        assert len(policy.trace) == 2
        round_entry = next(d for d in policy.trace if d.site == "round")
        assert round_entry.count == 2
        snapshot = policy.counter_snapshot()
        assert snapshot["decisions"] == 3
        assert snapshot["serial"] == 3
        # No executor was built, so the snapshot holds only decision counters.
        assert set(snapshot) == {"decisions", "serial", "thread", "process", "eager", "replay"}
        dicts = policy.trace_dicts()
        assert all({"site", "backend", "reason", "count"} <= set(d) for d in dicts)


class TestDeprecationShims:
    """The deprecated ``executor=``/``workers=`` shims are gone: ``policy=``
    is the only spelling, and it warns about nothing."""

    def test_legacy_kwargs_are_rejected(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        calls = [
            lambda: build_simulation(config, executor="thread"),
            lambda: build_simulation(config, workers=2),
            lambda: run_experiment(config, executor="thread"),
            lambda: ExperimentRunner(workers=2),
            lambda: ExperimentRunner().run_many([config], workers=2),
            lambda: GridRunner(workers=2),
            lambda: run_grid([], workers=2),
            lambda: FederatedSimulation(None, None, executor="thread"),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                call()

    def test_policy_kwarg_warns_nothing(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulation = build_simulation(config, policy="serial")
        try:
            assert isinstance(simulation.executor, SerialExecutor)
        finally:
            simulation.close()

    def test_config_dispatch_field_sets_policy_but_not_identity(self):
        config = smoke_scale("fashion-mnist", defense="fedavg")
        tuned = config.with_overrides(dispatch="thread:2")
        assert tuned.to_dict() == config.to_dict()
        simulation = build_simulation(tuned)
        try:
            assert isinstance(simulation.executor, ThreadedExecutor)
        finally:
            simulation.close()


class TestMidRunBackendSwitchParity:
    def test_bitwise_parity_across_backend_switches(self):
        config = smoke_scale(
            "fashion-mnist", attack="lie", defense="mkrum", num_rounds=3
        )

        with build_simulation(config, policy="serial") as simulation:
            for _ in range(3):
                simulation.run_round()
            reference = simulation.server.global_params.copy()

        policy = DispatchPolicy.fixed("serial")
        with build_simulation(config, policy=policy) as simulation:
            simulation.run_round()  # round 1: serial
            policy.overrides.update({"round": "thread", "refd": "thread"})
            policy.workers = 2
            simulation.run_round()  # round 2: threads
            policy.overrides.update({"round": "process", "refd": "process"})
            simulation.run_round()  # round 3: processes
            switched = simulation.server.global_params.copy()
            backends = {d.backend for d in policy.trace}

        assert np.array_equal(reference, switched)
        assert {"serial", "thread", "process"} <= backends


class TestGridPolicy:
    def test_grid_stats_carry_dispatch_trace(self, tmp_path):
        grid = [
            (
                "cell/0",
                smoke_scale("fashion-mnist", attack=None, defense="fedavg"),
            )
        ]
        runner = GridRunner(policy="serial", cache_dir=tmp_path)
        runner.run(grid)
        decisions = runner.last_stats.dispatch_decisions
        assert decisions and any(d["site"] == "grid" for d in decisions)

    def test_run_many_policy_serial_matches_run(self):
        configs = [smoke_scale("fashion-mnist", attack=None, defense="fedavg")]
        runner = ExperimentRunner()
        results = runner.run_many(configs, policy="serial")
        assert len(results) == 1
        assert results[0].max_accuracy == runner.run(configs[0]).max_accuracy
