"""Tests for the sharded inference lanes: evaluation and REFD scoring.

``evaluate_model`` and ``predict_candidates`` shard their batches over
threads, one per core.  Whatever the width, every value must be
bit-identical to the width-1 run (and to the plain eager loop), the lane
counters must not change, and numpy's BLAS thread count must come back as
it was.  CI runners may have a single CPU, so widths 2 and 3 are forced by
patching the width helper.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, DataLoader
from repro.fl import training
from repro.fl.training import _lane_width, _run_sharded, evaluate_model, predict_candidates
from repro.models.classifiers import MLP
from repro.nn import blas
from repro.nn import functional as F
from repro.nn import trace
from repro.nn.tensor import Tensor, no_grad

from test_nn_lane import ARCHITECTURES, BATCH, _build_model, _candidates, _images

WIDTHS = (2, 3)
# 40 images -> two full batches and a tail; 48 -> three full batches;
# 10 -> one short batch (fewer batches than any width).
COUNTS = (40, 48, 10)
LANE_KEYS = ("plans_recorded", "replays", "fallbacks", "hoisted_batches")


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    trace.reset_trace_cache()
    yield
    trace.reset_trace_cache()


def _force_width(monkeypatch, width: int) -> None:
    monkeypatch.setattr(training, "_lane_width", lambda num_batches: width)


def _dataset(name: str, count: int, seed: int) -> ArrayDataset:
    labels = np.random.default_rng(seed).integers(0, 10, size=count)
    return ArrayDataset(_images(name, count, seed), labels)


def _eager_evaluate(model, dataset, batch_size=BATCH):
    """The eager evaluation loop the lane replaced, batch by batch."""
    model.eval()
    correct = total = 0
    loss_sum = 0.0
    with no_grad():
        for images, labels in DataLoader(dataset, batch_size=batch_size):
            logits = model(Tensor(images))
            loss_sum += float(F.cross_entropy(logits, labels).item()) * len(labels)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            total += len(labels)
    if total == 0:
        return 0.0, 0.0
    return correct / total, loss_sum / total


def _lane_snapshot():
    counters = trace.lane_counters()
    return {key: counters[key] for key in LANE_KEYS}


class TestShardedMatchesSerial:
    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_evaluate_model(self, monkeypatch, name, count):
        dataset = _dataset(name, count, 1)
        expected = _eager_evaluate(_build_model(name, 1), dataset)
        for width in (1,) + WIDTHS:
            _force_width(monkeypatch, width)
            assert evaluate_model(_build_model(name, 1), dataset, batch_size=BATCH) == expected

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_predict_candidates_and_counters(self, monkeypatch, name, count):
        vectors = _candidates(_build_model(name, 2), 2)
        images = _images(name, count, 2)
        outputs, counters = {}, {}
        for width in (1,) + WIDTHS:
            trace.reset_trace_cache()
            _force_width(monkeypatch, width)
            outputs[width] = [
                predict_candidates(_build_model(name, 2), images, vectors, batch_size=BATCH)
                for _ in range(2)  # the first call records, the second replays
            ]
            counters[width] = _lane_snapshot()
        for width in WIDTHS:
            for (pred, probs, classes), (ref_pred, ref_probs, ref_classes) in zip(
                outputs[width], outputs[1]
            ):
                assert classes == ref_classes == 10
                assert probs.dtype == ref_probs.dtype
                assert np.array_equal(pred, ref_pred)
                assert np.array_equal(probs, ref_probs)
            # Batch 0 records on the caller before the fan-out, so no
            # shard records a signature twice.
            assert counters[width] == counters[1], width

    @pytest.mark.parametrize("width", WIDTHS)
    def test_empty_inputs(self, monkeypatch, width):
        _force_width(monkeypatch, width)
        model = _build_model("small-cnn", 0)
        assert evaluate_model(model, _dataset("small-cnn", 0, 0)) == (0.0, 0.0)
        predicted, max_probs, num_classes = predict_candidates(
            model, _images("small-cnn", 0, 0), _candidates(model, 0)
        )
        assert predicted.shape == max_probs.shape == (3, 0)
        assert num_classes == 0

    def test_width_counters(self, monkeypatch):
        images = _images("mlp", 40, 0)  # three batches: two shards at most
        model = _build_model("mlp", 0)
        _force_width(monkeypatch, 3)
        predict_candidates(model, images, _candidates(model, 0), batch_size=BATCH)
        counters = trace.lane_counters()
        assert counters["width"] == 2 and counters["sharded_calls"] == 1
        _force_width(monkeypatch, 1)
        evaluate_model(model, _dataset("mlp", 40, 0), batch_size=BATCH)
        counters = trace.lane_counters()
        assert counters["width"] == 1 and counters["sharded_calls"] == 1
        # The training counters never see the lanes.
        assert trace.trace_counters() == {"records": 0, "replays": 0, "fallbacks": 0}


class TestStress:
    def test_more_shards_than_cores_with_fast_thread_switching(self, monkeypatch):
        images = _images("fashion-cnn", 200, 6)
        dataset = _dataset("fashion-cnn", 200, 6)
        vectors = _candidates(_build_model("fashion-cnn", 6), 6)
        _force_width(monkeypatch, 1)
        expected = (
            evaluate_model(_build_model("fashion-cnn", 6), dataset, batch_size=BATCH),
            predict_candidates(_build_model("fashion-cnn", 6), images, vectors, batch_size=BATCH),
        )
        _force_width(monkeypatch, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                accuracy_loss = evaluate_model(
                    _build_model("fashion-cnn", 6), dataset, batch_size=BATCH
                )
                scored = predict_candidates(
                    _build_model("fashion-cnn", 6), images, vectors, batch_size=BATCH
                )
                assert accuracy_loss == expected[0]
                for ours, ref in zip(scored, expected[1]):
                    assert np.array_equal(ours, ref)
        finally:
            sys.setswitchinterval(interval)
        assert trace.lane_counters()["width"] == 6


class _Log(list):
    """A forward log that scratch copies of a model share with the original."""

    def __deepcopy__(self, memo):
        return self


class _NoSignatureMLP(MLP):
    """An MLP the tape never records: every lane forward runs eagerly.

    With a ``seen`` log, each forward appends its thread, its model and
    numpy's BLAS thread count at that moment.
    """

    def __init__(self, seen=None, **kwargs) -> None:
        super().__init__(in_channels=1, image_size=12, num_classes=10, hidden=16, **kwargs)
        self.trace_signature = None
        self.seen = seen

    def forward(self, x):
        if self.seen is not None:
            self.seen.append((threading.current_thread().name, id(self), blas.blas_threads()))
        return super().forward(x)


class TestShards:
    def test_batches_are_dealt_round_robin_after_batch_zero(self, monkeypatch):
        _force_width(monkeypatch, 3)
        caller = threading.current_thread().name
        ran, built = {}, []

        def shard_state(k):
            built.append((k, threading.current_thread().name))
            return f"state-{k}"

        def run_batch(k, state):
            ran[k] = (threading.current_thread().name, state)

        _run_sharded(8, run_batch, shard_state)
        assert built == [(0, caller), (2, caller), (3, caller)]
        assert ran[0] == (caller, "state-0")
        assert [k for k in sorted(ran) if ran[k][1] == "state-0"] == [0, 1, 4, 7]
        assert [k for k in sorted(ran) if ran[k][1] == "state-2"] == [2, 5]
        assert [k for k in sorted(ran) if ran[k][1] == "state-3"] == [3, 6]
        assert all(ran[k][0] == caller for k in (1, 4, 7))
        helpers = {ran[2][0], ran[3][0]}
        assert caller not in helpers and len(helpers) == 2
        assert ran[5][0] == ran[2][0] and ran[6][0] == ran[3][0]

    def test_helper_errors_reach_the_caller(self, monkeypatch):
        _force_width(monkeypatch, 2)

        def run_batch(k, state):
            if k == 2:
                raise ValueError("batch 2 failed")

        with pytest.raises(ValueError, match="batch 2 failed"):
            _run_sharded(4, run_batch, lambda k: None)

    def test_untraced_model_gets_one_scratch_model_per_shard(self, monkeypatch):
        images = _images("mlp", 80, 4)  # five batches
        vectors = _candidates(_NoSignatureMLP(rng=np.random.default_rng(4)), 4)
        _force_width(monkeypatch, 1)
        expected = predict_candidates(
            _NoSignatureMLP(rng=np.random.default_rng(4)), images, vectors, batch_size=BATCH
        )
        seen = _Log()
        _force_width(monkeypatch, 3)
        model = _NoSignatureMLP(seen=seen, rng=np.random.default_rng(4))
        got = predict_candidates(model, images, vectors, batch_size=BATCH)
        for ours, ref in zip(got, expected):
            assert np.array_equal(ours, ref)
        models_by_thread = {}
        for thread, model_id, _ in seen:
            models_by_thread.setdefault(thread, set()).add(model_id)
        assert len(models_by_thread) == 3
        assert all(len(ids) == 1 for ids in models_by_thread.values())
        assert len(set.union(*models_by_thread.values())) == 3
        assert models_by_thread[threading.current_thread().name] == {id(model)}
        assert trace.lane_counters()["fallbacks"] == 2 * 5 * len(vectors)  # both calls


def _lane_width_in_worker() -> int:
    return _lane_width(100)


class TestWidth:
    def test_affinity_mask_capped_at_the_batches_after_the_first(self, monkeypatch):
        if blas.numpy_blas_path() is None:
            pytest.skip("numpy's BLAS offers no thread control here")
        monkeypatch.setattr(training, "_affinity_cpus", lambda: 4)
        assert _lane_width(100) == 4
        assert _lane_width(3) == 2
        assert _lane_width(1) == 1
        assert _lane_width(0) == 1

    def test_one_without_blas_thread_control(self, monkeypatch):
        monkeypatch.setattr(training, "_affinity_cpus", lambda: 4)
        monkeypatch.setattr(blas, "numpy_blas_path", lambda: None)
        assert _lane_width(100) == 1

    def test_one_off_the_main_thread(self, monkeypatch):
        monkeypatch.setattr(training, "_affinity_cpus", lambda: 4)
        widths = []
        helper = threading.Thread(target=lambda: widths.append(_lane_width(100)))
        helper.start()
        helper.join(timeout=30)
        assert not helper.is_alive()
        assert widths == [1]

    def test_one_inside_a_process_pool_worker(self, monkeypatch):
        # A forked worker inherits the patch; the process role alone must
        # bring the width down to 1.
        monkeypatch.setattr(training, "_affinity_cpus", lambda: 4)
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_lane_width_in_worker).result() == 1


@pytest.mark.skipif(blas.numpy_blas_path() is None, reason="no BLAS thread control")
class TestBlasPin:
    def test_caller_count_restored_and_shards_pinned(self, monkeypatch):
        _, setter = blas._control()
        previous = setter(3)
        try:
            seen = _Log()
            model = _NoSignatureMLP(seen=seen, rng=np.random.default_rng(0))
            images = _images("mlp", 64, 0)
            for width in (1, 2):
                _force_width(monkeypatch, width)
                evaluate_model(model, _dataset("mlp", 64, 0), batch_size=BATCH)
                predict_candidates(model, images, _candidates(model, 0), batch_size=BATCH)
                assert blas.blas_threads() == 3
            assert seen and {threads for _, _, threads in seen} == {1}
        finally:
            setter(previous)

    def test_concurrent_pins_restore_the_count(self):
        _, setter = blas._control()
        previous = setter(3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        seen = _Log()

        def pin_repeatedly():
            for _ in range(200):
                with blas.single_threaded():
                    seen.append(blas.blas_threads())

        try:
            workers = [threading.Thread(target=pin_repeatedly) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            assert set(seen) == {1} and len(seen) == 8 * 200
            assert blas.blas_threads() == 3
        finally:
            sys.setswitchinterval(interval)
            setter(previous)

    def test_overlapping_pins_restore_once(self):
        _, setter = blas._control()
        previous = setter(3)
        try:
            with blas.single_threaded():
                with blas.single_threaded():
                    assert blas.blas_threads() == 1
                assert blas.blas_threads() == 1
            assert blas.blas_threads() == 3
        finally:
            setter(previous)
