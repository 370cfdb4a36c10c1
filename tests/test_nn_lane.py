"""Tests for the inference lane: forward-only trace plans behind REFD scoring.

The lane's contract is the same as the training tape's: bit-identity with
the eager engine.  Every predicted label and maximum class probability it
produces must equal eager ``softmax(model(Tensor(x)))`` under ``no_grad``
with the candidate's parameters loaded — on the recording call, on
replays, across parameter swaps, through REFD's serial and pooled paths,
and when it falls back to eager.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.defenses import AdaptiveRefd, Refd
from repro.fl.executor import ParallelExecutor, ShardRef, SharedArrayStore, ThreadedExecutor
from repro.fl.training import predict_candidates
from repro.fl.types import DefenseContext, ModelUpdate
from repro.models import ClassifierFactory
from repro.models.classifiers import MLP, CifarCNN, FashionCNN, GRUClassifier, SmallCNN
from repro.nn import functional as F
from repro.nn import trace
from repro.nn.serialization import get_flat_params, parameter_views, set_flat_params
from repro.nn.tensor import Tensor, no_grad

ARCHITECTURES = ("mlp", "small-cnn", "fashion-cnn", "cifar-cnn", "gru")
BATCH = 16


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    trace.reset_trace_cache()
    yield
    trace.reset_trace_cache()


def _build_model(name: str, seed: int) -> nn.Module:
    rng = np.random.default_rng(seed)
    if name == "mlp":
        return MLP(in_channels=1, image_size=12, num_classes=10, hidden=16, rng=rng)
    if name == "small-cnn":
        return SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4, rng=rng)
    if name == "fashion-cnn":
        return FashionCNN(in_channels=1, image_size=12, num_classes=10, rng=rng)
    if name == "cifar-cnn":
        return CifarCNN(in_channels=3, image_size=12, num_classes=10, width=4, rng=rng)
    if name == "gru":
        return GRUClassifier(in_channels=1, image_size=12, num_classes=10, hidden=8, rng=rng)
    raise AssertionError(name)


def _candidates(model: nn.Module, seed: int, count: int = 3):
    rng = np.random.default_rng(seed + 50)
    base = get_flat_params(model)
    return [
        base + 0.3 * rng.standard_normal(base.shape).astype(np.float32)
        for _ in range(count)
    ]


def _images(name: str, count: int, seed: int) -> np.ndarray:
    channels = 3 if name == "cifar-cnn" else 1
    rng = np.random.default_rng(seed + 7)
    return rng.normal(size=(count, channels, 12, 12)).astype(np.float32)


def _eager(model: nn.Module, images: np.ndarray, vector: np.ndarray, batch_size=BATCH):
    """Reference: eager forwards of a model with ``vector`` loaded, same batching."""
    set_flat_params(model, vector)
    model.eval()
    labels, max_probs = [], []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            probs = F.softmax(logits, axis=-1).data
            labels.append(probs.argmax(axis=1))
            max_probs.append(probs.max(axis=1))
    return np.concatenate(labels), np.concatenate(max_probs)


class _EagerLane(trace.ForwardSession):
    """The lane with replay switched off (every forward eager)."""

    def __init__(self, model) -> None:
        super().__init__(model)
        self.signature = None


class TestLaneMatchesEager:
    # 40 images with batch 16 -> two full batches and a tail of 8; 10
    # images -> a single batch smaller than the batch size.
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("count", (40, 10))
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_record_and_replay_bit_identical(self, name, count, seed):
        model = _build_model(name, seed)
        vectors = _candidates(model, seed)
        images = _images(name, count, seed)
        shapes = len({min(BATCH, count - start) for start in range(0, count, BATCH)})
        expected = [_eager(_build_model(name, 99), images, v) for v in vectors]
        for call in range(2):  # the first call records, the second replays
            predicted, max_probs, num_classes = predict_candidates(
                _build_model(name, seed), images, vectors, batch_size=BATCH
            )
            assert num_classes == 10
            for index, (labels, probs) in enumerate(expected):
                assert np.array_equal(predicted[index], labels), (call, index)
                assert np.array_equal(max_probs[index], probs), (call, index)
        counters = trace.lane_counters()
        assert counters["plans_recorded"] == shapes
        assert counters["fallbacks"] == 0
        batches = -(-count // BATCH)
        # Every (batch, candidate) forward replays except one recording
        # forward per batch shape.
        assert counters["replays"] == 2 * batches * len(vectors) - shapes

    def test_parameter_swaps_are_seen(self):
        """Binding new parameters between calls on one bound batch never
        reuses a stale binding."""
        model = _build_model("fashion-cnn", 3)
        first, second = _candidates(model, 3, count=2)
        x = _images("fashion-cnn", 12, 3)
        session = trace.ForwardSession(model)
        with no_grad():
            outputs = [
                session.forward(x, parameter_views(model, vector)).copy()
                for vector in (first, second, first, second)
            ]
        assert session.plan_for(x) is not None
        for vector, output in zip((first, second, first, second), outputs):
            twin = _build_model("fashion-cnn", 0)
            set_flat_params(twin, vector)
            with no_grad():
                assert np.array_equal(output, twin(Tensor(x)).data)
        assert not np.array_equal(outputs[0], outputs[1])

    def test_scoring_leaves_training_counters_alone(self):
        model = _build_model("small-cnn", 0)
        before = trace.trace_counters()
        predict_candidates(model, _images("small-cnn", 40, 0), _candidates(model, 0))
        assert trace.trace_counters() == before
        assert trace.lane_counters()["replays"] > 0


class TestForwardOnlyPlan:
    def _plan(self, model, x):
        session = trace.ForwardSession(model)
        with no_grad():
            session.forward(x, parameter_views(model, get_flat_params(model)))
        plan = session.plan_for(x)
        assert plan is not None
        return plan

    def test_no_vjp_program_and_no_gradient_buffers(self):
        plan = self._plan(_build_model("fashion-cnn", 0), _images("fashion-cnn", 8, 0))
        assert plan.trace.forward_only
        assert plan.trace.backward_steps == []
        assert plan._backward_program == []
        assert plan.grads == {}

    def test_first_conv_columns_are_hoisted(self):
        x = _images("fashion-cnn", 8, 0)
        plan = self._plan(_build_model("fashion-cnn", 0), x)
        assert len(plan._prefix_program) == 1  # conv1's padding + im2col
        assert plan.trace.nodes[0].op == "conv2d"
        cols = plan.saved[(0, "cols")].copy()
        other = _build_model("fashion-cnn", 1)
        plan.forward(parameter_views(other, get_flat_params(other)))
        # Per-parameter work never rebuilds the batch's columns.
        assert np.array_equal(plan.saved[(0, "cols")], cols)

    def test_relu_writes_into_the_next_conv_padding(self):
        plan = self._plan(_build_model("fashion-cnn", 0), _images("fashion-cnn", 8, 0))
        nodes = plan.trace.nodes
        ((relu_slot, conv_index),) = plan._in_place.items()
        assert nodes[conv_index].op == "conv2d"
        relu_out = plan.buffers[relu_slot]
        padded = plan.saved[(conv_index, "padded")]
        assert np.shares_memory(relu_out, padded)

    def test_training_plans_neither_hoist_nor_fuse(self):
        model = _build_model("fashion-cnn", 0)
        x = _images("fashion-cnn", 8, 0)
        y = np.arange(8) % 10
        session = trace.session_for(model)
        session.step(x, y)
        plan = session.plan_for(x, y)
        assert plan._prefix_program == [] and plan._in_place == {}

    def test_unpadded_relu_consumer_is_not_fused(self):
        # GRU and MLP have no padded conv: nothing to fuse into.
        for name in ("mlp", "gru"):
            plan = self._plan(_build_model(name, 0), _images(name, 8, 0))
            assert plan._in_place == {}


class _NoSignatureMLP(MLP):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.trace_signature = None


class _PoolingNet(nn.Module):
    """Conv + max-pool: max_pool2d carries no trace descriptor."""

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(4)
        self.conv = nn.Conv2d(1, 4, 3, stride=1, padding=1, rng=rng)
        self.fc = nn.Linear(4 * 6 * 6, 10, rng=rng)
        self.trace_signature = ("test-pooling-net",)

    def forward(self, x):
        x = F.max_pool2d(self.conv(x).relu(), 2)
        return self.fc(x.flatten_batch())


class TestEagerFallback:
    @pytest.mark.parametrize(
        "build",
        (
            lambda: _NoSignatureMLP(in_channels=1, image_size=12, num_classes=10, hidden=16),
            _PoolingNet,
        ),
        ids=("no-trace-signature", "op-without-descriptor"),
    )
    def test_fallback_matches_eager(self, build):
        model = build()
        vectors = _candidates(model, 5)
        images = _images("mlp", 40, 5)
        for _ in range(2):
            predicted, max_probs, _ = predict_candidates(build(), images, vectors, batch_size=BATCH)
            for index, vector in enumerate(vectors):
                labels, probs = _eager(build(), images, vector)
                assert np.array_equal(predicted[index], labels)
                assert np.array_equal(max_probs[index], probs)
        counters = trace.lane_counters()
        assert counters["plans_recorded"] == 0
        assert counters["replays"] == 0
        assert counters["fallbacks"] == 2 * 3 * len(vectors)


def _updates(factory, count=5, seed=3):
    rng = np.random.default_rng(seed)
    params = get_flat_params(factory())
    return [
        ModelUpdate(
            client_id=i,
            parameters=params + 0.3 * rng.standard_normal(params.shape).astype(np.float32),
            num_samples=5,
        )
        for i in range(count)
    ]


def _context(task, factory, executor=None, reference_ref=None):
    return DefenseContext(
        round_number=0,
        global_params=get_flat_params(factory()),
        expected_num_malicious=1,
        rng=np.random.default_rng(0),
        model_factory=factory,
        reference_dataset=task.test,
        executor=executor,
        reference_ref=reference_ref,
    )


FACTORY = ClassifierFactory(
    architecture="small-cnn", in_channels=1, image_size=12, num_classes=10, seed=0
)


class TestRefdThroughTheLane:
    @pytest.mark.parametrize("defense_cls", (Refd, AdaptiveRefd))
    def test_reports_and_selection_match_eager(self, tiny_task, monkeypatch, defense_cls):
        updates = _updates(FACTORY)
        lane_defense = defense_cls(num_rejected=2)
        lane = lane_defense.aggregate(updates, _context(tiny_task, FACTORY))
        assert trace.lane_counters()["replays"] > 0
        monkeypatch.setattr(trace, "ForwardSession", _EagerLane)
        eager_defense = defense_cls(num_rejected=2)
        eager = eager_defense.aggregate(updates, _context(tiny_task, FACTORY))
        assert lane_defense.last_reports == eager_defense.last_reports
        assert lane.accepted_client_ids == eager.accepted_client_ids
        assert np.array_equal(lane.new_params, eager.new_params)

    def test_thread_fanout_matches_serial(self, tiny_task):
        defense = Refd(num_rejected=1)
        updates = _updates(FACTORY)
        images, _ = tiny_task.test.arrays()
        serial = defense.score_updates(updates, images, _context(tiny_task, FACTORY))
        with ThreadedExecutor(workers=2) as executor:
            threaded = defense.score_updates(
                updates, images, _context(tiny_task, FACTORY, executor=executor)
            )
        assert threaded == serial

    def test_process_fanout_matches_serial(self, tiny_task):
        defense = Refd(num_rejected=1)
        updates = _updates(FACTORY)
        images, labels = tiny_task.test.arrays()
        serial = defense.score_updates(updates, images, _context(tiny_task, FACTORY))
        with SharedArrayStore({"reference/images": images, "reference/labels": labels}) as store:
            reference_ref = ShardRef(
                images=store.refs["reference/images"], labels=store.refs["reference/labels"]
            )
            with ParallelExecutor(workers=2) as executor:
                pooled = defense.score_updates(
                    updates,
                    images,
                    _context(tiny_task, FACTORY, executor=executor, reference_ref=reference_ref),
                )
                assert executor.fanout_calls == len(updates)
        assert pooled == serial
