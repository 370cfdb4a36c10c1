"""Local training and evaluation loops shared by clients, attacks and metrics."""

from __future__ import annotations

import copy
import multiprocessing
import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import blas
from ..nn import functional as F
from ..nn import trace as nn_trace
from ..nn.modules import Module
from ..nn.optim import SGD
from ..nn.serialization import parameter_views
from ..nn.tensor import Tensor, no_grad
from .types import LocalTrainingConfig

__all__ = [
    "train_on_arrays",
    "train_local_model",
    "evaluate_model",
    "predict_proba",
    "predict_candidates",
]


def train_on_arrays(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
    extra_loss: Optional[callable] = None,
) -> List[float]:
    """Train ``model`` in place on an array dataset and return per-epoch losses.

    Parameters
    ----------
    extra_loss:
        Optional callable ``extra_loss(model) -> Tensor`` added to the
        cross-entropy loss of every batch.  The DFA attacks use this hook for
        their distance-based regularization term.

    When ``config.trace`` is ``"replay"`` (or ``"auto"``, which resolves
    to replay here when a :class:`DispatchPolicy` has not already decided)
    and the model declares a ``trace_signature``, each distinct batch
    shape runs through the recorded-tape engine of :mod:`repro.nn.trace`:
    the first step records (eagerly — so it is also a normal step) and
    later steps replay a preallocated buffer plan, bit-identical to the
    eager loop.  ``extra_loss`` models, shape changes and untraceable ops
    all fall back to eager per step, never erroring.
    """
    model.train()
    optimizer = SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    session = None
    if extra_loss is None and getattr(config, "trace", "auto") != "eager":
        session = nn_trace.session_for(model)
    num_samples = images.shape[0]
    epoch_losses: List[float] = []
    for _ in range(config.local_epochs):
        order = rng.permutation(num_samples)
        batch_losses: List[float] = []
        for start in range(0, num_samples, config.batch_size):
            batch = order[start : start + config.batch_size]
            optimizer.zero_grad()
            loss_value: Optional[float] = None
            if session is not None:
                loss_value = session.step(images[batch], labels[batch])
            if loss_value is None:
                logits = model(Tensor(images[batch]))
                loss = F.cross_entropy(logits, labels[batch])
                if extra_loss is not None:
                    loss = loss + extra_loss(model)
                loss.backward()
                loss_value = float(loss.item())
            optimizer.step()
            batch_losses.append(loss_value)
        epoch_losses.append(float(np.mean(batch_losses)))
    return epoch_losses


def train_local_model(
    model: Module,
    dataset,
    config: LocalTrainingConfig,
    rng: np.random.Generator,
) -> List[float]:
    """Train ``model`` on a dataset object that exposes ``arrays()``."""
    images, labels = dataset.arrays()
    return train_on_arrays(model, images, labels, config, rng)


def _affinity_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lane_width(num_batches: int) -> int:
    """How many threads an inference lane shards ``num_batches`` batches over.

    The CPUs in this process's affinity mask, capped at the batches left
    after the first (which always runs alone on the caller).  It is 1 inside
    a ``multiprocessing`` worker (the pool already owns the cores), off the
    main thread (thread dispatch owns them) and when numpy's BLAS cannot be
    pinned to one thread per shard.
    """
    if (
        multiprocessing.parent_process() is not None
        or threading.current_thread() is not threading.main_thread()
        or blas.numpy_blas_path() is None
    ):
        return 1
    return max(1, min(_affinity_cpus(), num_batches - 1))


def _run_sharded(
    num_batches: int,
    run_batch: Callable[[int, object], None],
    shard_state: Callable[[int], object],
) -> None:
    """Run ``run_batch(k, state)`` for every batch ``k``, sharded over threads.

    Batch 0 runs first on the calling thread, so a plan its signature needs
    is recorded exactly once.  Batch ``k >= 1`` then goes to shard
    ``(k - 1) % width``: shard 0 runs on the calling thread and each other
    shard on its own helper thread.  ``shard_state(k)`` builds a shard's
    state from the index of its first batch; the caller builds all of them
    (shard 0's is also batch 0's) before the fan-out, so their allocations
    stay on the calling thread.  Every shard runs under ``no_grad`` with
    numpy's BLAS pinned to one thread — at width 1 too.  Callers write
    per-batch results to disjoint slots and reduce them in batch order, so
    values never depend on the width.  The first error raised by any shard
    is re-raised once every shard has stopped.
    """
    width = _lane_width(num_batches)
    shards = [range(1 + s, num_batches, width) for s in range(width)]
    shards = shards[:1] + [shard for shard in shards[1:] if len(shard)]
    nn_trace.note_lane_width(len(shards))
    errors: List[BaseException] = []

    def run_shard(batches: range, state: object) -> None:
        try:
            with no_grad():
                for k in batches:
                    run_batch(k, state)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    with blas.single_threaded(), no_grad():
        states = [shard_state(0)]
        if num_batches:
            run_batch(0, states[0])
        states += [shard_state(shard[0]) for shard in shards[1:]]
        helpers = [
            threading.Thread(target=run_shard, args=(shard, state), daemon=True)
            for shard, state in zip(shards[1:], states[1:])
        ]
        for helper in helpers:
            helper.start()
        run_shard(shards[0], states[0])
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def evaluate_model(model: Module, dataset, batch_size: int = 128) -> Tuple[float, float]:
    """Return ``(accuracy, mean cross-entropy loss)`` of ``model`` on a dataset.

    Batches run eagerly and are sharded over threads (see
    :func:`_run_sharded`); the model is only read, so every shard shares
    it.  Each batch leaves its weighted loss and correct count in its own
    slot, and the slots are summed in batch order, so both values are
    bit-identical whatever the width.
    """
    model.eval()
    images, labels = dataset.arrays()
    starts = range(0, len(labels), batch_size)
    losses = [0.0] * len(starts)
    corrects = [0] * len(starts)

    def run_batch(k: int, _state: object) -> None:
        batch = slice(starts[k], starts[k] + batch_size)
        targets = labels[batch]
        logits = model(Tensor(images[batch]))
        losses[k] = float(F.cross_entropy(logits, targets).item()) * len(targets)
        corrects[k] = int((logits.data.argmax(axis=1) == targets).sum())

    _run_sharded(len(starts), run_batch, lambda k: None)
    total = len(labels)
    if total == 0:
        return 0.0, 0.0
    loss_sum = 0.0
    for loss in losses:  # not sum(): Python 3.12+ compensates float sums
        loss_sum += loss
    return sum(corrects) / total, loss_sum / total


def predict_proba(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Class-probability predictions of ``model`` for a batch of images.

    Each batch's probabilities are written straight into one output matrix,
    allocated once the first batch reveals the class count.
    """
    model.eval()
    num_samples = images.shape[0]
    out = np.empty((0, 0), dtype=np.float32)
    with no_grad():
        for start in range(0, num_samples, batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            probs = F.softmax(logits, axis=-1).data
            if start == 0:
                out = np.empty((num_samples, probs.shape[1]), dtype=probs.dtype)
            out[start : start + probs.shape[0]] = probs
    return out


def predict_candidates(
    model: Module,
    images: np.ndarray,
    parameter_vectors: Sequence[np.ndarray],
    batch_size: int = 256,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Predicted labels and max class probabilities of many parameter sets.

    The inference lane behind REFD: ``model``'s architecture is evaluated on
    ``images`` once per flat vector of ``parameter_vectors``, looping
    batch-major through a :class:`~repro.nn.trace.ForwardSession` — each
    reference batch is bound once (its parameter-independent prefix runs
    once), then every candidate runs on it with its vector bound as
    zero-copy views.  Batches are sharded over threads (see
    :func:`_run_sharded`); each helper shard owns a session on a scratch
    copy of ``model``, bound to its first batch by the caller, and every
    batch writes its own columns of the output.  Batching matches
    :func:`predict_proba`, and every value is bit-identical to eager
    ``softmax(model(x))`` with that vector loaded, whether a plan replays
    or the model falls back to eager, and whatever the width.  ``model``
    serves as a scratch instance: eager forwards rebind its parameters to
    the candidates' views.

    Returns ``(predicted, max_probs, num_classes)``: two
    ``(len(parameter_vectors), len(images))`` matrices (int64 argmax, and
    the max probability in the model's dtype) plus the class count.
    """
    model.eval()
    bindings = [parameter_views(model, vector) for vector in parameter_vectors]
    num_samples = images.shape[0]
    batches = [images[start : start + batch_size] for start in range(0, num_samples, batch_size)]
    predicted = np.empty((len(bindings), num_samples), dtype=np.int64)
    max_probs = np.empty((len(bindings), num_samples), dtype=np.float32)
    num_classes = 0

    def shard_state(k: int) -> "nn_trace.ForwardSession":
        if k == 0:
            return nn_trace.ForwardSession(model)
        lane = nn_trace.ForwardSession(copy.deepcopy(model))
        lane.bind(batches[k])
        return lane

    def run_batch(k: int, lane: "nn_trace.ForwardSession") -> None:
        nonlocal max_probs, num_classes
        batch = batches[k]
        start = k * batch_size
        stop = start + batch.shape[0]
        for index, views in enumerate(bindings):
            probs = F.softmax_array(lane.forward(batch, views))
            if k == 0 and index == 0:
                num_classes = probs.shape[1]
                max_probs = max_probs.astype(probs.dtype, copy=False)
            predicted[index, start:stop] = probs.argmax(axis=1)
            max_probs[index, start:stop] = probs.max(axis=1)

    _run_sharded(len(batches), run_batch, shard_state)
    return predicted, max_probs, num_classes
