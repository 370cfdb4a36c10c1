"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` layer in
place (module attributes and class methods), without touching ``src/``.
Each call becomes a span ``[name, start, end, parent, id]`` kept in memory;
``id`` is the round number or grid cell being run.  At exit the
spans are written as Chrome trace-event JSON (open in Perfetto or
``chrome://tracing``) and folded into the ``per_layer`` metrics.  Worker
processes are not traced: pooled work shows only as the parent's wait in
its fan-out span.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.stack = []
        self.tag = None
        self.counts = defaultdict(float)
        self._undo = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if before is not None:
                before(tracer, args, kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [label, time.perf_counter(), None, parent, tracer.tag]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[2] = time.perf_counter()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def wrap_function(self, fn, name, before=None):
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        wrapper = self._wrap(fn, name, before)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def wrap_method(self, cls, attr, name, before=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(fn, name, before))
        self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def inside(self, name: str) -> bool:
        return any(self.spans[index][0] == name for index in self.stack)

    # -- reading ---------------------------------------------------------
    def total(self, name: str) -> float:
        """Seconds in ``name`` spans, not counting a span nested in its own kind."""
        seconds = 0.0
        for label, start, end, parent, _ in self.spans:
            if label != name:
                continue
            outer = parent
            while outer is not None and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer is None:
                seconds += end - start
        return seconds

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def children_total(self, name: str) -> float:
        """Seconds of the direct children of every ``name`` span."""
        parents = {i for i, span in enumerate(self.spans) if span[0] == name}
        return sum(
            end - start
            for _, start, end, parent, _ in self.spans
            if parent in parents
        )

    def write_chrome(self, path: str) -> None:
        events = []
        for label, start, end, parent, tag in self.spans:
            events.append(
                {
                    "name": label,
                    "cat": label.split(".")[0],
                    "ph": "X",
                    "ts": round((start - self.t0) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": 0,
                    "args": {
                        "parent": None if parent is None else self.spans[parent][0],
                        "id": tag,
                    },
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _subclasses(cls):
    found = []
    pending = [cls]
    while pending:
        current = pending.pop()
        for sub in current.__subclasses__():
            found.append(sub)
            pending.append(sub)
    return found


def _conv_mode(args, kwargs):
    from repro.nn.tensor import is_grad_enabled

    x, weight = args[0], args[1]
    train = is_grad_enabled() and (x.requires_grad or weight.requires_grad)
    return "nn.conv2d.train" if train else "nn.conv2d.infer"


def _conv_shapes(tracer, args, kwargs):
    """Computed (not measured) FLOPs and im2col column bytes of one conv2d."""
    x, weight = args[0].data, args[1].data
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    columns = n * c * kh * kw * out_h * out_w
    tracer.counts["conv_flop"] += 2.0 * o * columns
    tracer.counts["conv_col_bytes"] += columns * x.dtype.itemsize


def _task_bytes(tracer, args, kwargs):
    for task in args[1]:
        tracer.counts["tasks"] += 1
        tracer.counts["task_bytes"] += len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))


def _eval_images(tracer, args, kwargs):
    tracer.counts["eval_images"] += len(args[1])


def _refd_images(tracer, args, kwargs):
    tracer.counts["refd_images"] += len(args[1]) * len(args[2])


def _train_step(tracer, args, kwargs):
    if tracer.inside("fl.local_train"):
        tracer.counts["train_steps"] += 1


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics are made of."""
    import repro.experiments  # noqa: F401  (loads every layer module)
    from repro.attacks.base import Attack
    from repro.attacks.dfa_common import train_adversarial_classifier
    from repro.data.partition import partition_dataset
    from repro.defenses.base import Defense
    from repro.defenses.distances import pairwise_sq_distances
    from repro.defenses.refd import Refd
    from repro.experiments.dispatch import load_task_for
    from repro.experiments.grid import GridRunner
    from repro.experiments.io import atomic_write_json
    from repro.fl.dispatch_policy import DispatchPolicy
    from repro.fl.server import Server
    from repro.fl.simulation import FederatedSimulation
    from repro.nn import functional
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    tracer.wrap_function(load_task_for, "data.load_task")
    tracer.wrap_function(partition_dataset, "data.partition")
    tracer.wrap_method(FederatedSimulation, "run_round", "fl.round")
    tracer.wrap_method(DispatchPolicy, "map_tasks", "fl.local_train", before=_task_bytes)
    tracer.wrap_method(
        DispatchPolicy, "fanout", lambda args, kwargs: f"dispatch.fanout.{args[1]}"
    )
    tracer.wrap_method(Server, "evaluate", "fl.evaluate", before=_eval_images)
    tracer.wrap_method(Server, "aggregate", "fl.aggregate")
    for cls in _subclasses(Attack):
        if "craft_updates" in cls.__dict__:
            tracer.wrap_method(cls, "craft_updates", "attacks.craft")
        if "synthesize" in cls.__dict__:
            tracer.wrap_method(cls, "synthesize", "attacks.synthesize")
    tracer.wrap_function(train_adversarial_classifier, "attacks.adv_train")
    for cls in _subclasses(Defense):
        if "aggregate" in cls.__dict__:
            tracer.wrap_method(cls, "aggregate", "defenses.aggregate")
    tracer.wrap_method(Refd, "score_updates", "defenses.refd_score", before=_refd_images)
    tracer.wrap_function(pairwise_sq_distances, "defenses.distance")
    tracer.wrap_function(functional.conv2d, _conv_mode, before=_conv_shapes)
    tracer.wrap_function(functional.linear, "nn.linear")
    tracer.wrap_function(functional.conv_transpose2d, "nn.conv_transpose2d")
    tracer.wrap_method(Tensor, "backward", "nn.backward")
    tracer.wrap_method(SGD, "step", "nn.sgd_step", before=_train_step)
    tracer.wrap_method(GridRunner, "run", "grid.run")
    tracer.wrap_function(atomic_write_json, "grid.cache_store")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(tracer: Tracer, setups: int, trace_before: dict, trace_after: dict) -> dict:
    """The per-layer numbers of one traced run (seconds are run totals)."""
    t = tracer.total
    counts = tracer.counts
    round_s = t("fl.round")
    other_s = round_s - tracer.children_total("fl.round")
    replay = {key: trace_after[key] - trace_before.get(key, 0) for key in trace_after}
    steps = sum(replay.values())
    conv_train = t("nn.conv2d.train")
    conv_infer = t("nn.conv2d.infer")
    return {
        "data.load_task_s": t("data.load_task") / max(1, setups),
        "data.partition_s": t("data.partition") / max(1, setups),
        "fl.round_s": round_s,
        "fl.local_train_s": t("fl.local_train"),
        "fl.train_steps": counts["train_steps"],
        "fl.evaluate_s": t("fl.evaluate"),
        "fl.eval_images_per_s": _ratio(counts["eval_images"], t("fl.evaluate")),
        "fl.aggregate_s": t("fl.aggregate"),
        "fl.round_other_s": other_s,
        "attacks.craft_s": t("attacks.craft"),
        "attacks.synthesize_s": t("attacks.synthesize"),
        "attacks.adv_train_s": t("attacks.adv_train"),
        "attacks.active_rounds": len(
            {span[4] for span in tracer.spans if span[0] == "attacks.craft"}
        ),
        "defenses.aggregate_s": t("defenses.aggregate"),
        "defenses.refd_score_s": t("defenses.refd_score"),
        "defenses.refd_images_per_s": _ratio(counts["refd_images"], t("defenses.refd_score")),
        "defenses.distance_s": t("defenses.distance"),
        "nn.conv2d.infer_s": conv_infer,
        "nn.conv2d.train_s": conv_train,
        "nn.conv2d.calls": tracer.calls("nn.conv2d.infer") + tracer.calls("nn.conv2d.train"),
        "nn.conv2d.gflop": counts["conv_flop"] / 1e9,
        "nn.conv2d.im2col_mb": counts["conv_col_bytes"] / 1e6,
        "nn.linear_s": t("nn.linear"),
        "nn.conv_transpose2d_s": t("nn.conv_transpose2d"),
        "nn.backward_s": t("nn.backward"),
        "nn.trace.replay_ratio": _ratio(replay.get("replays", 0), steps),
        "dispatch.fanout_s.round": t("fl.local_train"),
        "dispatch.fanout_s.refd": t("dispatch.fanout.refd"),
        "dispatch.fanout_s.distance": t("dispatch.fanout.distance"),
        "executor.task_kb": _ratio(counts["task_bytes"], counts["tasks"]) / 1024.0,
        "grid.cache_store_s": t("grid.cache_store"),
        "trace.span_coverage": _ratio(round_s - other_s, round_s),
    }
