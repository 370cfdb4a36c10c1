"""Trace-recorded VJP replay with buffer planning.

The eager engine in :mod:`repro.nn.tensor` rebuilds a closure graph on
every forward/backward step.  This module records that step *once* per
``(model signature, input shape, dtype)`` as an op-level tape and then
replays the tape through a :class:`CompiledPlan`: a flat list of
pre-compiled forward and backward callables whose activation, saved and
gradient storage is preallocated and reused across steps.

Lifecycle
---------
1. **Record** — :meth:`TraceSession.step` sees an unseen signature, runs
   the step eagerly with a :class:`TraceRecorder` hooked into
   ``Tensor._from_op``, and (when every op carried a trace descriptor)
   finalizes the tape.  The recording step *is* an eager step, so its
   result is trivially bit-identical.
2. **Replay** — subsequent steps with the same signature execute the
   compiled program.  Kernels perform exactly the numpy expressions the
   eager closures perform, in the same order, through the
   :class:`~repro.nn.backend.ArrayBackend` shim — replay is bit-identical
   to eager under a fixed seed (covered by the trace test suite).
3. **Fallback** — any shape/dtype change keys a fresh tape (up to a small
   cap); untraceable ops (Dropout in train mode, BatchNorm, integer
   embedding lookups, any op without a descriptor) poison the recording
   and pin that signature to eager execution permanently.

The same tape also drives the **inference lane** (:class:`ForwardSession`):
a forward-only recording of ``model(x)`` compiles no VJP program and no
gradient buffers, and splits its program at the parameter boundary — the
parameter-independent prefix (input padding, first-layer im2col) runs once
per input batch, the rest once per parameter binding.  REFD scores every
candidate update through it batch by batch (see
:func:`repro.fl.training.predict_candidates`).  Its counters live in
:func:`lane_counters`, apart from the training counters.

The backward schedule replicates ``Tensor.backward``'s DFS topological
order and gradient-accumulation order exactly: "store" vs "add" per edge
is resolved statically by simulating the eager algorithm on the recorded
graph, so multi-consumer values (GRU hidden state) accumulate in the
same float order as eager.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import ArrayBackend, default_backend
from . import tensor as tensor_module
from .tensor import Tensor

__all__ = [
    "TraceUnsupported",
    "TraceRecorder",
    "Trace",
    "CompiledPlan",
    "TraceSession",
    "register_trace_op",
    "registered_trace_ops",
    "ForwardSession",
    "session_for",
    "reset_trace_cache",
    "trace_counters",
    "lane_counters",
    "note_lane_width",
    "MAX_SIGNATURES_PER_MODEL",
]


class TraceUnsupported(RuntimeError):
    """The recorded step cannot be replayed; callers fall back to eager."""


# ----------------------------------------------------------------------
# Op registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """A replayable op: compile-time forward and VJP kernel builders.

    ``forward``/``vjp`` are *compilers*: called once per plan with an
    :class:`OpContext`, they bind buffers and return the per-step callable.
    Both must be module-level named functions (the ``TR002`` lint rule),
    so a worker process rebuilding plans after import sees the same
    registry.
    """

    name: str
    forward: Callable
    vjp: Callable


OP_REGISTRY: Dict[str, OpSpec] = {}


def register_trace_op(name: str, forward: Callable, vjp: Callable) -> None:
    """Register the forward/VJP kernel builders for op ``name``.

    Must be called at module import time with module-level functions
    (mirroring the fan-out registry contract) — the ``TR001``/``TR002``
    lint rules enforce both properties statically.
    """
    OP_REGISTRY[name] = OpSpec(name, forward, vjp)


def registered_trace_ops() -> List[str]:
    """Names of all replayable ops, sorted."""
    return sorted(OP_REGISTRY)


# ----------------------------------------------------------------------
# Recorded structure
# ----------------------------------------------------------------------
KIND_NODE = "node"
KIND_PARAM = "param"
KIND_INPUT = "input"
KIND_CONST = "const"
KIND_EXT = "ext"


@dataclass(frozen=True)
class ExtArg:
    """Marker for a kwarg array rebound per step (e.g. the target labels)."""

    slot: int


@dataclass
class SlotInfo:
    kind: str
    shape: Tuple[int, ...]
    dtype: np.dtype
    const: Optional[np.ndarray] = None
    param_index: Optional[int] = None
    name: Optional[str] = None
    requires_grad: bool = False
    tensor: Optional[Tensor] = None  # record-time only; dropped at finalize


@dataclass
class TraceNode:
    op: str
    parents: Tuple[int, ...]
    out: int
    kwargs: Dict[str, object]
    requires_grad: bool


@dataclass
class BackwardStep:
    """One VJP emission: node index plus its gradient sinks.

    ``edges`` maps parent position -> ("store" | "add"); the order and
    store/add split replicate the eager accumulation exactly.
    """

    node_index: int
    edges: Dict[int, str] = field(default_factory=dict)


class Trace:
    """An immutable recorded tape plus its derived backward schedule.

    ``output_slot`` is the loss of a training tape, or the model output of
    a ``forward_only`` tape (which has no backward schedule at all).
    """

    def __init__(
        self,
        nodes: List[TraceNode],
        slots: List[SlotInfo],
        output_slot: int,
        input_slots: Dict[str, int],
        ext_slots: Dict[str, int],
        param_slots: List[Tuple[int, int]],
        forward_only: bool = False,
    ) -> None:
        self.nodes = nodes
        self.slots = slots
        self.output_slot = output_slot
        self.input_slots = input_slots
        self.ext_slots = ext_slots
        self.param_slots = param_slots  # (slot, parameter index) pairs
        self.forward_only = forward_only
        self.forward_indices = self._needed_forward()
        self.backward_steps: List[BackwardStep] = []
        self.grad_param_slots: List[Tuple[int, int]] = []
        if not forward_only:
            self.backward_steps, self.grad_param_slots = self._build_schedule()

    # -- schedule ------------------------------------------------------
    def _needed_forward(self) -> List[int]:
        """Indices of nodes that feed the output, in recorded order."""
        producer = {node.out: i for i, node in enumerate(self.nodes)}
        if self.output_slot not in producer:
            raise TraceUnsupported("output is not the result of a recorded op")
        needed = {self.output_slot}
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            if node.out in needed:
                needed.update(node.parents)
        return [i for i, node in enumerate(self.nodes) if node.out in needed]

    def _build_schedule(self) -> Tuple[List[BackwardStep], List[Tuple[int, int]]]:
        """Replicate ``Tensor.backward``'s DFS order and accumulation modes."""
        producer = {node.out: i for i, node in enumerate(self.nodes)}

        def effective_parents(slot: int) -> Tuple[int, ...]:
            info = self.slots[slot]
            if info.kind != KIND_NODE or not info.requires_grad:
                return ()
            return self.nodes[producer[slot]].parents

        topo: List[int] = []
        visited: set = set()
        stack: List[Tuple[int, bool]] = [(self.output_slot, False)]
        while stack:
            slot, processed = stack.pop()
            if processed:
                topo.append(slot)
                continue
            if slot in visited:
                continue
            visited.add(slot)
            stack.append((slot, True))
            for parent in effective_parents(slot):
                if parent not in visited:
                    stack.append((parent, False))

        steps: List[BackwardStep] = []
        grad_params: List[Tuple[int, int]] = []
        present = {self.output_slot}
        for slot in reversed(topo):
            if slot not in present:
                continue
            info = self.slots[slot]
            if info.kind == KIND_PARAM:
                grad_params.append((slot, info.param_index))
                continue
            if info.kind != KIND_NODE or not info.requires_grad:
                continue
            node_index = producer[slot]
            node = self.nodes[node_index]
            step = BackwardStep(node_index)
            for pos, parent in enumerate(node.parents):
                if not self.slots[parent].requires_grad:
                    continue
                step.edges[pos] = "add" if parent in present else "store"
                present.add(parent)
            steps.append(step)
        return steps, grad_params


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
_STATIC_INDEX_TYPES = (int, slice, type(None), type(Ellipsis))


class TraceRecorder:
    """Observes ``Tensor._from_op`` during one eager step and builds a tape."""

    def __init__(self, externals: Dict[str, np.ndarray]) -> None:
        self.externals = dict(externals)
        self._ext_name_by_id = {id(array): name for name, array in externals.items()}
        self.slots: List[SlotInfo] = []
        self.nodes: List[TraceNode] = []
        self._slot_of: Dict[int, int] = {}
        self._ext_slot: Dict[str, int] = {}
        self._keepalive: List[object] = []
        self.failed: Optional[str] = None

    # -- bookkeeping ---------------------------------------------------
    def fail(self, reason: str) -> None:
        """Poison the recording; the signature will stay on eager execution."""
        if self.failed is None:
            self.failed = reason

    def _new_slot(self, info: SlotInfo) -> int:
        self.slots.append(info)
        return len(self.slots) - 1

    def _slot_for(self, tensor: Tensor) -> Optional[int]:
        key = id(tensor)
        slot = self._slot_of.get(key)
        if slot is not None:
            return slot
        # Keep every observed tensor alive for the duration of the
        # recording: id() keys are only unique among live objects.
        self._keepalive.append(tensor)
        data = tensor.data
        if tensor.requires_grad and tensor._backward is None:
            slot = self._new_slot(
                SlotInfo(
                    KIND_PARAM, data.shape, data.dtype, requires_grad=True, tensor=tensor
                )
            )
        elif id(data) in self._ext_name_by_id:
            name = self._ext_name_by_id[id(data)]
            slot = self._new_slot(SlotInfo(KIND_INPUT, data.shape, data.dtype, name=name))
        elif tensor.requires_grad:
            self.fail("tensor with gradient history created outside the recorded step")
            return None
        else:
            slot = self._new_slot(
                SlotInfo(KIND_CONST, data.shape, data.dtype, const=data.copy())
            )
        self._slot_of[key] = slot
        return slot

    def _ext_slot_for(self, array: np.ndarray) -> Optional[int]:
        name = self._ext_name_by_id.get(id(array))
        if name is None:
            return None
        slot = self._ext_slot.get(name)
        if slot is None:
            slot = self._new_slot(SlotInfo(KIND_EXT, array.shape, array.dtype, name=name))
            self._ext_slot[name] = slot
        return slot

    def _freeze_value(self, value):
        """Static (picklable, step-invariant) form of a kwarg value."""
        if isinstance(value, np.ndarray):
            slot = self._ext_slot_for(value)
            if slot is None:
                raise _FreezeError(
                    "op kwarg references an array that is neither a declared "
                    "step input nor a constant"
                )
            return ExtArg(slot)
        if isinstance(value, _STATIC_INDEX_TYPES) or isinstance(value, (float, bool, str)):
            return value
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, tuple):
            return tuple(self._freeze_value(item) for item in value)
        raise _FreezeError(f"op kwarg of type {type(value).__name__} is not traceable")

    # -- the hook ------------------------------------------------------
    def record_op(
        self,
        out: Tensor,
        parents: Tuple[Tensor, ...],
        op: Optional[Tuple[str, Dict[str, object]]],
    ) -> None:
        if self.failed is not None:
            return
        if op is None:
            self.fail("op without a trace descriptor")
            return
        name, kwargs = op
        if name not in OP_REGISTRY:
            self.fail(f"op '{name}' has no registered trace kernels")
            return
        parent_slots: List[int] = []
        for parent in parents:
            slot = self._slot_for(parent)
            if slot is None:
                return
            parent_slots.append(slot)
        try:
            frozen = {key: self._freeze_value(value) for key, value in kwargs.items()}
        except _FreezeError as exc:
            self.fail(f"op '{name}': {exc}")
            return
        data = out.data
        out_slot = self._new_slot(
            SlotInfo(KIND_NODE, data.shape, data.dtype, requires_grad=out.requires_grad)
        )
        self._slot_of[id(out)] = out_slot
        self._keepalive.append(out)
        self.nodes.append(
            TraceNode(name, tuple(parent_slots), out_slot, frozen, out.requires_grad)
        )

    # -- finalize ------------------------------------------------------
    def finalize(self, output: Tensor, model, forward_only: bool = False) -> Trace:
        """Validate the recording against ``model`` and build the tape.

        ``output`` is the scalar loss of a training step, or the model
        output of a ``forward_only`` (inference) recording.
        """
        if self.failed is not None:
            raise TraceUnsupported(self.failed)
        output_slot = self._slot_of.get(id(output))
        if output_slot is None or self.slots[output_slot].kind != KIND_NODE:
            raise TraceUnsupported("output tensor was not produced by a recorded op")
        if not forward_only and int(np.prod(self.slots[output_slot].shape)) != 1:
            raise TraceUnsupported("loss must be a scalar")
        params = model.parameters()
        index_of = {id(param): i for i, param in enumerate(params)}
        param_slots: List[Tuple[int, int]] = []
        for slot, info in enumerate(self.slots):
            if info.kind != KIND_PARAM:
                continue
            param_index = index_of.get(id(info.tensor))
            if param_index is None:
                raise TraceUnsupported(
                    "a gradient leaf used in the step is not a model parameter"
                )
            info.param_index = param_index
            info.tensor = None  # the trace must not pin the recorded model
            param_slots.append((slot, param_index))
        input_slots = {
            info.name: slot
            for slot, info in enumerate(self.slots)
            if info.kind == KIND_INPUT
        }
        ext_slots = dict(self._ext_slot)
        missing = set(self.externals) - set(input_slots) - set(ext_slots)
        if missing:
            # A declared step array the ops never saw by identity (e.g. a
            # dtype conversion copied it) would be baked into the tape as
            # a constant of the recording step.
            raise TraceUnsupported(f"step inputs {sorted(missing)} were not observed")
        return Trace(
            self.nodes, self.slots, output_slot, input_slots, ext_slots, param_slots,
            forward_only=forward_only,
        )


class _FreezeError(ValueError):
    pass


# ----------------------------------------------------------------------
# Compilation: contexts, sinks, plans
# ----------------------------------------------------------------------
class Sink:
    """Gradient target for one (node, parent) edge.

    ``out`` is the array the kernel writes its parent gradient into: the
    parent's plan-owned gradient buffer for "store" edges (fused, no
    copy), or an edge scratch buffer for "add" edges.  ``commit()``
    folds a scratch into the parent buffer; ``write(arr)`` is the
    convenience path for kernels that produced the gradient elsewhere.
    """

    __slots__ = ("out", "mode", "_target", "_xp")

    def __init__(self, xp: ArrayBackend, target: np.ndarray, mode: str, scratch) -> None:
        self._xp = xp
        self._target = target
        self.mode = mode
        self.out = target if mode == "store" else scratch

    def commit(self) -> None:
        if self.mode == "add":
            self._xp.add(self._target, self.out, out=self._target)

    def write(self, array) -> None:
        if self.mode == "store":
            self._xp.copyto(self._target, array)
        else:
            self._xp.add(self._target, array, out=self._target)


class OpContext:
    """Compile-time view of one node handed to the registered kernels."""

    def __init__(self, plan: "CompiledPlan", node_index: int, backward: bool) -> None:
        self._plan = plan
        self.node_index = node_index
        self.node = plan.trace.nodes[node_index]
        self.xp = plan.xp
        self.parents = self.node.parents
        self.out = self.node.out
        self._backward = backward
        self._edges: Dict[int, str] = {}

    # -- shapes --------------------------------------------------------
    def shape(self, slot: int) -> Tuple[int, ...]:
        return self._plan.trace.slots[slot].shape

    def dtype(self, slot: int) -> np.dtype:
        return self._plan.trace.slots[slot].dtype

    @property
    def kwargs(self) -> Dict[str, object]:
        return self.node.kwargs

    @property
    def out_shape(self) -> Tuple[int, ...]:
        return self.shape(self.out)

    @property
    def out_dtype(self) -> np.dtype:
        return self.dtype(self.out)

    # -- storage -------------------------------------------------------
    def alloc_out(self) -> np.ndarray:
        """Stable plan-owned output buffer for this node's value.

        For a node the plan fused into its consumer conv's padded input
        (see :meth:`CompiledPlan._pad_fusions`) this is the interior view
        of that zero-bordered buffer, so the value lands pre-padded.
        """
        return self._plan._buffer(self.out)

    def padded_input(self) -> np.ndarray:
        """This conv node's zero-bordered input buffer (parent 0, padded).

        Borders are zeroed once at allocation and never written again.
        """
        return self._plan._padded(self.node_index)

    def input_in_place(self) -> bool:
        """Whether parent 0's producer already writes into :meth:`padded_input`."""
        return self._plan._in_place.get(self.parents[0]) == self.node_index

    def is_static(self, slot: int) -> bool:
        """Whether ``slot`` stays fixed across :meth:`CompiledPlan.forward` calls.

        True only in forward-only plans, for values computed from the
        bound inputs and constants alone (no parameter upstream).
        """
        return slot in self._plan._static

    def hoist(self, fn: Callable) -> None:
        """Run ``fn(vals)`` once per input binding instead of once per step.

        For the parameter-independent part of a kernel whose inputs are all
        :meth:`is_static` (the conv's padding and im2col of the input batch).
        """
        self._plan._prefix_program.append(fn)

    def scratch(self, name: str, shape, dtype) -> np.ndarray:
        """Per-node saved/scratch buffer (shared between forward and VJP)."""
        return self._plan._scratch(self.node_index, name, shape, dtype)

    def saved(self, name: str) -> np.ndarray:
        """A buffer the forward kernel of this node registered."""
        return self._plan.saved[(self.node_index, name)]

    def saved_output(self) -> np.ndarray:
        """The stable output buffer this node's forward kernel allocated."""
        return self._plan.buffers[self.out]

    def alias_saved(self, name: str, array: np.ndarray) -> np.ndarray:
        """Explicitly alias ``name`` to an existing plan buffer.

        Aliasing is never implicit: a kernel that wants to reuse another
        buffer's storage (the conv ``grad_cols``-over-``cols`` trick) must
        declare it here, with its own liveness argument, so the plan's
        saved map stays a complete record of who owns what.
        """
        self._plan.saved[(self.node_index, name)] = array
        return array

    # -- gradients (backward compile only) -----------------------------
    def grad_in(self) -> np.ndarray:
        """The (already accumulated) gradient buffer of this node's output."""
        return self._plan._grad_buffer(self.out)

    def sink(self, pos: int) -> Optional[Sink]:
        """Gradient sink for parent ``pos``; None when no gradient flows."""
        mode = self._edges.get(pos)
        if mode is None:
            return None
        parent = self.parents[pos]
        target = self._plan._grad_buffer(parent)
        scratch = None
        if mode == "add":
            scratch = self._plan._scratch(
                self.node_index,
                f"edge{pos}",
                self._plan.trace.slots[parent].shape,
                self._plan.trace.slots[parent].dtype,
            )
        return Sink(self.xp, target, mode, scratch)


class CompiledPlan:
    """A trace bound to preallocated buffers and compiled step programs.

    Training plans replay forward + VJP per step (:meth:`run`).  Forward-only
    plans (``trace.forward_only``) compile no VJP program and no gradient
    buffers, and split the forward program at the parameter boundary:
    :meth:`bind_inputs` runs the parameter-independent prefix once per
    input batch, :meth:`forward` runs the rest once per parameter binding.
    Both the hoist and the ReLU-into-pad fusion are decided from the tape's
    dataflow alone.
    """

    def __init__(self, trace: Trace, xp: Optional[ArrayBackend] = None) -> None:
        self.trace = trace
        self.xp = xp or default_backend()
        self.buffers: Dict[int, np.ndarray] = {}
        self.saved: Dict[Tuple[int, str], np.ndarray] = {}
        self.grads: Dict[int, np.ndarray] = {}
        self._vals: List[Optional[np.ndarray]] = [None] * len(trace.slots)
        for slot, info in enumerate(trace.slots):
            if info.kind == KIND_CONST:
                self._vals[slot] = info.const
        self._static: set = set()
        self._in_place: Dict[int, int] = {}
        if trace.forward_only:
            self._static = {
                slot
                for slot, info in enumerate(trace.slots)
                if info.kind in (KIND_INPUT, KIND_CONST)
            }
            self._in_place = self._pad_fusions()
        else:
            # The root gradient: eager seeds backward() with ones.
            loss_info = trace.slots[trace.output_slot]
            root = self.xp.empty(loss_info.shape, loss_info.dtype)
            self.xp.copyto(root, 1.0)
            self.grads[trace.output_slot] = root
        self._prefix_program: List[Callable] = []
        self._forward_program: List[Callable] = []
        self._backward_program: List[Callable] = []
        self.steps_replayed = 0
        self._compile()
        if not trace.forward_only:
            self._loss_buf = self._vals_buffer_for_loss()

    # -- storage helpers ----------------------------------------------
    def _buffer(self, slot: int) -> np.ndarray:
        buf = self.buffers.get(slot)
        if buf is None:
            consumer = self._in_place.get(slot)
            if consumer is not None:
                padding = self.trace.nodes[consumer].kwargs["padding"]
                buf = self._padded(consumer)[:, :, padding:-padding, padding:-padding]
            else:
                info = self.trace.slots[slot]
                buf = self.xp.empty(info.shape, info.dtype)
            self.buffers[slot] = buf
        return buf

    def _padded(self, node_index: int) -> np.ndarray:
        key = (node_index, "padded")
        buf = self.saved.get(key)
        if buf is None:
            node = self.trace.nodes[node_index]
            padding = node.kwargs["padding"]
            info = self.trace.slots[node.parents[0]]
            n, c, h, w = info.shape
            buf = self.xp.empty((n, c, h + 2 * padding, w + 2 * padding), info.dtype)
            self.xp.copyto(buf, 0.0)
            self.saved[key] = buf
        return buf

    def _scratch(self, node_index: int, name: str, shape, dtype) -> np.ndarray:
        key = (node_index, name)
        buf = self.saved.get(key)
        if buf is None:
            buf = self.xp.empty(shape, dtype)
            self.saved[key] = buf
        return buf

    def _grad_buffer(self, slot: int) -> np.ndarray:
        buf = self.grads.get(slot)
        if buf is None:
            info = self.trace.slots[slot]
            buf = self.xp.empty(info.shape, info.dtype)
            self.grads[slot] = buf
        return buf

    def _vals_buffer_for_loss(self) -> np.ndarray:
        buf = self.buffers.get(self.trace.output_slot)
        if buf is None:
            raise TraceUnsupported("loss op did not allocate a stable output buffer")
        return buf

    def _pad_fusions(self) -> Dict[int, int]:
        """ReLU outputs to write straight into a consumer conv's padded input.

        A relu whose only consumer is a padded conv2d reading it as its
        input (parent 0), and which is not the plan output, computes the
        eager ``x * (x > 0)`` into the interior of that conv's zero-bordered
        buffer, so the conv skips its interior copy.  Maps the relu's
        output slot to the conv's node index.
        """
        nodes = self.trace.nodes
        uses: Dict[int, List[Tuple[int, int]]] = {}
        for index in self.trace.forward_indices:
            for pos, parent in enumerate(nodes[index].parents):
                uses.setdefault(parent, []).append((index, pos))
        fused: Dict[int, int] = {}
        for index in self.trace.forward_indices:
            node = nodes[index]
            if node.op != "relu" or node.out == self.trace.output_slot:
                continue
            consumers = uses.get(node.out, [])
            if len(consumers) != 1:
                continue
            consumer, pos = consumers[0]
            target = nodes[consumer]
            if pos == 0 and target.op == "conv2d" and target.kwargs["padding"]:
                fused[node.out] = consumer
        return fused

    # -- compilation ---------------------------------------------------
    def _compile(self) -> None:
        for node_index in self.trace.forward_indices:
            node = self.trace.nodes[node_index]
            spec = OP_REGISTRY.get(node.op)
            if spec is None:
                raise TraceUnsupported(f"op '{node.op}' has no registered trace kernels")
            ctx = OpContext(self, node_index, backward=False)
            fn = spec.forward(self.xp, ctx)
            if all(parent in self._static for parent in node.parents):
                self._static.add(node.out)
                self._prefix_program.append(fn)
            else:
                self._forward_program.append(fn)
        for step in self.trace.backward_steps:
            node = self.trace.nodes[step.node_index]
            spec = OP_REGISTRY[node.op]
            ctx = OpContext(self, step.node_index, backward=True)
            ctx._edges = step.edges
            self._backward_program.append(spec.vjp(self.xp, ctx))

    # -- execution -----------------------------------------------------
    def bind_inputs(self, arrays: Dict[str, np.ndarray]) -> bool:
        """Bind the step inputs and run the hoisted prefix; True if it did work."""
        vals = self._vals
        for name, slot in self.trace.input_slots.items():
            vals[slot] = arrays[name]
        for fn in self._prefix_program:
            fn(vals)
        return bool(self._prefix_program)

    def forward(self, params: Sequence[np.ndarray]) -> np.ndarray:
        """Replay the forward program with ``params`` (arrays, by parameter index).

        Returns the output value, which lives in plan storage: it is
        overwritten by the next call.
        """
        vals = self._vals
        for slot, param_index in self.trace.param_slots:
            vals[slot] = params[param_index]
        for fn in self._forward_program:
            fn(vals)
        self.steps_replayed += 1
        return vals[self.trace.output_slot]

    def run(self, arrays: Dict[str, np.ndarray], params: Sequence) -> float:
        """Replay one training step; leaves gradients on ``params``."""
        vals = self._vals
        trace = self.trace
        self.bind_inputs(arrays)
        for name, slot in trace.ext_slots.items():
            vals[slot] = arrays[name]
        for slot, param_index in trace.param_slots:
            vals[slot] = params[param_index].data
        for fn in self._forward_program:
            fn(vals)
        for fn in self._backward_program:
            fn(vals)
        for slot, param_index in trace.grad_param_slots:
            params[param_index].grad = self.grads[slot]
        self.steps_replayed += 1
        return float(self._loss_buf)


# ----------------------------------------------------------------------
# Session + process-wide cache
# ----------------------------------------------------------------------
#: Shape/dtype signatures cached per model signature before new shapes
#: stop recording and run eagerly (bounds tape memory for pathological
#: loaders).  Normal training needs two — the full batch and the tail
#: batch — but a Dirichlet-partitioned federation sees one tail shape per
#: distinct shard size, so the cap leaves room for a realistic client
#: population before new shapes stop being recorded.
MAX_SIGNATURES_PER_MODEL = 24

_CACHE_LOCK = threading.Lock()
_TRACES: Dict[tuple, Union[Trace, str]] = {}
_SIGNATURE_COUNTS: Dict[object, int] = {}
_COUNTERS = {"records": 0, "replays": 0, "fallbacks": 0}
_LANE_COUNTERS = {
    "plans_recorded": 0,
    "replays": 0,
    "fallbacks": 0,
    "hoisted_batches": 0,
    "sharded_calls": 0,
    "width": 0,
}
_THREAD_PLANS = threading.local()


def trace_counters() -> Dict[str, int]:
    """Snapshot of training-step record/replay/fallback counts."""
    with _CACHE_LOCK:
        return dict(_COUNTERS)


def lane_counters() -> Dict[str, int]:
    """Snapshot of the inference lane's counters (:class:`ForwardSession`).

    ``plans_recorded`` forward-only tapes recorded and compiled;
    ``replays`` forwards served by a plan; ``fallbacks`` forwards run
    eagerly for lack of one (no ``trace_signature``, an untraceable op, the
    signature cap); ``hoisted_batches`` batch bindings whose plan ran a
    parameter-independent prefix; ``sharded_calls`` lane calls
    (:func:`~repro.fl.training.evaluate_model`,
    :func:`~repro.fl.training.predict_candidates`) that fanned their
    batches out over more than one thread, and ``width`` the shard count
    of the latest lane call (a gauge, not a count).  Kept apart from
    :func:`trace_counters`, whose keys all count training steps.
    """
    with _CACHE_LOCK:
        return dict(_LANE_COUNTERS)


def reset_trace_cache() -> None:
    """Drop every cached tape, plan and counter (test isolation hook)."""
    with _CACHE_LOCK:
        _TRACES.clear()
        _SIGNATURE_COUNTS.clear()
        for counters in (_COUNTERS, _LANE_COUNTERS):
            for key in counters:
                counters[key] = 0
    _THREAD_PLANS.__dict__.clear()


def _bump(counter: str) -> None:
    with _CACHE_LOCK:
        _COUNTERS[counter] += 1


def _bump_lane(counter: str) -> None:
    with _CACHE_LOCK:
        _LANE_COUNTERS[counter] += 1


def note_lane_width(width: int) -> None:
    """Record the shard count of one inference-lane call."""
    with _CACHE_LOCK:
        _LANE_COUNTERS["width"] = width
        if width > 1:
            _LANE_COUNTERS["sharded_calls"] += 1


def _reserve_signature(cap_key, key: tuple) -> Optional[int]:
    """Tapes already recorded under ``cap_key``, or None at the cap.

    At the cap, ``key`` is pinned to eager execution.
    """
    with _CACHE_LOCK:
        count = _SIGNATURE_COUNTS.get(cap_key, 0)
        if count >= MAX_SIGNATURES_PER_MODEL:
            _TRACES[key] = "signature cap reached"
            return None
        return count


def _store_trace(cap_key, key: tuple, trace: Trace, count: int) -> None:
    with _CACHE_LOCK:
        _TRACES[key] = trace
        _SIGNATURE_COUNTS[cap_key] = count + 1


def session_for(model) -> Optional["TraceSession"]:
    """A trace session for ``model``, or None when it declares no signature.

    Models opt in by exposing a hashable ``trace_signature`` attribute
    (the factories in :mod:`repro.models` declare one); everything else —
    generators, filter nets, ad-hoc test modules — stays eager.
    """
    signature = getattr(model, "trace_signature", None)
    if signature is None:
        return None
    return TraceSession(model, signature)


class _PlanSession:
    """Per-model-instance handle onto the process-wide trace cache.

    Tapes are shared across model instances and threads; compiled plans
    own mutable buffers, so each lives in one thread's
    :meth:`_plan_store`.  Binding a cached tape to this session's model
    only requires the parameter list to match in shape and dtype.
    """

    def __init__(self, model, signature) -> None:
        self.model = model
        self.signature = signature
        self._params = model.parameters()
        self._validated: set = set()

    def _plan_store(self) -> Dict[tuple, CompiledPlan]:
        raise NotImplementedError

    def _plan(self, key: tuple, trace: Trace) -> Optional[CompiledPlan]:
        if key not in self._validated:
            if not self._binds(trace):
                return None
            self._validated.add(key)
        plans = self._plan_store()
        plan = plans.get(key)
        if plan is None:
            try:
                plan = CompiledPlan(trace)
            except TraceUnsupported:
                return None
            plans[key] = plan
        return plan

    def _binds(self, trace: Trace) -> bool:
        for slot, param_index in trace.param_slots:
            if param_index >= len(self._params):
                return False
            info = trace.slots[slot]
            param = self._params[param_index]
            if param.data.shape != info.shape or param.data.dtype != info.dtype:
                return False
        return True


class TraceSession(_PlanSession):
    """Recorded-tape training steps for one model instance.

    Tapes are cached by ``(model signature, input/target shape+dtype)``.
    Parameter *values* are read live from ``param.data`` on every step, so
    ``set_flat_params`` swaps between rounds just work.
    """

    def _plan_store(self) -> Dict[tuple, CompiledPlan]:
        # Per thread and kept for the process: every client's local
        # training reuses the same few batch signatures.
        plans = getattr(_THREAD_PLANS, "plans", None)
        if plans is None:
            plans = {}
            _THREAD_PLANS.plans = plans
        return plans

    # -- keys ----------------------------------------------------------
    def _key(self, x: np.ndarray, y: np.ndarray) -> tuple:
        return (self.signature, x.shape, x.dtype.str, y.shape, y.dtype.str)

    # -- the public step ----------------------------------------------
    def step(self, x: np.ndarray, y: np.ndarray) -> Optional[float]:
        """Run one forward/backward for ``(x, y)``; None means "go eager".

        Returns the loss as a float when the step was handled (either by
        replaying a cached tape or by the recording step itself, which
        runs eagerly).  Gradients are left on the model parameters exactly
        as ``loss.backward()`` would leave them.
        """
        key = self._key(x, y)
        with _CACHE_LOCK:
            entry = _TRACES.get(key)
        if entry is None:
            return self._record(key, x, y)
        if isinstance(entry, str):
            return None
        plan = self._plan(key, entry)
        if plan is None:
            return None
        _bump("replays")
        return plan.run({"x": x, "y": y}, self._params)

    # -- record --------------------------------------------------------
    def _record(self, key: tuple, x: np.ndarray, y: np.ndarray) -> Optional[float]:
        count = _reserve_signature(self.signature, key)
        if count is None:
            _bump("fallbacks")
            return None
        from . import functional as F

        recorder = TraceRecorder({"x": x, "y": y})
        tensor_module._TRACE_STATE.recorder = recorder
        try:
            logits = self.model(Tensor(x))
            loss = F.cross_entropy(logits, y)
        finally:
            tensor_module._TRACE_STATE.recorder = None
        loss.backward()
        loss_value = float(loss.item())
        try:
            trace = recorder.finalize(loss, self.model)
            # Compile once eagerly so unsupported compile-time cases
            # (batched matmul broadcasts, odd dtypes) also fall back.
            plan = CompiledPlan(trace)
        except TraceUnsupported as exc:
            with _CACHE_LOCK:
                _TRACES[key] = str(exc)
                _COUNTERS["fallbacks"] += 1
            return loss_value
        _store_trace(self.signature, key, trace, count)
        _bump("records")
        self._plan_store()[key] = plan
        self._validated.add(key)
        return loss_value

    # -- introspection (tests, benchmarks) -----------------------------
    def plan_for(self, x: np.ndarray, y: np.ndarray) -> Optional[CompiledPlan]:
        """The thread-local compiled plan for this input signature, if any."""
        key = self._key(x, y)
        with _CACHE_LOCK:
            entry = _TRACES.get(key)
        if entry is None or isinstance(entry, str):
            return None
        return self._plan(key, entry)

    def fallback_reason(self, x: np.ndarray, y: np.ndarray) -> Optional[str]:
        """Why this signature is pinned to eager execution, if it is."""
        with _CACHE_LOCK:
            entry = _TRACES.get(self._key(x, y))
        return entry if isinstance(entry, str) else None


class ForwardSession(_PlanSession):
    """The inference lane: ``model(x)`` under many parameter bindings.

    :meth:`forward` evaluates the model on a batch with a given parameter
    list.  The first call on an unseen batch signature records a
    forward-only tape (eagerly, so it is also an ordinary forward); later
    calls replay its compiled plan.  The plan's parameter-independent
    prefix runs once per bound batch, so callers loop batch-major: bind a
    batch, then run every parameter set on it.  A model without a
    ``trace_signature``, or a recording that hit an untraceable op, runs
    eagerly with the parameters bound into the model.  Replay is
    bit-identical to eager ``model(Tensor(x))``.  Call under
    :class:`~repro.nn.tensor.no_grad`.

    Compiled plans belong to the session, not the thread: their buffers are
    freed with it, so they never stay resident through the rest of a round
    (compiling a cached tape costs far less than one batch's inference).
    """

    def __init__(self, model) -> None:
        super().__init__(model, getattr(model, "trace_signature", None))
        self._plans: Dict[tuple, CompiledPlan] = {}
        self._x: Optional[np.ndarray] = None
        self._bound: Optional[CompiledPlan] = None
        self._record_key: Optional[tuple] = None

    def forward(self, x: np.ndarray, params: Sequence[np.ndarray]) -> np.ndarray:
        """Model output on ``x`` with ``params`` (arrays in parameter order).

        ``x`` is bound by identity until a different array is passed, so it
        must not be mutated in between.  The returned array may be plan
        storage, valid until the next call.
        """
        if x is not self._x:
            self.bind(x)
        if self._bound is not None:
            _bump_lane("replays")
            return self._bound.forward(params)
        for param, value in zip(self._params, params):
            param.data = value
        if self._record_key is not None:
            return self._record(x)
        _bump_lane("fallbacks")
        return self.model(Tensor(x)).data

    def _plan_store(self) -> Dict[tuple, CompiledPlan]:
        return self._plans

    def _key(self, x: np.ndarray) -> tuple:
        return ("forward", self.signature, x.shape, x.dtype.str)

    def bind(self, x: np.ndarray) -> None:
        """Bind batch ``x`` ahead of :meth:`forward`.

        Fetches (compiling if needed) the batch signature's plan and runs
        its parameter-independent prefix on ``x``; an unseen signature is
        recorded by the next :meth:`forward`.  :meth:`forward` binds on
        its own, so this only lets a caller choose *where* that work and
        its allocations happen — the sharded lanes bind each helper
        thread's first batch on the calling thread.
        """
        self._x, self._bound, self._record_key = x, None, None
        if self.signature is None:
            return
        key = self._key(x)
        with _CACHE_LOCK:
            entry = _TRACES.get(key)
        if entry is None:
            self._record_key = key
        elif not isinstance(entry, str):
            self._attach(self._plan(key, entry), x)

    def _attach(self, plan: Optional[CompiledPlan], x: np.ndarray) -> None:
        if plan is not None and plan.bind_inputs({"x": x}):
            _bump_lane("hoisted_batches")
        self._bound = plan

    def _record(self, x: np.ndarray) -> np.ndarray:
        key, self._record_key = self._record_key, None
        cap_key = key[:2]
        count = _reserve_signature(cap_key, key)
        if count is None:
            _bump_lane("fallbacks")
            return self.model(Tensor(x)).data
        recorder = TraceRecorder({"x": x})
        tensor_module._TRACE_STATE.recorder = recorder
        try:
            output = self.model(Tensor(x))
        finally:
            tensor_module._TRACE_STATE.recorder = None
        try:
            trace = recorder.finalize(output, self.model, forward_only=True)
            plan = CompiledPlan(trace)
        except TraceUnsupported as exc:
            with _CACHE_LOCK:
                _TRACES[key] = str(exc)
            _bump_lane("fallbacks")
            return output.data
        _store_trace(cap_key, key, trace, count)
        _bump_lane("plans_recorded")
        self._plans[key] = plan
        self._validated.add(key)
        self._attach(plan, x)
        return output.data

    # -- introspection (tests) -----------------------------------------
    def plan_for(self, x: np.ndarray) -> Optional[CompiledPlan]:
        """The thread-local forward-only plan for this batch signature, if any."""
        key = self._key(x)
        with _CACHE_LOCK:
            entry = _TRACES.get(key)
        if entry is None or isinstance(entry, str):
            return None
        return self._plan(key, entry)


# Kernel registrations live in trace_ops; importing it populates
# OP_REGISTRY.  The import sits at the bottom because trace_ops imports
# register_trace_op from this module.
from . import trace_ops as _trace_ops  # noqa: E402,F401  (registration side effect)
