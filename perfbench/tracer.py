"""Spans and counters recorded from outside the program.

The tracer replaces public functions and methods of the rtslab modules with
timing wrappers for the duration of a ``with tracer.installed():`` block and
puts the originals back afterwards. Nothing under ``src/`` is edited: a
function imported by name into several modules (``from .engine import
sample_timeline``) is replaced in every rtslab module namespace that holds
the same object, so each call site goes through the wrapper.

Each wrapped call is one span (id, parent id, operation id, name, start,
end). Spans are kept in memory; per-name call counts, busy (inclusive) time
and self time (busy minus direct child spans) are accumulated as they close.
"""

from __future__ import annotations

import logging
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import rtslab.baselines
import rtslab.checkpoint
import rtslab.sim.dataset
import rtslab.sim.encode
import rtslab.sim.engine
import rtslab.tensor
import rtslab.train.loop
import rtslab.train.loss
import rtslab.train.optim
import rtslab.train.stratified
from rtslab.model import WinPredictor
from rtslab.sim.strategies import REGISTRY

PHASES = ("attack", "harvest", "deposit", "build", "train", "move")
STRATEGIES = tuple(REGISTRY)


class Tracer:
    """Spans, per-name busy/self time and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.step_ms: list[float] = []
        self.op_id = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._tape_depth = 0
        self._step_start: float | None = None
        self._restore: list = []

    # -- spans -----------------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return sid, parent, perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = perf_counter()
        child = self._stack.pop()[1]
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_s[name] += dur - child
        self.spans.append((sid, parent, self.op_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, sid, parent, start)

    def wrap(self, fn, name, after=None):
        """Span around `fn`; `name` may be a callable of the call's arguments.
        `after(args, kwargs, result)` runs once the span has closed."""

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(label, sid, parent, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _replace_function(self, module, attr: str, wrapper) -> None:
        orig = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rtslab" and not mod_name.startswith("rtslab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _function(self, module, attr, name, after=None):
        self._replace_function(module, attr, self.wrap(getattr(module, attr), name, after))

    def _method(self, cls, attr, name, after=None):
        self._replace_method(cls, attr, self.wrap(cls.__dict__[attr], name, after))

    @contextmanager
    def installed(self):
        """Wrap every traced boundary; restore the originals on exit."""
        engine_log = rtslab.sim.engine.log
        handler = _DropCounter(self.counts)
        saved_log = (engine_log.level, engine_log.propagate)
        try:
            self._install()
            engine_log.addHandler(handler)
            engine_log.setLevel(logging.DEBUG)
            engine_log.propagate = False
            yield self
        finally:
            engine_log.removeHandler(handler)
            engine_log.setLevel(saved_log[0])
            engine_log.propagate = saved_log[1]
            for owner, attr, orig in reversed(self._restore):
                setattr(owner, attr, orig)
            self._restore.clear()

    def _install(self) -> None:
        sim, enc, ds = rtslab.sim.engine, rtslab.sim.encode, rtslab.sim.dataset
        counts = self.counts

        # rtslab.sim -----------------------------------------------------------
        orig_step = sim.step

        def step_with_events(*args, **kwargs):
            # pass an events list so applied actions are counted exactly;
            # the engine only appends to it, the state it returns is unchanged
            events: list = []
            state = orig_step(*args, events=events, **kwargs)
            counts["sim.actions.applied"] += len(events)
            return state

        self._replace_function(sim, "step", self.wrap(step_with_events, "sim.step"))

        def planned(args, kwargs, result):
            counts["sim.actions.planned"] += len(result)
            counts[f"sim.actions.planned.{args[0].name}"] += len(result)

        seen = set()
        for cls in REGISTRY.values():
            for klass in cls.__mro__:
                if "plan" in klass.__dict__ and klass not in seen:
                    seen.add(klass)
                    self._method(klass, "plan", "sim.plan", planned)
        self._function(enc, "raw_planes", "sim.raw_planes")
        self._function(enc, "decode_planes", "sim.decode_planes")
        self._function(sim, "sample_timeline", "sim.sample_timeline")
        self._function(ds, "write_dataset", "sim.dataset.write",
                       self._file_bytes("sim.dataset.write.bytes"))
        self._function(ds, "read_dataset", "sim.dataset.read",
                       self._file_bytes("sim.dataset.read.bytes"))

        # rtslab.tensor ----------------------------------------------------------
        tape_cls = rtslab.tensor.Tape

        def nodes(args, kwargs, result):
            counts["tensor.tape.nodes"] += len(args[0])

        self._method(tape_cls, "backward", "tensor.backward", nodes)
        self._function(rtslab.tensor, "layer_norm", "tensor.layer_norm")
        enter, exit_ = tape_cls.__dict__["__enter__"], tape_cls.__dict__["__exit__"]

        def tape_enter(tape):
            self._tape_depth += 1
            self._step_start = perf_counter()
            return enter(tape)

        def tape_exit(tape, *exc):
            self._tape_depth -= 1
            return exit_(tape, *exc)

        self._replace_method(tape_cls, "__enter__", tape_enter)
        self._replace_method(tape_cls, "__exit__", tape_exit)

        # rtslab.model -------------------------------------------------------------
        def forward_kind(args):
            if self._tape_depth:
                return "model.forward.train_b2"
            return "model.forward.infer_b1" if len(args[1]) == 1 else "model.forward.infer_batch"

        self._method(WinPredictor, "forward", forward_kind)

        # rtslab.train -------------------------------------------------------------
        def step_done(args, kwargs, result):
            if self._step_start is not None:
                self.step_ms.append((perf_counter() - self._step_start) * 1e3)
                self._step_start = None

        adamw = rtslab.train.optim.AdamW
        self._method(adamw, "step", "train.optimizer")
        self._method(adamw, "zero_grad", "train.optimizer", step_done)
        self._function(rtslab.train.loss, "bce_loss", "train.loss")
        self._function(rtslab.train.loop, "dataset_to_examples", "train.examples")
        self._function(rtslab.train.loop, "evaluate_accuracy", "train.validation")
        self._function(rtslab.train.stratified, "progress_stratified_eval", "train.stratified")

        # rtslab.baselines -----------------------------------------------------------
        self._function(rtslab.baselines, "simple_eval", "baselines.eval")
        self._function(rtslab.baselines, "lanchester_eval", "baselines.eval")

        # rtslab.checkpoint ------------------------------------------------------------
        ckpt_bytes = self._file_bytes("checkpoint.bytes")
        self._function(rtslab.checkpoint, "save_checkpoint", "checkpoint.save", ckpt_bytes)
        self._function(rtslab.checkpoint, "load_checkpoint", "checkpoint.load", ckpt_bytes)

    def _file_bytes(self, key: str):
        def after(args, kwargs, result):
            self.counts[key] += os.path.getsize(args[0] if args else kwargs["path"])

        return after

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        out: dict[str, tuple[float, str]] = {}
        c, busy, calls = self.counts, self.busy, self.calls

        def count(name, value):
            out[name] = (value, "count")

        def seconds(name, value):
            out[name] = (value, "s")

        for name in ("sim.step", "sim.raw_planes", "sim.sample_timeline", "sim.decode_planes"):
            count(f"{name}.calls", calls[name])
            seconds(f"{name}.busy_s", busy[name])
        seconds("sim.plan.busy_s", busy["sim.plan"])
        for rw in ("write", "read"):
            seconds(f"sim.dataset.{rw}.busy_s", busy[f"sim.dataset.{rw}"])
            out[f"sim.dataset.{rw}.bytes"] = (c[f"sim.dataset.{rw}.bytes"], "bytes")
        planned, applied = c["sim.actions.planned"], c["sim.actions.applied"]
        count("sim.actions.planned", planned)
        for strategy in STRATEGIES:
            count(f"sim.actions.planned.{strategy}", c[f"sim.actions.planned.{strategy}"])
        count("sim.actions.applied", applied)
        logged = 0
        for phase in PHASES + ("merge",):
            logged += c[f"sim.actions.dropped.{phase}"]
            count(f"sim.actions.dropped.{phase}", c[f"sim.actions.dropped.{phase}"])
        # dropped without a log line: duplicate orders for one unit, and
        # attacks/builds/trains whose actor or target is gone
        count("sim.actions.dropped.unlogged", planned - applied - logged)
        out["sim.actions.applied_ratio"] = (applied / planned if planned else 0.0, "ratio")

        backwards = calls["tensor.backward"]
        count("tensor.backward.calls", backwards)
        seconds("tensor.backward.busy_s", busy["tensor.backward"])
        count("tensor.tape.nodes_per_step", c["tensor.tape.nodes"] / backwards if backwards else 0)
        count("tensor.layer_norm.calls", calls["tensor.layer_norm"])
        seconds("tensor.layer_norm.busy_s", busy["tensor.layer_norm"])

        for kind in ("train_b2", "infer_batch", "infer_b1"):
            count(f"model.forward.{kind}.calls", calls[f"model.forward.{kind}"])
            seconds(f"model.forward.{kind}.busy_s", busy[f"model.forward.{kind}"])

        count("train.steps", len(self.step_ms))
        for q, label in ((50, "p50"), (99, "p99")):
            out[f"train.step_ms.{label}"] = (_percentile(self.step_ms, q), "ms")
        for name in ("optimizer", "loss", "examples", "validation", "stratified"):
            seconds(f"train.{name}.busy_s", busy[f"train.{name}"])

        count("baselines.eval.calls", calls["baselines.eval"])
        seconds("baselines.eval.busy_s", busy["baselines.eval"])

        seconds("checkpoint.save.busy_s", busy["checkpoint.save"])
        seconds("checkpoint.load.busy_s", busy["checkpoint.load"])
        out["checkpoint.bytes"] = (c["checkpoint.bytes"], "bytes")

        for command in ("generate", "train", "compare", "timeline"):
            seconds(f"cli.{command}.wall_s", busy[f"cli.{command}"])
            seconds(f"cli.{command}.self_s", self.self_s[f"cli.{command}"])
        return out


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


class _DropCounter(logging.Handler):
    """Counts the engine's 'dropping ...' debug records by phase.

    Invalid actions inside a phase log "dropping invalid <phase> ..." (build
    and train share one template with the phase as first argument); actions
    rejected while merging the two plans (unknown kind, foreign or empty
    actor cell) count as phase "merge".
    """

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        if not msg.startswith("dropping"):
            return
        phase = "merge"
        if msg.startswith("dropping invalid "):
            word = msg.split()[2]
            phase = str(record.args[0]) if word == "%s" else word
        self.counts[f"sim.actions.dropped.{phase}"] += 1

