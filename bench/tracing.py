"""Spans around calls into the mdmixer modules, and the stage replay.

Everything here acts from outside the program: functions are looked up by
name at run time and wrapped or called; nothing in ``src/`` knows about
it. A name the program no longer exposes is reported as absent.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# Functions wrapped during traced sessions, as (module, attribute). The
# private reverse-pass helpers only split training.backward in the trace
# table; the per-layer metrics do not depend on them.
IN_RUN = [
    ("preprocess", "instance_normalize"),
    ("preprocess", "decompose"),
    ("preprocess", "patch"),
    ("model", "forward_with_context"),
    ("baselines", "baseline_forward_with_context"),
    ("training", "backward"),
    ("training", "alignment_targets"),
    ("training", "adamw_step"),
    ("training", "_mim_backward"),
    ("training", "_embed_backward"),
    ("evaluation", "predict"),
]
FORWARD_SPANS = ("model.forward_with_context",
                 "baselines.baseline_forward_with_context")
PACKAGE = "mdmixer"


class Tracer:
    """In-memory span recorder. Span i has a name, start and end in ns, the
    index of its parent span (-1 at the top) and a row count. Spans are
    kept as columns of plain values, so the garbage collector has no
    per-span object to scan while the program runs."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}

    def _record(self, name: str, start: int, end: int, rows: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sizes.append(rows)
        return len(self.names) - 1

    def _open(self, name: str, rows: int) -> int:
        index = self._record(name, time.perf_counter_ns(), 0, rows)
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, rows: int = 0):
        if not self.enabled:
            yield
            return
        index = self._open(name, rows)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rows = len(args[0]) if args and isinstance(args[0], np.ndarray) else 0
            index = self._open(name, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        traced.__wrapped__ = fn
        return traced

    def _wrap_batches(self, fn):
        """Time each permuted batch a training step waits for."""
        tracer = self

        def batches(self, batch_size, order=None):
            it = fn(self, batch_size, order)
            while True:
                start = time.perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                if order is not None:
                    tracer._record("data.gather", start, time.perf_counter_ns(),
                                   len(item[0]))
                yield item
        batches.__wrapped__ = fn
        return batches

    def install(self):
        """Wrap every IN_RUN function wherever an mdmixer module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in IN_RUN:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(owner, attr, None)
            if original is None:
                self.absent[f"{module_name}.{attr}"] = "not exposed"
                continue
            wrapped = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapped)
        data = sys.modules[f"{PACKAGE}.data"]
        batch_cls = getattr(data, "WindowBatch", None)
        if batch_cls is not None and hasattr(batch_cls, "batches"):
            original = batch_cls.batches
            self._patched.append((batch_cls, "batches", original))
            batch_cls.batches = self._wrap_batches(original)
        self.enabled = True

    def uninstall(self):
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()
        self.enabled = False

    # -- statistics -------------------------------------------------------

    def _ms(self, i: int) -> float:
        return (self.ends[i] - self.starts[i]) / 1e6

    def _select(self, name: str, parent_not: str | None) -> list[int]:
        return [i for i, (n, p) in enumerate(zip(self.names, self.parents))
                if n == name and not (parent_not is not None and p >= 0
                                      and self.names[p] == parent_not)]

    def durations_ms(self, name: str, parent_not: str | None = None) -> list[float]:
        return [self._ms(i) for i in self._select(name, parent_not)]

    def rows(self, name: str, parent_not: str | None = None) -> int:
        return sum(self.sizes[i] for i in self._select(name, parent_not))

    def reverse_ms(self) -> list[float]:
        """training.backward minus the forward pass it runs."""
        total = {i: self._ms(i) for i in self._select("training.backward", None)}
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name in FORWARD_SPANS and parent in total:
                total[parent] -= self._ms(i)
        return list(total.values())

    def table(self) -> list[tuple[str, int, float, float, float]]:
        """(name, count, median ms, median self ms, total self s) per name.
        Self time is a span's duration minus the time its direct children
        cover (children of one span never overlap: the program is one
        thread)."""
        own = [self._ms(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self._ms(i)
        by_name: dict[str, tuple[list[float], list[float]]] = {}
        for i, name in enumerate(self.names):
            durs, selfs = by_name.setdefault(name, ([], []))
            durs.append(self._ms(i))
            selfs.append(own[i])
        return [(name, len(d), statistics.median(d), statistics.median(s),
                 sum(s) / 1e3) for name, (d, s) in sorted(by_name.items())]

    def dump(self) -> dict:
        return {"name": self.names, "start_ns": self.starts, "end_ns": self.ends,
                "parent": self.parents, "rows": self.sizes, "absent": self.absent}


def _resolve(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        raise LookupError(f"{module.__name__}.{name} is not exposed")
    return fn


def _stage_timer(times: dict[str, float], absent: dict[str, str]):
    """stage(metric, module, name, call, stand_in) resolves ``name`` in
    ``module``, times ``call(fn)`` into ``times[metric]`` and returns its
    output. A stage that is missing or whose call no longer fits is
    recorded in ``absent`` and returns ``stand_in()`` instead."""
    def stage(metric, fn_module, fn_name, call, stand_in):
        try:
            fn = _resolve(fn_module, fn_name)
            start = time.perf_counter_ns()
            out = call(fn)
            times[metric] = times.get(metric, 0.0) \
                + (time.perf_counter_ns() - start) / 1e6
            return out
        except (LookupError, TypeError, KeyError, ValueError, AttributeError) as exc:
            absent[metric] = f"{type(exc).__name__}: {exc}"
            return stand_in()
    return stage


# Replayed metrics of the baselines path; every other one is mdmixer's.
BASELINE_STAGES = ("baselines.forward", "baselines.backward")


def baseline_stages(mods, x, y, cfg, params, absent: dict[str, str]) -> dict[str, float]:
    """Time the baseline's forward and backward once on one batch, in ms."""
    times: dict[str, float] = {}
    stage = _stage_timer(times, absent)
    x = np.ascontiguousarray(x, dtype=params.dtype)
    stage("baselines.forward", mods.baselines, "baseline_forward",
          lambda fn: fn(x, params, cfg), lambda: None)
    stage("baselines.backward", mods.training, "backward",
          lambda fn: fn(x, y, params, cfg), lambda: None)
    return times


def model_stages(mods, x, y, model_cfg, model_params,
                 absent: dict[str, str]) -> dict[str, float]:
    """Time every mdmixer stage function once on one batch, in ms per
    forward pass.

    Each stage is looked up by name. A stage that is missing or whose
    call no longer fits is recorded in ``absent``; the stages after it
    get inputs of the documented shape instead of its output.
    """
    pre, model, training = mods.preprocess, mods.model, mods.training
    b, _, c = x.shape
    f, heads = model_cfg.horizon, model_cfg.num_heads
    schedule = [f // heads * i for i in range(1, heads + 1)]
    n, d, p = model_cfg.num_patches, model_cfg.embed_dim, model_cfg.patch_len
    dtype = model_params.dtype
    x = np.ascontiguousarray(x, dtype=dtype)
    times: dict[str, float] = {}
    stage = _stage_timer(times, absent)

    zeros = lambda *shape: np.zeros(shape, dtype=dtype)  # noqa: E731
    x_norm = stage("preprocess.instance_normalize", pre, "instance_normalize",
                   lambda fn: fn(x)[0], lambda: x)
    parts = stage("preprocess.decompose", pre, "decompose",
                  lambda fn: fn(x_norm, model_cfg.kernel),
                  lambda: None)
    seasonal = parts.seasonal if parts is not None else x_norm
    trend = parts.trend if parts is not None else x_norm
    patches = [stage("preprocess.patch", pre, "patch",
                     lambda fn, part=part: fn(part, p, model_cfg.stride).patches,
                     lambda: zeros(b, c, n, p))
               for part in (seasonal, trend)]
    xd = [stage("model.embed", model, "embed",
                lambda fn, ps=ps, br=br: fn(ps, model_params[f"embed_{br}.weight"],
                                            model_params[f"embed_{br}.bias"],
                                            model_params[f"pos_{br}"]),
                lambda: zeros(b, c, n, d))
          for ps, br in zip(patches, "st")]
    u_s, u_t = (e.reshape(b, c, -1) for e in xd)
    z_stand_in = lambda: [zeros(b, c, g) for g in schedule]  # noqa: E731
    z_s = stage("model.season_heads", model, "mpp_seasonal",
                lambda fn: fn(u_s, model_params, schedule), z_stand_in)
    z_t = stage("model.trend_heads", model, "mpp_trend",
                lambda fn: fn(u_t, model_params, schedule), z_stand_in)
    mixed = []
    for z, br in ((z_s, "s"), (z_t, "t")):
        def mix(fn, z=z, br=br):
            return fn(z, [(model_params[f"mixer_{br}_{i}.weight"],
                           model_params[f"mixer_{br}_{i}.bias"])
                          for i in range(2, heads + 1)])
        mixed.append(stage("model.mim", model, "mim", mix, lambda z=z: z))
    y_sum = [a + bb for a, bb in zip(*mixed)]
    ups = [stage("model.upsample", model, "upsample",
                 lambda fn, yy=yy: fn(yy, f), lambda: zeros(b, c, f))
           for yy in y_sum]
    weights = stage("model.amwg", model, "amwg_weights",
                    lambda fn: fn(xd[0], xd[1], model_params, heads),
                    lambda: np.full((b, heads, c), 1.0 / heads, dtype=dtype))
    stage("model.fuse", model, "fuse", lambda fn: fn(ups, weights), lambda: None)
    stage("model.check_params", model, "check_params_match",
          lambda fn: fn(model_params, model_cfg), lambda: None)
    stage("model.forward", model, "forward",
          lambda fn: fn(x, model_params, model_cfg), lambda: None)
    stage("training.alignment_targets", training, "alignment_targets",
          lambda fn: fn(y, schedule), lambda: None)
    if "model.forward" in times:
        parts_ms = sum(v for k, v in times.items() if k.startswith(
            ("preprocess.", "model.")) and k not in ("model.forward",
                                                     "model.check_params"))
        times["model.forward_glue"] = times["model.forward"] - parts_ms
    return times
