"""Per-layer tracing from outside the library.

The tracer replaces library functions and methods with timing wrappers:
a module-level function is replaced under every name any ``burstfold``
module binds it to, a method on its class.  Each wrapped call records a
span (id, parent id, request id, phase, name, start, end) in memory; the
spans are written out once, at the end of the run.  Self time is a span's
duration minus the time its child spans cover.  ``Field.mul`` and
``Field.add`` are called millions of times, so they are counted and timed
but keep no span.

A target that no longer exists (renamed, merged or removed by a refactor),
or whose arguments or result no longer fit its counting hook, is reported
as missing, and so is every metric that depends only on missing targets;
the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TIMED_PHASES = ("encode", "batch", "single")
DECODE_ENTRIES = ("rs.wu_decode", "decoders.unique", "decoders.list",
                  "hermitian.decode")


@dataclass
class Stat:
    calls: int = 0
    rows: int = 0
    self_ns: int = 0
    total_ns: int = 0
    extra: dict = field(default_factory=lambda: defaultdict(int))


@dataclass(frozen=True)
class Layer:
    """A span name, the library objects it wraps ("module:Class.attr"),
    where the batch argument sits (index, ndim of a batch) for row counts,
    and optional hooks: pre(tracer, args) before the call, whose result is
    handed to hook(tracer, stat, target, args, result, pre_result) after."""
    name: str
    targets: tuple[str, ...]
    rows: tuple[int, int] | None = None
    leaf: bool = False
    pre: Callable | None = None
    hook: Callable | None = None


def _batch_rows(arg, batch_ndim: int) -> int:
    ndim = getattr(arg, "ndim", 0)
    return int(arg.shape[0]) if ndim == batch_ndim else 1


def _cache_len(obj):
    """Entries in the object's window caches; None when it keeps none."""
    sizes = [len(v) for k, v in getattr(obj, "__dict__", {}).items()
             if "window_cache" in k and isinstance(v, dict)]
    return sum(sizes) if sizes else None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []     # open spans: [id, child_ns, name]
        self.stats: dict[str, dict[str, Stat]] = defaultdict(
            lambda: defaultdict(Stat))
        self.phase = "setup"
        self.counts: dict[str, int] = defaultdict(int)
        self.found: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = 0

    # -- installing wrappers --

    def install(self, layers) -> None:
        for layer in layers:
            self.found[layer.name] = 0
            for target in layer.targets:
                if self._wrap_target(layer, target):
                    self.found[layer.name] += 1
                else:
                    self.missing.append(target)

    def _wrap_target(self, layer: Layer, target: str) -> bool:
        modname, path = target.split(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                return False
        orig = vars(owner).get(attr)
        if not callable(orig):
            return False
        wrapped = self._wrapper(layer, target, orig)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] == "burstfold":
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, wrapped)
        return True

    def _wrapper(self, layer: Layer, target: str, orig):
        clock = time.perf_counter_ns
        stack = self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kw):
            self._ids += 1
            frame = [self._ids, 0, layer.name]
            parent = stack[-1][0] if stack else None
            ctx = layer.pre(self, args) if layer.pre is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                res = orig(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = self.stats[self.phase][layer.name]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]
                if not layer.leaf:
                    request = stack[0][0] if stack else None
                    self.spans.append((frame[0], parent, request, self.phase,
                                       layer.name, t0, t1))
            if layer.rows is not None and len(args) > layer.rows[0]:
                st.rows += _batch_rows(args[layer.rows[0]], layer.rows[1])
            if layer.hook is not None and target not in self.missing:
                try:
                    layer.hook(self, st, target, args, res, ctx)
                except (TypeError, ValueError, IndexError, AttributeError):
                    # the target changed shape: its counts are no longer
                    # meaningful, so report it like a vanished name
                    self.missing.append(target)
                    self.found[layer.name] -= 1
            return res
        return wrapper

    # -- requests and queries --

    @contextlib.contextmanager
    def request(self, label: str):
        """A root span around one call into the library."""
        self._ids += 1
        frame = [self._ids, 0, label]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans.append((frame[0], None, frame[0], self.phase, label,
                               t0, time.perf_counter_ns()))

    def inside(self, *names) -> bool:
        return any(f[2] in names for f in self.stack)

    def total(self, name: str, phases=TIMED_PHASES) -> Stat:
        out = Stat()
        for ph in phases:
            st = self.stats[ph].get(name)
            if st is None:
                continue
            out.calls += st.calls
            out.rows += st.rows
            out.self_ns += st.self_ns
            out.total_ns += st.total_ns
            for k, v in st.extra.items():
                out.extra[k] += v
        return out

    def write(self, path) -> None:
        keys = ("id", "parent", "request", "phase", "name", "start_ns",
                "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens
# ---------------------------------------------------------------------------

def _mul_sizes(tr, st, target, args, res, ctx):
    st.extra["elems"] += int(getattr(res, "size", 1))
    st.extra["bytes"] += sum(int(getattr(x, "nbytes", 0))
                             for x in (*args[1:3], res))


def _point_levels(tr, st, target, args, res, ctx):
    st.extra["point_levels"] += args[1].size * args[2]


def _in_decode(tr, st, target, args, res, ctx):
    if tr.inside(*DECODE_ENTRIES):
        st.extra["in_decode"] += 1


def _window_size(tr, args):
    return _cache_len(args[0] if args else None)


def _window(tr, st, target, args, res, before):
    after = _cache_len(args[0])
    miss = after is None or after > (before or 0)
    st.extra["misses"] += miss
    st.extra["reerase"] += (target.endswith(":plan_cyclic_window_tables")
                            and tr.inside("decoders.unique"))
    tr.counts["list_windows"] += tr.inside("decoders.list")


def _erasure_ok(tr, st, target, args, res, ctx):
    st.extra["ok_rows"] += int(np.sum(res[2]))


def _row_failures(tr, st, target, args, res, ctx):
    if tr.inside("decoders.unique"):
        st.extra["rows_failed"] += sum(o.status != "ok" for o in res)


def _list_windows(tr, args):
    return tr.counts["list_windows"]


def _list_kept(tr, st, target, args, res, windows_before):
    batch = args[3].ndim == 2
    words = args[3].shape[0] if batch else 1
    lists = res if batch else [res]
    windows = tr.counts["list_windows"] - windows_before
    st.extra["windows"] += windows
    st.extra["trials"] += windows * words
    st.extra["kept"] += sum(len(x) for x in lists)


LAYERS = [
    Layer("fields.mul", ("burstfold.fields:Field.mul",), leaf=True,
          hook=_mul_sizes),
    Layer("fields.add", ("burstfold.fields:Field.add",), leaf=True),
    Layer("gfft.forward", ("burstfold.gfft:GfftPlan.forward",), rows=(1, 2)),
    Layer("gfft.inverse", ("burstfold.gfft:GfftPlan.inverse",), rows=(1, 2)),
    Layer("gfft.tau_forward", ("burstfold.gfft:GfftPlan.tau_forward",),
          rows=(2, 2)),
    Layer("gfft.tau_inverse", ("burstfold.gfft:GfftPlan.tau_inverse",),
          rows=(2, 3)),
    Layer("gfft.composite_derivative",
          ("burstfold.gfft:composite_derivative",), rows=(1, 2)),
    Layer("gfft.butterfly", ("burstfold.gfft:GfftPlan._ascend",
                             "burstfold.gfft:GfftPlan._descend"),
          hook=_point_levels),
    Layer("gfft.plan_build", ("burstfold.gfft:plan_build",), hook=_in_decode),
    Layer("rs.syndrome", ("burstfold.rs:_syndromes",)),
    Layer("rs.check_polynomial", ("burstfold.rs:check_polynomial",)),
    Layer("rs.root_mask", ("burstfold.rs:_root_mask",)),
    Layer("rs.run_scan", ("burstfold.rs:_cyclic_runs",)),
    Layer("rs.window_tables", ("burstfold.rs:RsCode._window_tables",
                               "burstfold.rs:plan_window_tables",
                               "burstfold.rs:plan_cyclic_window_tables"),
          pre=_window_size, hook=_window),
    Layer("rs.erasure_fill", ("burstfold.rs:erasure_fill_batch",),
          rows=(1, 2), hook=_erasure_ok),
    Layer("rs.wu_decode", ("burstfold.rs:wu_decode_batch",),
          hook=_row_failures),
    Layer("decoders.unique",
          ("burstfold.decoders:interleaved_unique_decode",)),
    Layer("decoders.list", ("burstfold.decoders:interleaved_list_decode",),
          pre=_list_windows, hook=_list_kept),
    Layer("decoders.burst_check", ("burstfold.decoders:_burst_within",)),
    Layer("hermitian.curve", ("burstfold.hermitian:HermitianCurve.__init__",)),
    Layer("hermitian.code", ("burstfold.hermitian:HermitianCode.__init__",)),
    Layer("hermitian.encode", ("burstfold.hermitian:HermitianCode.encode",)),
    Layer("hermitian.decode", ("burstfold.hermitian:ag_unique_decode_batch",)),
]


def cache_footprint(*roots) -> tuple[int, int]:
    """(entries, bytes) of every window cache reachable from the roots
    through library objects and the containers they hold."""
    seen: set[int] = set()
    todo = list(roots)
    entries = nbytes = 0
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo.extend(obj)
            continue
        if (id(obj) in seen or not hasattr(obj, "__dict__")
                or not type(obj).__module__.startswith("burstfold")):
            continue
        seen.add(id(obj))
        for k, v in vars(obj).items():
            if isinstance(v, dict):
                if "window_cache" in k:
                    entries += len(v)
                    nbytes += sum(int(getattr(a, "nbytes", 0))
                                  for val in v.values() for a in val)
                todo.extend(v.values())
            else:
                todo.append(v)
    return entries, nbytes


def _per_call(total, calls):
    return total / calls if calls else 0.0


# (metric, unit, layer, value from the layer's Stat summed over the timed
# phases[, a single target the metric needs])
PER_LAYER = [
    ("fields.mul.calls", "count", "fields.mul", lambda s: s.calls),
    ("fields.mul.elems", "count", "fields.mul", lambda s: s.extra["elems"]),
    # operand and result array sizes at the call, not a hardware count
    ("fields.mul.bytes_computed", "B", "fields.mul",
     lambda s: s.extra["bytes"]),
    ("fields.mul.self_s", "s", "fields.mul", lambda s: s.self_ns / 1e9),
    ("fields.add.calls", "count", "fields.add", lambda s: s.calls),
    *[(f"gfft.{op}.{key}", unit, f"gfft.{op}", fn)
      for op in ("forward", "inverse", "tau_forward", "tau_inverse")
      for key, unit, fn in (("calls", "count", lambda s: s.calls),
                            ("rows", "count", lambda s: s.rows),
                            ("self_s", "s", lambda s: s.self_ns / 1e9))],
    ("gfft.composite_derivative.self_s", "s", "gfft.composite_derivative",
     lambda s: s.self_ns / 1e9),
    ("gfft.butterfly.ns_per_point_level", "ns", "gfft.butterfly",
     lambda s: _per_call(s.total_ns, s.extra["point_levels"])),
    ("gfft.plan_build.calls_in_decode", "count", "gfft.plan_build",
     lambda s: s.extra["in_decode"]),
    ("rs.syndrome.self_s", "s", "rs.syndrome", lambda s: s.self_ns / 1e9),
    ("rs.check_polynomial.self_s", "s", "rs.check_polynomial",
     lambda s: s.self_ns / 1e9),
    ("rs.root_mask.self_s", "s", "rs.root_mask", lambda s: s.self_ns / 1e9),
    ("rs.run_scan.self_s", "s", "rs.run_scan", lambda s: s.self_ns / 1e9),
    ("rs.window_tables.calls", "count", "rs.window_tables",
     lambda s: s.calls),
    ("rs.window_tables.misses", "count", "rs.window_tables",
     lambda s: s.extra["misses"]),
    ("rs.window_tables.self_s", "s", "rs.window_tables",
     lambda s: s.self_ns / 1e9),
    ("rs.erasure_fill.calls", "count", "rs.erasure_fill", lambda s: s.calls),
    ("rs.erasure_fill.rows", "count", "rs.erasure_fill", lambda s: s.rows),
    ("rs.erasure_fill.rows_per_call", "rows/call", "rs.erasure_fill",
     lambda s: _per_call(s.rows, s.calls)),
    ("rs.erasure_fill.ok_frac", "frac", "rs.erasure_fill",
     lambda s: _per_call(s.extra["ok_rows"], s.rows)),
    ("rs.erasure_fill.self_s", "s", "rs.erasure_fill",
     lambda s: s.self_ns / 1e9),
    ("rs.wu_decode.self_s", "s", "rs.wu_decode", lambda s: s.self_ns / 1e9),
    ("decoders.unique.self_s", "s", "decoders.unique",
     lambda s: s.self_ns / 1e9),
    ("decoders.row_decode.rows_failed", "count", "rs.wu_decode",
     lambda s: s.extra["rows_failed"]),
    ("decoders.reerase.words", "count", "rs.window_tables",
     lambda s: s.extra["reerase"], "burstfold.rs:plan_cyclic_window_tables"),
    ("decoders.list.self_s", "s", "decoders.list", lambda s: s.self_ns / 1e9),
    ("decoders.list.windows", "count", "decoders.list",
     lambda s: s.extra["windows"]),
    ("decoders.list.kept_frac", "frac", "decoders.list",
     lambda s: _per_call(s.extra["kept"], s.extra["trials"])),
    ("decoders.burst_check.self_s", "s", "decoders.burst_check",
     lambda s: s.self_ns / 1e9),
    ("hermitian.encode.self_s", "s", "hermitian.encode",
     lambda s: s.self_ns / 1e9),
    ("hermitian.decode.self_s", "s", "hermitian.decode",
     lambda s: s.self_ns / 1e9),
]


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str, bool]]:
    """metric -> (value, unit, missing); a missing metric reads 0."""
    out = {}
    for name, unit, layer, fn, *needs in PER_LAYER:
        missing = (not tr.found.get(layer)
                   or any(t in tr.missing for t in needs))
        out[name] = (0 if missing else fn(tr.total(layer)), unit, missing)
    no_windows = not tr.found.get("rs.window_tables")
    for ph in ("warm", "batch", "single"):
        st = tr.stats[ph].get("rs.window_tables", Stat())
        out[f"rs.window_tables.hit_frac.{ph}"] = (
            _per_call(st.calls - st.extra["misses"], st.calls), "frac",
            no_windows)
    for layer in ("hermitian.curve", "hermitian.code"):
        st = tr.total(layer, tuple(tr.stats))
        out[f"{layer}.s"] = (_per_call(st.total_ns, st.calls) / 1e9, "s",
                             not tr.found.get(layer))
    return out
