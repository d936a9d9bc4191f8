"""The traced pass: spans around rtsim's public functions, grouped by layer.

Wrappers are installed only for this pass and removed after it, so the timed
pass never runs through them. Each call of a wrapped function records one
span (name, start, end, parent span, iteration). Spans stay in memory and are
written to disk when the pass ends. A layer's self time is its spans'
durations minus the time their child spans cover, wrapper bookkeeping
included; a function's time per call excludes the bookkeeping of every span
below it. So the tracing cost is charged to no layer.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
import sys
import time
from array import array

# Layer -> wrapped functions, as (module, "Class.method" or "function").
# Aliases (TtlOut.pulse, EdgeCounter.gate_rising) are separate class
# attributes and are wrapped separately.
LAYERS = {
    "timeline": [("rtsim.timeline", f"TimeManager.{m}") for m in (
        "delay_mu", "at_mu", "push_context", "pop_context", "sync_to_counter")],
    "signals": [("rtsim.signals", f"Signal.{m}") for m in ("push", "pull", "events", "events_in")],
    "store": [("rtsim.store", f"EventStore.{m}") for m in ("push", "pull", "items", "range_items")],
    "devices": [("rtsim.devices", name) for name in (
        "make_driver", "CoreDevice.reset",
        "TtlOut.on", "TtlOut.off", "TtlOut.pulse_mu", "TtlOut.pulse",
        "TtlIn.sample_input", "TtlIn.fetch_sample", "TtlIn.sample_get",
        "EdgeCounter.gate_rising_mu", "EdgeCounter.gate_rising", "EdgeCounter.fetch_count",
        "Dds.init", "Dds.set", "Adc.sample_input", "Adc.fetch_sample", "Adc.sample")],
    "rng": [("rtsim.rng", name) for name in (
        "RngPool.stream", "Xoshiro256StarStar.next_u64", "Xoshiro256StarStar.random",
        "Xoshiro256StarStar.bernoulli", "Xoshiro256StarStar.poisson")],
    "environment": [("rtsim.environment", name) for name in (
        "load_ddb", "DeviceDb.from_dict", "run_experiment", "SimulationRun.get_device")],
    "trace": [("rtsim.trace", name) for name in (
        "records_of", "export_vcd", "export_jsonl", "read_jsonl")],
    "testkit": [("rtsim.testkit", name) for name in ("set_input", "expect", "assert_events")],
    "cli": [("rtsim.cli", "main")],
    "body": [("workloads", name) for name in ("scan_body", "readout_body", "export_body")],
}

# Per-layer metrics beyond <layer>.calls and <layer>.self_ms, with units.
# Host times (ms, ns) are scaled to the reference speed like the timed pass.
EXTRA_METRICS = {
    "timeline.sync.calls": "count",
    "timeline.max_depth": "count",
    "signals.push.ns": "ns",
    "signals.pull.ns": "ns",
    "signals.events.items": "count",
    "signals.overwrite_ratio": "ratio",
    "store.push.ns": "ns",
    "store.pull.ns": "ns",
    "store.append_ratio": "ratio",
    "devices.pulse.ns": "ns",
    "devices.dds_set.ns": "ns",
    "devices.gate_rising.ns": "ns",
    "devices.sample.ns": "ns",
    "devices.sample_get.ns": "ns",
    "devices.get_device.ns": "ns",
    "rng.draws": "count",
    "rng.draws_per_poisson": "draws/call",
    "rng.stream.ns": "ns",
    "environment.load_ddb.ns": "ns",
    "trace.records_of.calls": "count",
    "trace.export_vcd.ns_per_event": "ns/event",
    "trace.export_jsonl.ns_per_event": "ns/event",
    "trace.read_jsonl.ns_per_event": "ns/event",
    "trace.bytes": "B",
    "testkit.expect.ns": "ns",
    "testkit.items_per_expect": "count",
    "tracing.overhead_ratio": "ratio",
}

# Keep at most this many spans in memory (about 28 bytes each), but always
# trace at least MIN_TRACED iterations.
MAX_SPANS = 2_000_000
MIN_TRACED = 3


def metric_units() -> dict:
    units = {}
    for layer in LAYERS:
        if layer != "body":
            units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.nid: dict[str, int] = {}
        self.nid_col = array("i")
        self.parent_col = array("i")
        self.iter_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        # Frames: [name id, span index, child span ns, tracing ns below].
        self.stack: list[list] = []
        self.iteration = -1
        self.patches: list[tuple] = []
        self.missing: list[str] = []
        self._reset_counts()

    def _reset_counts(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0] * n
        self.self_ns = [0] * n
        self.counters: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def in_span(self, name: str) -> bool:
        nid = self.nid.get(name)
        return any(frame[0] == nid for frame in self.stack)

    def wrap(self, name: str, layer: str, fn, pre=None, post=None):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.nid[name] = nid
        clock = time.perf_counter_ns
        stack = self.stack
        nid_col, parent_col, iter_col = self.nid_col, self.parent_col, self.iter_col
        start_col, end_col = self.start_col, self.end_col
        tracer = self

        def traced(*args, **kwargs):
            t_in = clock()
            state = pre(args) if pre is not None else None
            idx = len(nid_col)
            nid_col.append(nid)
            parent_col.append(stack[-1][1] if stack else -1)
            iter_col.append(tracer.iteration)
            start_col.append(0)
            end_col.append(0)
            frame = [nid, idx, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_col[idx] = t0
                end_col[idx] = t1
                work = t1 - t0 - frame[3]
                tracer.calls[nid] += 1
                tracer.incl[nid] += work
                tracer.self_ns[nid] += t1 - t0 - frame[2]
            if post is not None:
                post(args, result, state)
            if stack:
                outer = clock() - t_in
                parent = stack[-1]
                parent[2] += outer
                parent[3] += outer - work
            return result

        traced.__wrapped__ = fn
        return traced

    def build(self, hooks: dict) -> None:
        """Create a wrapper for every function in LAYERS; enable() installs them."""
        for layer, targets in LAYERS.items():
            for modname, qualname in targets:
                try:
                    module = importlib.import_module(modname)
                except ImportError:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{modname}.{qualname}")
                    continue
                pre, post = hooks.get(qualname, (None, None))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(qualname, layer, raw.__func__, pre, post))
                    self.patches.append((owner, attr, raw, wrapped))
                elif owner_name:
                    self.patches.append((owner, attr, raw, self.wrap(qualname, layer, raw, pre, post)))
                else:
                    wrapped = self.wrap(qualname, layer, raw, pre, post)
                    # Rebind every module-level alias, e.g. names imported
                    # with `from .trace import export_vcd`.
                    for name, mod in list(sys.modules.items()):
                        if mod is None or not (name == modname or name.split(".")[0] == "rtsim"):
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is raw:
                                self.patches.append((mod, key, raw, wrapped))
        self._reset_counts()

    def enable(self) -> None:
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def span_count(self) -> int:
        return len(self.nid_col)

    def write(self, path_prefix) -> None:
        """Write the spans in call order: a JSON header plus the raw columns."""
        cols = {
            "name_id": self.nid_col,
            "parent": self.parent_col,
            "iteration": self.iter_col,
            "start_ns": self.start_col,
            "end_ns": self.end_col,
        }
        with open(f"{path_prefix}.bin", "wb") as fh:
            for col in cols.values():
                col.tofile(fh)
        header = {
            "count": self.span_count(),
            "byteorder": sys.byteorder,
            "columns": [[k, c.typecode, c.itemsize] for k, c in cols.items()],
            "parent": "index of the parent span, -1 for none",
            "names": self.names,
            "layers": self.layer_of,
            "missing": self.missing,
        }
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded at the layer boundaries, keyed by wrapped function."""

    def store_pre(args):
        last = args[0].max_time()
        return last is None or args[1] > last

    def store_post(args, result, appended):
        if appended:
            tracer.count("store.appends")

    def events_post(args, result, state):
        tracer.count("signals.events.items", len(result))
        if tracer.in_span("expect"):
            tracer.count("testkit.expect_items", len(result))

    def draw_post(args, result, state):
        if tracer.in_span("Xoshiro256StarStar.poisson"):
            tracer.count("rng.poisson_draws")

    def depth_post(args, result, state):
        depth = args[0].depth
        if depth > tracer.counters.get("timeline.max_depth", 0):
            tracer.counters["timeline.max_depth"] = depth

    def export_post(key):
        def post(args, result, state):
            tracer.count(f"{key}.events", args[0].stats.event_count)
            tracer.count("trace.bytes", os.path.getsize(args[1]))
        return post

    def read_post(args, result, state):
        tracer.count("read_jsonl.events", len(result[0]))

    return {
        "EventStore.push": (store_pre, store_post),
        "Signal.events": (None, events_post),
        "Xoshiro256StarStar.next_u64": (None, draw_post),
        "TimeManager.push_context": (None, depth_post),
        "export_vcd": (None, export_post("export_vcd")),
        "export_jsonl": (None, export_post("export_jsonl")),
        "read_jsonl": (None, read_post),
    }


def _iteration_metrics(tracer: Tracer, events: int, factor: float) -> dict:
    names = tracer.names

    def calls(*ops):
        return sum(tracer.calls[tracer.nid[op]] for op in ops if op in tracer.nid)

    def incl(*ops):
        return sum(tracer.incl[tracer.nid[op]] for op in ops if op in tracer.nid)

    def ratio(num, den):
        return num / den if den else 0.0

    def ns_per_call(*ops):
        return ratio(incl(*ops), calls(*ops)) * factor

    c = tracer.counters
    m = {}
    for layer in LAYERS:
        ids = [i for i, name in enumerate(names) if tracer.layer_of[i] == layer]
        if layer != "body":
            m[f"{layer}.calls"] = sum(tracer.calls[i] for i in ids)
        m[f"{layer}.self_ms"] = sum(tracer.self_ns[i] for i in ids) * factor / 1e6
    pushes = calls("Signal.push")
    m.update({
        "timeline.sync.calls": calls("TimeManager.sync_to_counter"),
        "timeline.max_depth": c.get("timeline.max_depth", 1),
        "signals.push.ns": ns_per_call("Signal.push"),
        "signals.pull.ns": ns_per_call("Signal.pull"),
        "signals.events.items": c.get("signals.events.items", 0),
        "signals.overwrite_ratio": ratio(pushes - events, pushes),
        "store.push.ns": ns_per_call("EventStore.push"),
        "store.pull.ns": ns_per_call("EventStore.pull"),
        "store.append_ratio": ratio(c.get("store.appends", 0), calls("EventStore.push")),
        "devices.pulse.ns": ns_per_call("TtlOut.pulse", "TtlOut.pulse_mu"),
        "devices.dds_set.ns": ns_per_call("Dds.set"),
        "devices.gate_rising.ns": ns_per_call("EdgeCounter.gate_rising", "EdgeCounter.gate_rising_mu"),
        "devices.sample.ns": ns_per_call("Adc.sample"),
        "devices.sample_get.ns": ns_per_call("TtlIn.sample_get"),
        "devices.get_device.ns": ns_per_call("SimulationRun.get_device"),
        "rng.draws": calls("Xoshiro256StarStar.next_u64"),
        "rng.draws_per_poisson": ratio(c.get("rng.poisson_draws", 0),
                                       calls("Xoshiro256StarStar.poisson")),
        "rng.stream.ns": ns_per_call("RngPool.stream"),
        "environment.load_ddb.ns": ns_per_call("load_ddb"),
        "trace.records_of.calls": calls("records_of"),
        "trace.export_vcd.ns_per_event": ratio(incl("export_vcd"), c.get("export_vcd.events", 0)) * factor,
        "trace.export_jsonl.ns_per_event": ratio(incl("export_jsonl"), c.get("export_jsonl.events", 0)) * factor,
        "trace.read_jsonl.ns_per_event": ratio(incl("read_jsonl"), c.get("read_jsonl.events", 0)) * factor,
        "trace.bytes": c.get("trace.bytes", 0),
        "testkit.expect.ns": ns_per_call("expect"),
        "testkit.items_per_expect": ratio(c.get("testkit.expect_items", 0), calls("expect")),
    })
    return m


def run_traced(wl, ref_digest, ref_ok: bool, seconds: float, timed, span_prefix) -> dict:
    """Alternate untraced and traced iterations; per-layer medians and checks.

    ``timed(fn)`` returns (result, host ns, ns at the reference speed); every
    host time of a traced iteration is scaled by the same factor. Wrappers
    are enabled only around the traced iterations.
    """
    tracer = Tracer()
    tracer.build(_hooks(tracer))
    attempted = failed = 0
    per_iter, traced_ms, untraced_ms = [], [], []

    def one(traced: bool) -> None:
        nonlocal attempted, failed
        gc.collect()
        tracer.iteration = len(per_iter)
        tracer._reset_counts()

        def iterate():
            if traced:
                tracer.enable()
            try:
                return wl.iterate()
            finally:
                tracer.disable()

        out, dt, norm = timed(iterate)
        factor = norm / dt
        attempted += 1
        # The traced pass must give the same outputs as the untraced one.
        failed += not (ref_ok and wl.digest(out) == ref_digest)
        (traced_ms if traced else untraced_ms).append(norm / 1e6)
        if traced:
            per_iter.append(_iteration_metrics(tracer, wl.events(out), factor))

    deadline = time.perf_counter() + seconds
    while len(per_iter) < MIN_TRACED or (
        time.perf_counter() < deadline and tracer.span_count() < MAX_SPANS
    ):
        one(traced=False)
        one(traced=True)
    tracer.write(span_prefix)

    metrics = {k: statistics.median(it[k] for it in per_iter) for k in per_iter[0]}
    metrics["tracing.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "traced_iterations": len(per_iter),
        "untraced_iterations": len(untraced_ms),
        "spans": tracer.span_count(),
        "untraced_functions": tracer.missing,
    }
