"""Benchmark command: one workload, one seed, timed or traced.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another, each in its own
process. Run from the root of a plain checkout; the program is imported from ``src``
(no install step). With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced pass. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only if every output check passed.

Host times are reported at a reference host speed: a fixed pure-Python
kernel is timed between consecutive timed calls (iterations, set-ups), and
each call's time is multiplied by REF_KERNEL_NS over the mean of the kernel
times just before and just after it. On a shared host whose speed drifts by
tens of percent over seconds, this keeps the figures of one program
comparable between runs. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPS = 9
WARMUPS = 2
MIN_ITERS = 3
TAIL_BEYOND = 10

# The reference host speed: the one at which the speed kernel (best of two)
# takes exactly this long.
REF_KERNEL_NS = 2_000_000
KERNEL_STEPS = 3000
KERNEL_ROWS = 1200


class _Slots:
    __slots__ = ("times", "values")

    def __init__(self):
        self.times = []
        self.values = []

    def push(self, t, value):
        times = self.times
        if not times or t > times[-1]:
            times.append(t)
            self.values.append(value)
            return
        i = bisect_left(times, t)
        if i < len(times) and times[i] == t:
            self.values[i] = value
        else:
            times.insert(i, t)
            self.values.insert(i, value)


def _speed_kernel() -> int:
    """Fixed work of the program's kinds.

    Method calls and bisect inserts on small lists (the simulation path),
    then a larger set of tuples sorted, grouped and dumped as JSON (the
    export path). With only the first part, runs in the host's slow phases
    read up to 10% low on export-heavy workloads.
    """
    slots = [_Slots() for _ in range(8)]
    acc = 0
    for i in range(KERNEL_STEPS):
        slot = slots[i & 7]
        slot.push(i * 3 - i % 5, float(i))
        acc += len(slot.times) ^ i
    rows = [((i * 7919) % 65521, f"dev{i & 15}", i * 0.5) for i in range(KERNEL_ROWS)]
    rows.sort()
    groups = {}
    for t, dev, value in rows:
        groups.setdefault(dev, []).append((t, value))
    text = "\n".join(json.dumps({"t": t, "d": dev, "v": v}) for t, dev, v in rows[::4])
    return acc + len(groups) + len(text)


def kernel_ns() -> int:
    """The speed kernel's current time, best of two."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _speed_kernel()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


class RefClock:
    """Times calls at the reference speed; the kernel runs once between calls."""

    def __init__(self):
        self.last_kernel_ns = kernel_ns()

    def time(self, fn):
        """Run fn(); return (result, host ns, ns at the reference speed)."""
        before = self.last_kernel_ns
        t0 = time.perf_counter_ns()
        result = fn()
        dt = time.perf_counter_ns() - t0
        self.last_kernel_ns = kernel_ns()
        return result, dt, dt * 2 * REF_KERNEL_NS / (before + self.last_kernel_ns)


def tail(values: list[float], percentile: int) -> tuple[int, float]:
    """The workload's tail percentile, lowered if fewer than TAIL_BEYOND samples lie beyond it.

    Each workload fixes its percentile (the highest whole one that keeps at
    least TAIL_BEYOND iterations beyond it in a full-length run), so runs and
    commits compare the same percentile.
    """
    n = len(values)
    pct = min(percentile, max(0, math.floor(100 * (1 - TAIL_BEYOND / n))))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(values)[rank - 1]


def _purge_rtsim() -> None:
    for name in [n for n in sys.modules if n == "rtsim" or n.startswith("rtsim.")]:
        del sys.modules[name]


def set_up(clock: RefClock, workload_cls, seed: int, scale: float, workdir: Path):
    """Import rtsim afresh and build the workload, SETUP_REPS times."""
    def build():
        rt = importlib.import_module("rtsim")
        return rt, workload_cls(rt, seed, scale, ROOT, workdir)

    times = []
    for _ in range(SETUP_REPS):
        _purge_rtsim()
        gc.collect()
        (rt, wl), _, norm = clock.time(build)
        times.append(norm / 1e9)
    return rt, wl, times


def provenance(rt, args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            rev = ref
    backend = getattr(rt, "store_backend", None)
    return {
        "python": sys.version.split()[0],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "store_backend": backend() if backend else "n/a",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
    }


def timed_pass(clock: RefClock, wl, ref, ref_ok: bool, seconds: float) -> dict:
    """Closed loop, one client: iterate until the time is up."""
    norm_ns, raw_ns, errors = [], [], []
    attempted = failed = events = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_ITERS or time.perf_counter() < deadline:
        gc.collect()
        attempted += 1
        try:
            out, dt, norm = clock.time(wl.iterate)
        except Exception as exc:  # counted as a failed iteration, loop goes on
            failed += 1
            errors.append(repr(exc))
            continue
        failed += not (ref_ok and wl.digest(out) == ref)
        events += wl.events(out)
        del out
        raw_ns.append(dt)
        norm_ns.append(norm)
    return {"norm_ns": norm_ns, "raw_ns": raw_ns, "attempted": attempted,
            "failed": failed, "events": events, "errors": errors[:3]}


def memory_pass(wl, ref, ref_ok: bool) -> tuple[float, bool]:
    """tracemalloc peak of one iteration, per surviving event (untimed)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = wl.iterate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ok = ref_ok and wl.digest(out) == ref
    return peak / wl.events(out), ok


def run_all(argv: list[str]) -> int:
    """Run every workload in a child process; print their lines and results."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, *argv],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines if not line.startswith("{")))
        sys.stderr.write(proc.stderr)
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (the self-test uses a tiny one)")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one expected value; the run must then fail")
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = sys.argv[1:] if argv is None else argv
        i = rest.index("--workload")
        return run_all(rest[:i] + rest[i + 2:])

    if not (SRC / "rtsim" / "__init__.py").is_file():
        print(f"error: no rtsim package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RTSIM_SEED", None)  # inputs come from --seed only
    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    clock = RefClock()
    rt, wl, setup_times = set_up(clock, WORKLOADS[args.workload], args.seed, args.scale, workdir)
    if Path(rt.__file__).resolve().parent != SRC / "rtsim":
        print(f"error: imported rtsim from {rt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl.prepare()
    if args.plant_fault:
        wl.plant_fault()

    # Full validation once, on warm-up output; later iterations compare digests.
    out = wl.iterate()
    failures = wl.validate(out)
    ref = wl.digest(out)
    simulated = wl.record(out)
    del out
    for _ in range(WARMUPS - 1):
        if wl.digest(wl.iterate()) != ref:
            failures.append("warm-up iterations disagree: output is not deterministic")
    ref_ok = not failures
    gc.collect()
    gc.freeze()

    info = {"provenance": provenance(rt, args), "simulated": simulated, "failures": failures}
    if args.trace:
        traced = layers.run_traced(wl, ref, ref_ok, args.seconds, clock.time, workdir / "spans")
        units = layers.metric_units()
        metrics = {k: {"value": traced["metrics"][k], "unit": u} for k, u in units.items()}
        attempted, failed = traced["attempted"], traced["failed"]
        info["iterations"] = {"traced": traced["traced_iterations"],
                              "untraced": traced["untraced_iterations"], "warmup": WARMUPS}
        info["spans"] = traced["spans"]
        info["untraced_functions"] = traced["untraced_functions"]
    else:
        bytes_per_event, mem_ok = memory_pass(wl, ref, ref_ok)
        loop = timed_pass(clock, wl, ref, ref_ok, args.seconds)
        attempted = loop["attempted"] + 1
        failed = loop["failed"] + (not mem_ok)
        norm = loop["norm_ns"]
        pct, tail_ns = tail(norm, wl.TAIL)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "iter_ms.p50": {"value": statistics.median(norm) / 1e6, "unit": "ms"},
            "iter_ms.tail": {"value": tail_ns / 1e6, "unit": "ms"},
            "events_per_s": {"value": loop["events"] / (sum(norm) / 1e9), "unit": "events/s"},
            "peak_bytes_per_event": {"value": bytes_per_event, "unit": "B/event"},
        }
        info["iterations"] = {"timed": len(norm), "memory": 1, "warmup": WARMUPS,
                              "setup": SETUP_REPS}
        info["tail"] = {"percentile": pct, "samples": len(norm)}
        info["raw_host"] = {
            "iter_ms.p50": statistics.median(loop["raw_ns"]) / 1e6,
            "speed_factor": statistics.median(norm) / statistics.median(loop["raw_ns"]),
        }
        info["errors"] = loop["errors"]

    info["failed_ratio"] = failed / attempted
    correct = failed == 0 and not failures
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:9s} {'iter_ms.tail percentile':34s} "
              f"p{info['tail']['percentile']} of {info['tail']['samples']} iterations")
    print(f"{args.workload:9s} {'failed_ratio':34s} {info['failed_ratio']:.6g} "
          f"({failed} of {attempted})")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (workdir / f"result_trace{args.trace}.json").write_text(
        json.dumps({**info, **result}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
