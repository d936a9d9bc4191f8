"""The four benchmark workloads: seeded inputs, experiment bodies, output checks.

Every workload is built here from rtsim's public API. None reuses
``rtsim.bench`` presets or ``scenario_experiment``, so a later rewrite of the
program's own bench module, store or exporters cannot silently change what is
measured.

A workload object is created once per set-up (its constructor is the timed
set-up: DDB and seeded inputs). ``prepare()`` then computes the expected
results from independent reference models, untimed. ``iterate()`` is one timed
closed-loop iteration and always starts from a fresh ``SimulationRun``.
``validate()`` is the full output check, run on warm-up output; ``digest()``
is the cheap comparison used after every timed iteration.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import random

SLACK_MU = 125_000
BUFFER_BATCH = 16
TTLS = ("ttl0", "ttl1", "ttl2", "ttl3")
MODES = ("regular", "optimistic")

# Poisson counts may change algorithm (e.g. PTRS for large means); the check
# only requires the summed counts to lie within this many standard deviations
# of the summed means. At 5 sigma a correct sampler fails about once in 1.7e6.
POISSON_SIGMA_BOUND = 5.0


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _signal_events(run) -> dict:
    """Non-empty signals of a run, keyed by (device, signal)."""
    return {(s.device_name, s.signal_name): ev for s in run.signals if (ev := s.events())}


def _events_sha(events: dict) -> str:
    return _sha(sorted(events.items()))


def _load_vcd_checker(root):
    spec = importlib.util.spec_from_file_location("vcd_check", root / "tests" / "vcd_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_vcd


def _vcd_failures(check_vcd, text: str, events_at_or_after_0: int) -> list[str]:
    try:
        parsed = check_vcd(text)
    except AssertionError as exc:
        return [f"VCD rejected by vcd_check: {exc}"]
    timed = sum(1 for t, _, _ in parsed["changes"] if t is not None)
    if timed != events_at_or_after_0:
        return [f"VCD has {timed} timed changes, expected {events_at_or_after_0}"]
    return []


# --------------------------------------------------------------------------
# Scan: the write path under both sync configurations.

def make_scan_plan(rng: random.Random, n_samples: int, per_point: int = 100) -> list:
    """Points of samples; each point is buffered (sync every 16) or not.

    Half the points are buffered and each block of 4 samples has 1, 2, 3 and 4
    pulses, in seeded orders, so every seed does about the same work.
    """
    starts = range(0, n_samples, per_point)
    buffered_flags = [i % 2 == 1 for i in range(len(starts))]
    rng.shuffle(buffered_flags)
    counts = []
    points = []
    for start, buffered in zip(starts, buffered_flags):
        samples = []
        for _ in range(min(per_point, n_samples - start)):
            if not counts:
                counts = rng.sample((1, 2, 3, 4), 4)
            n = counts.pop()
            parallel = n > 1 and rng.random() < 0.3
            if parallel:
                chans = tuple(rng.sample(range(len(TTLS)), n))
            else:
                chans = tuple(rng.randrange(len(TTLS)) for _ in range(n))
            widths = tuple(rng.randint(8, 1000) for _ in range(n))
            comp = rng.randint(100, 1000) if rng.random() < 0.1 else 0
            samples.append((
                rng.randint(1, 400) * 1.0e6,     # DDS frequency, Hz
                rng.randrange(1024) / 1024,      # phase, turns
                rng.randrange(1, 1025) / 1024,   # amplitude
                rng.randint(2000, 20000),        # per-sample delay, MU
                comp,                            # latency compensation, MU
                parallel,
                chans,
                widths,
            ))
        points.append((buffered, samples))
    return points


def _play_point(run, core, ttls, dds, buffered, samples, in0=None) -> None:
    done = 0
    for freq, phase, amp, delay, comp, parallel, chans, widths in samples:
        dds.set(freq, phase, amp)
        run.delay_mu(delay)
        if comp:
            run.delay_mu(-comp)  # start the pulses early, as latency compensation does
        if parallel:
            with run.parallel():
                for c, w in zip(chans, widths):
                    with run.sequential():
                        ttls[c].pulse(w)
        else:
            for c, w in zip(chans, widths):
                ttls[c].pulse(w)
        if comp:
            run.delay_mu(comp)
        if in0 is not None:
            in0.sample_get()
        done += 1
        if not buffered or done % BUFFER_BATCH == 0:
            core.reset()
    if buffered and done % BUFFER_BATCH:
        core.reset()


def scan_body(run, plan) -> None:
    core = run.get_device("core")
    ttls = [run.get_device(name) for name in TTLS]
    dds = run.get_device("dds0")
    core.reset()
    for buffered, samples in plan:
        _play_point(run, core, ttls, dds, buffered, samples)


class _RefTimeline:
    """Reference model of the cursor and of last-write-wins signal events."""

    def __init__(self, slack: int):
        self.slack = slack
        self.cursor = 0
        self.events: dict = {}
        self.max_event = None
        self.syncs = 0
        self.first_sync = None

    def push(self, key, t: int, value) -> None:
        self.events.setdefault(key, {})[t] = value
        if self.max_event is None or t > self.max_event:
            self.max_event = t

    def sync(self) -> None:
        horizon = self.cursor
        if self.max_event is not None and self.max_event > horizon:
            horizon = self.max_event
        self.cursor = horizon + self.slack
        self.syncs += 1
        if self.first_sync is None:
            self.first_sync = self.cursor

    def pulse(self, ttl: str, t: int, width: int) -> None:
        self.push((ttl, "state"), t, True)
        self.push((ttl, "state"), t + width, False)

    def play_point(self, buffered, samples, in0_values=None) -> None:
        done = 0
        for freq, phase, amp, delay, comp, parallel, chans, widths in samples:
            for sig, v in (("freq", freq), ("phase", phase), ("amp", amp)):
                self.push(("dds0", sig), self.cursor, float(v))
            self.cursor += delay - comp
            if parallel:
                for c, w in zip(chans, widths):
                    self.pulse(TTLS[c], self.cursor, w)
                self.cursor += max(widths)
            else:
                for c, w in zip(chans, widths):
                    self.pulse(TTLS[c], self.cursor, w)
                    self.cursor += w
            self.cursor += comp
            if in0_values is not None:
                self.push(("in0", "sample"), self.cursor, next(in0_values))
            done += 1
            if not buffered or done % BUFFER_BATCH == 0:
                self.sync()
        if buffered and done % BUFFER_BATCH:
            self.sync()

    def result(self) -> dict:
        events = {k: sorted(v.items()) for k, v in self.events.items() if v}
        return {
            "event_count": sum(len(v) for v in events.values()),
            "sync_count": self.syncs,
            "timeline_length_mu": self.cursor - (self.first_sync or 0),
            "events_sha256": _events_sha(events),
        }


def _run_record(run) -> dict:
    stats = run.stats
    return {
        "event_count": stats.event_count,
        "sync_count": stats.sync_count,
        "timeline_length_mu": stats.timeline_length_mu,
        "events_sha256": _events_sha(_signal_events(run)),
    }


def _run_digest(run):
    stats = run.stats
    return (
        stats.event_count,
        stats.sync_count,
        stats.timeline_length_mu,
        hash(tuple(tuple(s.events()) for s in run.signals)),
    )


class Scan:
    """Seeded scan of TTL pulses and DDS writes, run under both sync modes."""

    SAMPLES = 6000
    TAIL = 75

    def __init__(self, rt, seed: int, scale: float, root, workdir):
        self.rt = rt
        self.ddb = rt.DeviceDb.from_dict({"devices": (
            [{"name": "core", "kind": "core"}]
            + [{"name": n, "kind": "ttl_out"} for n in TTLS]
            + [{"name": "dds0", "kind": "dds"}]
        )})
        self.plan = make_scan_plan(random.Random(seed), max(1, round(self.SAMPLES * scale)))
        self.configs = [rt.SimConfig(mode=rt.SyncMode(m), seed=seed) for m in MODES]
        self.expected = None

    def prepare(self) -> None:
        self.expected = {}
        for mode in MODES:
            ref = _RefTimeline(SLACK_MU if mode == "regular" else 0)
            ref.sync()
            for buffered, samples in self.plan:
                ref.play_point(buffered, samples)
            self.expected[mode] = ref.result()

    def plant_fault(self) -> None:
        self.expected["regular"]["event_count"] += 1

    def iterate(self):
        rt, plan = self.rt, self.plan
        exp = rt.Experiment("scan", lambda run: scan_body(run, plan))
        return [rt.run_experiment(exp, self.ddb, config) for config in self.configs]

    def events(self, out) -> int:
        return sum(run.stats.event_count for run in out)

    def digest(self, out):
        return tuple(_run_digest(run) for run in out)

    def record(self, out) -> dict:
        return {mode: _run_record(run) for mode, run in zip(MODES, out)}

    def validate(self, out) -> list[str]:
        failures = []
        actual = self.record(out)
        for mode in MODES:
            for key, want in self.expected[mode].items():
                if actual[mode][key] != want:
                    failures.append(f"{mode} {key}: got {actual[mode][key]!r}, expected {want!r}")
        reg, opt = actual["regular"], actual["optimistic"]
        law = SLACK_MU * (reg["sync_count"] - 1)
        if reg["timeline_length_mu"] - opt["timeline_length_mu"] != law:
            failures.append(
                f"sync law: regular - optimistic = "
                f"{reg['timeline_length_mu'] - opt['timeline_length_mu']}, expected {law}"
            )
        return failures


# --------------------------------------------------------------------------
# Readout: input stimulus, Poisson counting, sampling, then testkit queries.

GATE_MU = 8_000
SYNC_EVERY = 32
READOUT_INPUTS = (
    ("counter0", "freq"), ("in0", "prob"),
    ("adc0", "v0"), ("adc0", "v1"), ("adc0", "v2"), ("adc0", "v3"),
)
QUERY_SIGNALS = READOUT_INPUTS + (("counter0", "gate"), ("in0", "sample"))

_U64 = 0xFFFF_FFFF_FFFF_FFFF


class RefXoshiro:
    """Reference xoshiro256** with splitmix64 seeding and sha256 substreams.

    An independent copy of the documented per-device stream, so the in0
    Bernoulli samples are checked exactly without trusting the program.
    """

    def __init__(self, seed: int, name: str):
        state = int.from_bytes(hashlib.sha256(f"{seed}:{name}".encode()).digest()[:8], "big")
        s = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _U64
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
            s.append(z ^ (z >> 31))
        self.s = s

    def next_u64(self) -> int:
        s = self.s
        x = (s[1] * 5) & _U64
        result = ((((x << 7) | (x >> 57)) & _U64) * 9) & _U64
        t = (s[1] << 17) & _U64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _U64
        return result

    def bernoulli(self, p: float) -> int:
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return 1
        return 1 if (self.next_u64() >> 11) * (1.0 / (1 << 53)) < p else 0


# Counter frequencies 0.1-2.5 MHz give 0.8-20 counts per 8 us gate. Each seed
# plays the same values in its own order, every FREQ_EVERY samples, so the
# Poisson work (which grows with the mean) is about equal across seeds.
FREQS = tuple(k * 1.0e5 for k in range(1, 26))
FREQ_EVERY = 4


def _random_input(rng: random.Random, key):
    if key == ("in0", "prob"):
        return rng.choice((0.0, 1.0, rng.randint(1, 99) / 100))
    return rng.randint(-5000, 5000) / 1000.0


def _back(rng: random.Random) -> int:
    # Most stimulus lands at the cursor; some is set retroactively, which the
    # store must insert out of order.
    return rng.randint(1, 40_000) if rng.random() < 0.3 else 0


def make_readout_plan(rng: random.Random, n_samples: int, n_queries: int) -> dict:
    freqs = []
    initial = [(("counter0", "freq"), FREQS[0])]
    initial += [(key, _random_input(rng, key)) for key in READOUT_INPUTS[1:]]
    samples = []
    for i in range(n_samples):
        updates = []
        if i % FREQ_EVERY == 0:
            if not freqs:
                freqs = rng.sample(FREQS, len(FREQS))
            updates.append((("counter0", "freq"), _back(rng), freqs.pop()))
        for key in READOUT_INPUTS[1:]:
            if rng.random() < 0.12:
                updates.append((key, _back(rng), _random_input(rng, key)))
        samples.append((tuple(updates), rng.randint(200, 4000)))
    # Queries are spread evenly over the run (expect's cost grows with the
    # queried time). Odd ones hit an event's exact time (offset None), where
    # "at or before" matters; even ones fall at a random offset.
    queries = [
        (QUERY_SIGNALS[q % len(QUERY_SIGNALS)], q * n_samples // n_queries,
         None if q % 2 else rng.randint(-2000, 12_000))
        for q in range(n_queries)
    ]
    return {"initial": initial, "samples": samples, "queries": queries}


def readout_body(rt, run, plan, log) -> None:
    core = run.get_device("core")
    in0 = run.get_device("in0")
    counter = run.get_device("counter0")
    adc = run.get_device("adc0")
    counts, bits, volts = log
    for (dev, sig), value in plan["initial"]:
        rt.set_input(run, dev, sig, 0, value)
    core.reset()
    for i, (updates, gap) in enumerate(plan["samples"]):
        now = run.now_mu()
        for (dev, sig), back, value in updates:
            rt.set_input(run, dev, sig, now - back, value)
        counter.gate_rising(GATE_MU)
        counts.append(counter.fetch_count())
        bits.append(in0.sample_get())
        volts.append(adc.sample())
        run.delay_mu(gap)
        if (i + 1) % SYNC_EVERY == 0:
            core.reset()


def readout_queries(rt, run, queries, event_checks) -> list:
    """The unit-test phase: point expectations, then whole-signal checks."""
    reports = [rt.expect(run, dev, sig, t, want) for (dev, sig), t, want in queries]
    reports += [rt.assert_events(run, dev, sig, want) for (dev, sig), want in event_checks]
    return reports


class _RefSignal:
    def __init__(self):
        self.times: list[int] = []
        self.values: list = []

    def push(self, t: int, value) -> None:
        i = bisect.bisect_left(self.times, t)
        if i < len(self.times) and self.times[i] == t:
            self.values[i] = value
        else:
            self.times.insert(i, t)
            self.values.insert(i, value)

    def pull(self, t: int):
        i = bisect.bisect_right(self.times, t)
        return self.values[i - 1] if i else None


class Readout:
    """Seeded stimulus, Poisson gates, TTL and ADC sampling, testkit queries."""

    SAMPLES = 2500
    QUERIES = 300
    TAIL = 85

    def __init__(self, rt, seed: int, scale: float, root, workdir):
        self.rt = rt
        self.ddb = rt.DeviceDb.from_dict({"devices": [
            {"name": "core", "kind": "core"},
            {"name": "in0", "kind": "ttl_in"},
            {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": "poisson"}},
            {"name": "adc0", "kind": "adc", "params": {"channels": 4}},
        ]})
        self.config = rt.SimConfig(mode=rt.SyncMode.REGULAR, seed=seed)
        n = max(2, round(self.SAMPLES * scale))
        self.plan = make_readout_plan(random.Random(seed), n, max(4, round(self.QUERIES * scale)))
        self.queries = None
        self.event_checks = None
        self.expected = None

    def prepare(self) -> None:
        """Replay the plan on reference signals; derive every expected value."""
        plan, sigs = self.plan, {}
        for key in QUERY_SIGNALS:
            sigs[key] = _RefSignal()
        rng = RefXoshiro(self.config.seed, "in0")
        for key, value in plan["initial"]:
            sigs[key].push(0, value)
        cursor = SLACK_MU  # first sync: horizon 0 plus the regular slack
        syncs = 1
        means, bits, volts, sample_start = [], [], [], []
        for i, (updates, gap) in enumerate(plan["samples"]):
            sample_start.append(cursor)
            for key, back, value in updates:
                sigs[key].push(cursor - back, value)
            means.append(sigs["counter0", "freq"].pull(cursor) * GATE_MU * 1e-9)
            sigs["counter0", "gate"].push(cursor, True)
            cursor += GATE_MU
            sigs["counter0", "gate"].push(cursor, False)
            bit = rng.bernoulli(sigs["in0", "prob"].pull(cursor))
            sigs["in0", "sample"].push(cursor, bit)
            bits.append(bit)
            volts.append([sigs["adc0", f"v{k}"].pull(cursor) for k in range(4)])
            cursor += gap
            if (i + 1) % SYNC_EVERY == 0:
                cursor += SLACK_MU
                syncs += 1
        unknown = self.rt.UNKNOWN
        self.queries = []
        for key, idx, offset in plan["queries"]:
            t = sample_start[idx]
            if offset is None:
                times = sigs[key].times
                i = bisect.bisect_left(times, t)
                t = times[i] if i < len(times) else t
            else:
                t += offset
            value = sigs[key].pull(t)
            self.queries.append((key, t, unknown if value is None else value))
        self.event_checks = [
            (key, list(zip(sigs[key].times, sigs[key].values)))
            for key in (("counter0", "gate"), ("in0", "sample"))
        ]
        self.expected = {
            "event_count": sum(len(s.times) for s in sigs.values()),
            "sync_count": syncs,
            "signals": {k: list(zip(s.times, s.values)) for k, s in sigs.items() if s.times},
            "samples_sha256": _sha((bits, volts)),
            "poisson_means": means,
        }

    def plant_fault(self) -> None:
        self.expected["event_count"] += 1

    def iterate(self):
        rt, plan = self.rt, self.plan
        log = ([], [], [])
        exp = rt.Experiment("readout", lambda run: readout_body(rt, run, plan, log))
        run = rt.run_experiment(exp, self.ddb, self.config)
        reports = readout_queries(rt, run, self.queries, self.event_checks)
        return run, log, reports

    def events(self, out) -> int:
        return out[0].stats.event_count

    def digest(self, out):
        run, log, reports = out
        return _run_digest(run), repr(log), tuple(r.passed for r in reports)

    def record(self, out) -> dict:
        run, (counts, bits, volts), reports = out
        rec = _run_record(run)
        rec["samples_sha256"] = _sha((bits, volts))
        rec["poisson_count_sum"] = sum(counts)
        rec["checks_passed"] = sum(1 for r in reports if r.passed)
        return rec

    def validate(self, out) -> list[str]:
        run, (counts, bits, volts), reports = out
        exp, failures = self.expected, []
        if run.stats.event_count != exp["event_count"]:
            failures.append(f"event_count: got {run.stats.event_count}, expected {exp['event_count']}")
        if run.stats.sync_count != exp["sync_count"]:
            failures.append(f"sync_count: got {run.stats.sync_count}, expected {exp['sync_count']}")
        actual = _signal_events(run)
        for key, events in exp["signals"].items():
            if actual.get(key) != events:
                failures.append(f"{key[0]}.{key[1]}: events differ from the reference")
        if _sha((bits, volts)) != exp["samples_sha256"]:
            failures.append("in0.sample / ADC values differ from the reference digest")
        means = exp["poisson_means"]
        if len(counts) != len(means) or any(type(c) is not int or c < 0 for c in counts):
            failures.append("counter returned a missing or non-integer count")
        else:
            mu = sum(means)
            if abs(sum(counts) - mu) > POISSON_SIGMA_BOUND * math.sqrt(mu):
                failures.append(
                    f"Poisson counts sum {sum(counts)} is outside "
                    f"{POISSON_SIGMA_BOUND} sigma of the summed mean {mu:.1f}"
                )
        failed = [str(r) for r in reports if not r.passed]
        if failed:
            failures.append(f"{len(failed)} testkit checks failed, first: {failed[0]}")
        return failures


# --------------------------------------------------------------------------
# Export: a mid-size run of all four signal kinds, exported and read back.

def export_body(rt, run, plan) -> None:
    core = run.get_device("core")
    ttls = [run.get_device(name) for name in TTLS]
    dds = run.get_device("dds0")
    in0 = run.get_device("in0")
    rt.set_input(run, "in0", "prob", -500, 0.5)  # negative time: VCD initial value
    core.reset()
    for i, (buffered, samples) in enumerate(plan):
        with run.kernel(f"point{i}"):
            _play_point(run, core, ttls, dds, buffered, samples, in0=in0)


class Export:
    """A scan-like run with TTL sampling and kernel markers, exported twice."""

    SAMPLES = 2300
    TAIL = 70

    def __init__(self, rt, seed: int, scale: float, root, workdir):
        self.rt = rt
        self.ddb = rt.DeviceDb.from_dict({"devices": (
            [{"name": "core", "kind": "core"}]
            + [{"name": n, "kind": "ttl_out"} for n in TTLS]
            + [{"name": "dds0", "kind": "dds"}, {"name": "in0", "kind": "ttl_in"}]
        )})
        self.config = rt.SimConfig(mode=rt.SyncMode.REGULAR, seed=seed)
        self.plan = make_scan_plan(random.Random(seed), max(1, round(self.SAMPLES * scale)))
        self.vcd_path = workdir / "export.vcd"
        self.jsonl_path = workdir / "export.jsonl"
        self.root = root
        self.check_vcd = None
        self.expected = None

    def prepare(self) -> None:
        self.check_vcd = _load_vcd_checker(self.root)
        ref = _RefTimeline(SLACK_MU)
        ref.push(("in0", "prob"), -500, 0.5)
        ref.sync()
        bits = RefXoshiro(self.config.seed, "in0")
        samples = (bits.bernoulli(0.5) for _ in itertools.count())
        for i, (buffered, point) in enumerate(self.plan):
            ref.push(("core", "kernel"), ref.cursor, f"point{i}")
            ref.play_point(buffered, point, in0_values=samples)
        self.expected = ref.result()

    def plant_fault(self) -> None:
        self.expected["event_count"] += 1

    def iterate(self):
        rt = self.rt
        plan = self.plan
        exp = rt.Experiment("export", lambda run: export_body(rt, run, plan))
        run = rt.run_experiment(exp, self.ddb, self.config)
        rt.export_vcd(run, self.vcd_path)
        rt.export_jsonl(run, self.jsonl_path)
        records, summary = rt.read_jsonl(self.jsonl_path)
        return run, records, summary

    def events(self, out) -> int:
        return out[0].stats.event_count

    def _files(self):
        return self.vcd_path.read_bytes(), self.jsonl_path.read_bytes()

    def digest(self, out):
        run, records, summary = out
        return _run_digest(run), hash(self._files()), len(records), repr(summary)

    def record(self, out) -> dict:
        rec = _run_record(out[0])
        vcd, jsonl = self._files()
        rec["vcd_sha256"] = hashlib.sha256(vcd).hexdigest()
        rec["jsonl_sha256"] = hashlib.sha256(jsonl).hexdigest()
        rec["export_bytes"] = len(vcd) + len(jsonl)
        return rec

    def validate(self, out) -> list[str]:
        run, records, summary = out
        failures = []
        actual = _run_record(run)
        for key, want in self.expected.items():
            if actual[key] != want:
                failures.append(f"{key}: got {actual[key]!r}, expected {want!r}")
        want_records = sorted(
            (
                {"time_mu": t, "device": s.device_name, "signal": s.signal_name,
                 "kind": s.kind.value, "value": v}
                for s in run.signals for t, v in s.events()
            ),
            key=lambda r: (r["time_mu"], r["device"], r["signal"]),
        )
        if records != want_records:
            failures.append("read_jsonl records differ from the sorted per-signal events")
        if summary is None or summary.get("event_count") != run.stats.event_count \
                or summary.get("sync_count") != run.stats.sync_count:
            failures.append(f"JSONL summary does not match the run: {summary!r}")
        vcd_text = self.vcd_path.read_text(encoding="utf-8")
        failures += _vcd_failures(
            self.check_vcd, vcd_text, sum(1 for r in want_records if r["time_mu"] >= 0)
        )
        return failures


# --------------------------------------------------------------------------
# demo_cli: the bundled demo through the command line, in-process.

class DemoCli:
    """`rtsim run demo` with both exports, then `rtsim diff` against the golden.

    One iteration is REPEAT such pairs of `main()` calls: a single pair takes
    about 3 ms, too short to time steadily on a noisy host.
    """

    REPEAT = 10
    TAIL = 90

    def __init__(self, rt, seed: int, scale: float, root, workdir):
        self.rt = rt
        self.cli = importlib.import_module("rtsim.cli")
        golden = root / "tests" / "golden"
        self.golden = {"vcd": (golden / "demo.vcd").read_bytes(),
                       "jsonl": (golden / "demo.jsonl").read_bytes()}
        self.vcd_path = workdir / "demo.vcd"
        self.jsonl_path = workdir / "demo.jsonl"
        # Golden configuration (seed 0, regular): the benchmark seed does not apply.
        self.run_argv = ["run", "demo", "--vcd", str(self.vcd_path), "--jsonl", str(self.jsonl_path)]
        self.diff_argv = ["diff", str(self.jsonl_path), str(golden / "demo.jsonl")]
        times = [json.loads(line).get("time_mu") for line in self.golden["jsonl"].splitlines()]
        self.n_events = sum(1 for t in times if t is not None) * self.REPEAT
        self.n_timed = sum(1 for t in times if t is not None and t >= 0)
        self.root = root
        self.check_vcd = None

    def prepare(self) -> None:
        self.check_vcd = _load_vcd_checker(self.root)

    def plant_fault(self) -> None:
        self.golden["jsonl"] += b"\n"

    def iterate(self):
        cli = self.cli
        codes = []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for _ in range(self.REPEAT):
                codes.append((cli.main(self.run_argv), cli.main(self.diff_argv)))
        return codes, out.getvalue()

    def events(self, out) -> int:
        return self.n_events

    def _files(self):
        return self.vcd_path.read_bytes(), self.jsonl_path.read_bytes()

    def digest(self, out):
        return tuple(out[0]), self._files()

    def record(self, out) -> dict:
        vcd, jsonl = self._files()
        return {
            "event_count_per_run": self.n_events // self.REPEAT,
            "exit_codes": sorted(set(out[0])),
            "vcd_sha256": hashlib.sha256(vcd).hexdigest(),
            "jsonl_sha256": hashlib.sha256(jsonl).hexdigest(),
        }

    def validate(self, out) -> list[str]:
        codes, stdout = out
        failures = []
        if any(rc_run != 0 for rc_run, _ in codes):
            failures.append(f"`run demo` exit codes: {[c[0] for c in codes]}")
        if any(rc_diff != 0 for _, rc_diff in codes) or stdout.count("identical") != len(codes):
            failures.append(f"`diff` against the golden exit codes: {[c[1] for c in codes]}")
        vcd, jsonl = self._files()
        if vcd != self.golden["vcd"]:
            failures.append("demo VCD differs from tests/golden/demo.vcd")
        if jsonl != self.golden["jsonl"]:
            failures.append("demo JSONL differs from tests/golden/demo.jsonl")
        failures += _vcd_failures(self.check_vcd, vcd.decode("utf-8"), self.n_timed)
        return failures


WORKLOADS = {"scan": Scan, "readout": Readout, "export": Export, "demo_cli": DemoCli}
