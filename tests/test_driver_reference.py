"""The drivers against reference drivers that move the cursor through the timeline's public calls.

``TtlOut``, ``EdgeCounter``, ``Dds``, ``TtlIn`` and ``Adc`` read and move the
cursor in place, append an event past a signal's last one to its lists in
place, read their inputs with a bisect in place and take three in-range floats
without coercing them. The reference drivers here do each call the plain way:
``now_mu()`` for the cursor, ``delay_mu()`` for every delay, ``_coerce_real``
for every ``Dds.set`` argument, ``Signal._put`` for every event and
``Signal.pull`` for every input. Random programs, with user pushes on the
drivers' signals near the cursor, run on both, and after each call the two runs
must agree on the exception (type and text), the cursor, the frames, every
signal's events and the input buffers. A program is a flat list of ops, as in
the timeline's own harness: ``("sequential",)`` or ``("parallel",)`` opens a
``with`` block that the next ``("close",)`` closes, and the program's end closes
any block still open. Each frame-window edge that a random program seldom
reaches has an ``@example`` of its own. ``in0`` and ``adc0`` have a sample delay,
and a reference sampler reads its input at the cursor, then delays, then writes
and enqueues at the saved cursor, as the README says every driver does. A
sampler op enqueues (``sample_input``), consumes (``sample_get`` or
``sample``) or fetches; a reference sampler keeps its buffer as a list and
consumes by an enqueue and a fetch from the front.

Every write of the drivers' run, taken from those snapshots, is then replayed
through ``Signal.push`` on a fresh store, which must come out the same: push
accepts every value a driver wrote, and the in-place appends store what push
would. ``ttl0.state`` must also hold what the linear-scan ``PushLogOracle``
holds for its writes.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import (UNKNOWN, BufferEmpty, DeviceDb, DeviceError, InputUnset, SignalManager, SimConfig, SimulationRun,
                   set_input)
from rtsim.rng import POISSON_MEAN_LIMIT
from rtsim.signals import SignalKindMismatch, _coerce_real
from rtsim.timeline import MU_MAX, MU_MIN, REF_PERIOD_S, MachineUnitsOverflow, round_half_away_from_zero, short_repr

from oracles import PushLogOracle

SAMPLE_DELAY_MU = 8  # both samplers'
DDB = {"devices": [{"name": "core", "kind": "core"}, {"name": "ttl0", "kind": "ttl_out"},
                   {"name": "ttl1", "kind": "ttl_out"}, {"name": "counter0", "kind": "edge_counter"},
                   {"name": "dds0", "kind": "dds"},
                   {"name": "in0", "kind": "ttl_in", "params": {"sample_delay_mu": SAMPLE_DELAY_MU}},
                   {"name": "adc0", "kind": "adc", "params": {"channels": 2, "sample_delay_mu": SAMPLE_DELAY_MU}}]}
FREQ_HZ = 1.0e6  # the counter's input until a program sets it: a gate of d MU counts d / 1000 edges


def _bad_duration(call, what, duration_mu):
    if type(duration_mu) is int and duration_mu > 0:
        raise MachineUnitsOverflow(
            f"{call}: duration {short_repr(duration_mu)} exceeds signed 64-bit machine units")
    raise DeviceError(f"{what} duration must be a positive int, got {short_repr(duration_mu)}")


class RefTtl:
    def __init__(self, time, driver):
        self.time, self.state = time, driver.state

    def on(self):
        self.state._put(True, self.time.now_mu())

    def off(self):
        self.state._put(False, self.time.now_mu())

    def pulse_mu(self, duration_mu):
        if type(duration_mu) is not int or not 0 < duration_mu <= MU_MAX:
            _bad_duration("pulse_mu", "pulse", duration_mu)
        t_on = self.time.now_mu()
        t_off = self.time.delay_mu(duration_mu)
        self.state._put(True, t_on)
        self.state._put(False, t_off)


class RefCounter:
    def __init__(self, time, driver):
        self.time, self.name, self.freq, self.gate, self.buffer = time, driver.name, driver.freq, driver.gate, []

    def gate_rising_mu(self, duration_mu):
        if type(duration_mu) is not int or not 0 < duration_mu <= MU_MAX:
            _bad_duration("gate_rising_mu", "gate", duration_mu)
        t_open = self.time.now_mu()
        f = self.freq.pull(t_open)  # set at MU_MIN, so never UNKNOWN; a program sets only f >= 0
        mean = f * duration_mu * REF_PERIOD_S
        if not mean < POISSON_MEAN_LIMIT:
            raise DeviceError(
                f"{self.name}: count mean of a {duration_mu} MU gate at {f} Hz is not finite or is 2**63 or more")
        t_close = self.time.delay_mu(duration_mu)
        self.gate._put(True, t_open)
        self.gate._put(False, t_close)
        self.buffer.append(round_half_away_from_zero(mean))
        return t_close


class RefDds:
    def __init__(self, time, driver):
        self.time, self.name, self.freq, self.phase, self.amp = time, driver.name, driver.freq, driver.phase, driver.amp

    def set(self, freq_hz, phase_turns=0.0, amplitude=1.0):
        try:
            freq, phase, amp = _coerce_real(freq_hz), _coerce_real(phase_turns), _coerce_real(amplitude)
        except SignalKindMismatch as exc:
            raise DeviceError(f"{self.name}: frequency, phase and amplitude must be finite reals: {exc}") from None
        if not (freq >= 0.0 and 0.0 <= phase < 1.0 and 0.0 <= amp <= 1.0):
            raise DeviceError(f"{self.name}: need frequency >= 0, phase in [0, 1) turns and amplitude in [0, 1], "
                              f"got {freq!r}, {phase!r}, {amp!r}")
        cursor = self.time.now_mu()
        self.freq._put(freq, cursor)
        self.phase._put(phase, cursor)
        self.amp._put(amp, cursor)


class RefFifo:
    """A sampler's input buffer as a list: enqueue at the back, consume from the front."""

    def fetch_sample(self):
        if not self.buffer:
            raise BufferEmpty("input buffer is empty")
        return self.buffer.pop(0)


class RefTtlIn(RefFifo):
    def __init__(self, time, driver):
        self.time, self.name, self.prob, self.sample, self.buffer = time, driver.name, driver.prob, driver.sample, []
        self.rng = driver._rng  # the driver's own stream: the two runs draw the same samples

    def sample_input(self):
        cursor = self.time.now_mu()
        p = self.prob.pull(cursor)
        if p is UNKNOWN:
            raise InputUnset(f"{self.name}: input probability is unset at t={cursor}")
        if not 0.0 <= p <= 1.0:
            raise DeviceError(f"{self.name}: probability {p} outside [0, 1]")
        self.time.delay_mu(SAMPLE_DELAY_MU)
        value = self.rng.bernoulli(p)
        self.sample._put(value, cursor)
        self.buffer.append(value)

    def sample_get(self):
        self.sample_input()
        return self.fetch_sample()


class RefAdc(RefFifo):
    def __init__(self, time, driver):
        self.time, self.name, self.voltages, self.buffer = time, driver.name, driver.voltages, []

    def sample_input(self):
        cursor = self.time.now_mu()
        values = []
        for i, sig in enumerate(self.voltages):
            v = sig.pull(cursor)
            if v is UNKNOWN:
                raise InputUnset(f"{self.name}: channel {i} voltage is unset at t={cursor}")
            values.append(v)
        self.time.delay_mu(SAMPLE_DELAY_MU)
        self.buffer.append(values)

    def sample(self):
        self.sample_input()
        return self.fetch_sample()


REFERENCES = {"ttl0": RefTtl, "ttl1": RefTtl, "counter0": RefCounter, "dds0": RefDds, "in0": RefTtlIn, "adc0": RefAdc}


def _drivers(reference):
    run = SimulationRun(DeviceDb.from_dict(DDB), SimConfig())
    devices = {name: run.get_device(name) for name in REFERENCES}
    devices["counter0"].freq.push(FREQ_HZ, MU_MIN)
    if reference:
        devices = {name: ref(run.time, devices[name]) for name, ref in REFERENCES.items()}
    return run, devices


def _state(run, devices):
    """The cursor, every frame, every signal's events, the horizon and the values enqueued."""
    tm = run.time
    events = [(sig.device_name, sig.signal_name, list(sig._times), list(sig._values)) for sig in run.signals]
    return (tm.now_mu(), tm.depth, list(tm._enclosing), (tm._start, tm._longest, tm._lo, tm._hi), events,
            run.signals.event_top[0], [list(devices[name].buffer) for name in ("counter0", "in0", "adc0")])


def _typed(step):
    """A log entry with each event value as its type and repr: 1 is not True, and a nan equals a nan."""
    op, outcome, (*head, events, top, buffers) = step
    return op, outcome, (*head, [(device, signal, times, [(type(v), repr(v)) for v in values])
                                 for device, signal, times, values in events], top, buffers)


def _writes(states):
    """Every write of the run that ``states`` snapshot, as ``(device, signal, value, time)`` in order.

    An event is never removed and no step writes one signal twice at one time, so a step's writes are the
    events whose value is not the object the snapshot before held at that time.
    """
    writes, held = [], {}
    for *_, events, _, _ in states:
        for device, signal, times, values in events:
            before = held.get((device, signal), {})
            writes += [(device, signal, v, t) for t, v in zip(times, values) if t not in before or before[t] is not v]
            held[device, signal] = dict(zip(times, values))
    return writes


def _check_push_replay(run, writes):
    """Replaying ``writes`` through ``Signal.push`` on a fresh store gives ``run``'s store and horizon."""
    replay = SignalManager()
    for sig in run.signals:
        replay.register(sig.device_name, sig.signal_name, sig.kind, sig.is_input)
    oracle = PushLogOracle()
    for device, name, value, time in writes:
        replay.signal(device, name).push(value, time)  # raises if push would refuse the write
        if (device, name) == ("ttl0", "state"):
            oracle.push(time, value)
    for sig in run.signals:
        twin = replay.signal(sig.device_name, sig.signal_name)
        assert sig._times == twin._times
        assert [(type(v), v) for v in sig._values] == [(type(v), v) for v in twin._values]
    assert run.signals.event_top == replay.event_top
    assert run.signals.signal("ttl0", "state").events() == oracle.items()


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:
        return (type(exc), str(exc))


def _play(run, devices, steps, log, depth=0):
    """Run ``steps`` up to this block's close, or to their end, and log each step's outcome and the state after it.

    ``("sequential",)`` and ``("parallel",)`` open a ``with`` block that runs the steps after it up to the next
    ``("close",)``; the program's end closes every block still open, and a close outside every block does nothing.
    """
    for op, *args in steps:
        if op == "close":
            if depth:
                return
            continue
        if op in ("sequential", "parallel"):
            with getattr(run, op)():
                _play(run, devices, steps, log, depth + 1)
            outcome = ("ok", None)
        elif op == "pulse":
            outcome = _outcome(lambda: devices[args[0]].pulse_mu(args[1]))
        elif op in ("on", "off"):
            outcome = _outcome(getattr(devices[args[0]], op))
        elif op == "gate":
            outcome = _outcome(lambda: devices["counter0"].gate_rising_mu(args[0]))
        elif op == "dds":
            outcome = _outcome(lambda: devices["dds0"].set(*args))
        elif op == "sample":
            outcome = _outcome(devices[args[0]].sample_input)
        elif op == "get":  # a sampler's consuming call
            outcome = _outcome(getattr(devices[args[0]], "sample_get" if args[0] == "in0" else "sample"))
        elif op == "fetch":
            outcome = _outcome(devices[args[0]].fetch_sample)
        elif op in ("push", "input"):  # a user write at the cursor plus an offset: Signal.push or set_input
            device, signal = args[0].split(".")
            time = run.now_mu() + args[2]
            if op == "push":
                outcome = _outcome(lambda: run.signals.signal(device, signal).push(args[1], time))
            else:
                outcome = _outcome(lambda: set_input(run, device, signal, time, args[1]))
        else:  # "at_mu" or "delay_mu", the timeline's own calls
            outcome = _outcome(lambda: getattr(run, op)(args[0]))
        log.append(((op, *args), outcome, _state(run, devices)))


class Float(float):
    """A float subclass: not an exact float, so ``Dds.set`` coerces it."""


near = st.one_of(st.integers(MU_MIN, MU_MIN + 2000), st.integers(-2000, 2000), st.integers(MU_MAX - 2000, MU_MAX))
# Durations of 1-50 MU and delays of -60...60 MU make writes land on, before and after earlier events.
durations = st.one_of(
    st.integers(1, 50), st.integers(1, 2000), st.integers(MU_MAX - 2000, MU_MAX), st.integers(-5, 0),
    st.sampled_from([MU_MAX + 1, 2**64 - 1, 2**64, 10**30, 1.0, 100.0, -0.5, math.nan, math.inf, True, False, None]),
)
reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 1.0), st.integers(-2, 2**70),
    st.sampled_from([True, False, 2**1024, 1.0, -0.0, Float(0.5), Float(1.0), "0.5"]),
)
TTLS = st.sampled_from(["ttl0", "ttl1"])
offsets = st.one_of(st.integers(-3, 3), st.integers(-2000, 2000))
# A flat program: an open and a close bracket a block, as block_programs in test_timeline.py does.
driver_op = st.one_of(
    st.tuples(st.just("pulse"), TTLS, durations),
    st.tuples(st.sampled_from(["on", "off"]), TTLS),
    st.tuples(st.just("gate"), durations),
    st.tuples(st.just("dds"), reals, reals, reals),
    st.tuples(st.just("dds"), st.one_of(st.integers(0, 10**9), st.floats(0, 1e9)),
              st.floats(0, 1, exclude_max=True), st.floats(0, 1)),
    st.tuples(st.sampled_from(["sample", "get", "fetch"]), st.sampled_from(["in0", "adc0"])),
    st.tuples(st.just("push"), st.sampled_from(["ttl0.state", "ttl1.state", "counter0.gate"]), st.booleans(),
              offsets),
    st.tuples(st.just("push"), st.sampled_from(["dds0.freq", "dds0.phase", "dds0.amp"]), st.floats(0, 1), offsets),
    st.tuples(st.just("input"), st.just("in0.prob"), st.sampled_from([0.0, 0.25, 1.0, 1.5]), offsets),
    st.tuples(st.just("input"), st.sampled_from(["adc0.v0", "adc0.v1"]), st.floats(-10, 10), offsets),
    st.tuples(st.just("input"), st.just("counter0.freq"), st.sampled_from([0.0, 5e5, FREQ_HZ, 3e6]), offsets),
    st.tuples(st.just("at_mu"), near),
    st.tuples(st.just("delay_mu"), st.one_of(near, st.integers(-2000, 2000), st.integers(-60, 60))),
    st.tuples(st.sampled_from(["sequential", "parallel"])),
    st.just(("close",)),
)


@given(program=st.lists(driver_op, max_size=60))
# A pulse and a gate that cross the high end of a frame started near MU_MAX, and one that ends on it.
@example(program=[("at_mu", MU_MAX - 10), ("sequential",), ("pulse", "ttl0", 11), ("pulse", "ttl0", 10)])
@example(program=[("at_mu", MU_MAX - 10), ("parallel",), ("gate", 11), ("gate", 10), ("pulse", "ttl1", 11)])
# Parallel pulses and gates longer and shorter than their siblings.
@example(program=[("at_mu", 5), ("parallel",), ("pulse", "ttl0", 5), ("pulse", "ttl1", 9), ("gate", 3),
                  ("sequential",), ("pulse", "ttl0", 4), ("pulse", "ttl0", 8), ("close",), ("close",),
                  ("pulse", "ttl1", 1)])
# Every kind of argument that does not pass Dds.set's one test, and floats on each range end.
@example(program=[("dds", True, 0.0, 1.0), ("dds", 2**1024, 0.0, 1.0), ("dds", math.nan, 0.0, 1.0),
                  ("dds", math.inf, 0.0, 1.0), ("dds", -math.inf, 0.0, 1.0), ("dds", 1e6, 1.0, 1.0),
                  ("dds", 1e6, 0.5, math.nan), ("dds", 10**6, 0, 1), ("dds", Float(2e8), Float(0.5), Float(1.0)),
                  ("dds", 0.0, 0.0, 0.0), ("dds", 1.7976931348623157e308, 0.9999999999999999, 1.0),
                  ("dds", -0.0, -0.0, -0.0), ("dds", 1e6, -1e-300, 0.5), ("dds", 2**1000, 0, 1)])
# Writes that cannot append in place. A pulse that starts on the last pulse's falling edge overwrites it.
@example(program=[("pulse", "ttl0", 10), ("pulse", "ttl0", 10), ("pulse", "ttl0", 3)])
# A dds.set or a gate at the cursor, below an event a user pushed ahead of it on one of its signals.
@example(program=[("dds", 1e6, 0.0, 1.0), ("delay_mu", 10), ("push", "dds0.amp", 0.5, 5), ("dds", 2e6, 0.25, 0.5),
                  ("delay_mu", 10), ("dds", 3e6, 0.5, 0.75)])
@example(program=[("gate", 10), ("push", "counter0.gate", True, 5), ("gate", 10), ("gate", 10)])
# A parallel pulse that lands before a longer sibling's falling edge on the same TTL.
@example(program=[("parallel",), ("pulse", "ttl0", 10), ("pulse", "ttl0", 4), ("sequential",), ("delay_mu", 3),
                  ("pulse", "ttl0", 2), ("close",), ("close",), ("pulse", "ttl0", 1)])
# Each input read where set_input wrote exactly at the cursor, and where nothing is set yet.
@example(program=[("sample", "in0"), ("sample", "adc0"), ("input", "in0.prob", 1.0, 0), ("sample", "in0"),
                  ("input", "adc0.v0", 1.5, 0), ("sample", "adc0"), ("input", "adc0.v1", -2.0, 0),
                  ("sample", "adc0"), ("input", "counter0.freq", 3e6, 0), ("gate", 1000),
                  ("input", "in0.prob", 0.0, 0), ("sample", "in0")])
# Each input changed inside its sampler's delay window: the sample is the value at the cursor.
@example(program=[("input", "in0.prob", 0.0, 0), ("input", "in0.prob", 1.0, 3), ("sample", "in0"),
                  ("input", "adc0.v0", 1.5, 0), ("input", "adc0.v1", -2.0, 0), ("input", "adc0.v0", 2.5, 3),
                  ("sample", "adc0")])
# Two samples enqueued, a get that consumes the older and enqueues its own, then fetches past the last.
@example(program=[("input", "in0.prob", 1.0, 0), ("input", "adc0.v0", 1.0, 0), ("input", "adc0.v1", 0.0, 0),
                  ("sample", "in0"), ("sample", "adc0"), ("input", "in0.prob", 0.0, 0), ("input", "adc0.v0", 2.0, 0),
                  ("sample", "in0"), ("sample", "adc0"), ("get", "in0"), ("get", "adc0"), ("fetch", "in0"),
                  ("fetch", "adc0"), ("fetch", "in0"), ("fetch", "adc0"), ("fetch", "in0"), ("fetch", "adc0")])
# Random draws: each sample stores an int, which push accepts, not a bool.
@example(program=[("input", "in0.prob", 0.5, 0), ("sample", "in0"), ("sample", "in0"), ("sample", "in0")])
# A pulse and a gate of 2**63 at cursor 0 raise; of MU_MAX, the longest accepted, each ends on the root's high end.
@example(program=[("pulse", "ttl0", 2**63), ("pulse", "ttl0", MU_MAX)])
@example(program=[("gate", 2**63), ("gate", MU_MAX)])
# A frame opened near MU_MIN keeps the root's low end, so a delay that ends below MU_MIN raises.
@example(program=[("at_mu", MU_MIN + 2000), ("pulse", "ttl0", 1), ("sequential",), ("delay_mu", MU_MIN + 2000),
                  ("close",), ("gate", 1)])
# A child that moves back far past its parallel frame's start: its close returns the cursor to that start.
@example(program=[("at_mu", MU_MAX - 2000), ("parallel",), ("sequential",), ("delay_mu", -MU_MAX), ("close",),
                  ("at_mu", 1), ("pulse", "ttl0", 1), ("close",), ("on", "ttl0")])
@settings(max_examples=300, deadline=None)
def test_drivers_match_reference_drivers(program):
    runs = []
    for reference in (False, True):
        run, devices = _drivers(reference)
        log = [("start", None, _state(run, devices))]  # the counter's input preset is the first write
        _play(run, devices, iter(program), log)
        runs.append((run, log))
    (run, log), (_, ref_log) = runs
    for step, ref_step in zip(log, ref_log, strict=True):
        assert _typed(step) == _typed(ref_step)
    _check_push_replay(run, _writes(state for *_, state in log))
