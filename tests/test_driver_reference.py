"""The drivers against reference drivers that move the cursor through the timeline's public calls.

``TtlOut``, ``EdgeCounter`` and ``Dds`` read and move the cursor in place and
take three in-range floats without coercing them. The reference drivers here
do each call the plain way: ``now_mu()`` for the cursor, ``delay_mu()`` for
every delay, ``_coerce_real`` for every ``Dds.set`` argument, ``Signal._put``
for every edge. Random programs run on both, and after each call the two runs
must agree on the exception (type and text), the cursor, the frames and every
signal's events.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import DeviceDb, DeviceError, SimConfig, SimulationRun
from rtsim.rng import POISSON_MEAN_LIMIT
from rtsim.signals import SignalKindMismatch, _coerce_real
from rtsim.timeline import MU_MAX, MU_MIN, REF_PERIOD_S, MachineUnitsOverflow, round_half_away_from_zero, short_repr

DDB = {"devices": [{"name": "core", "kind": "core"}, {"name": "ttl0", "kind": "ttl_out"},
                   {"name": "ttl1", "kind": "ttl_out"}, {"name": "counter0", "kind": "edge_counter"},
                   {"name": "dds0", "kind": "dds"}]}
FREQ_HZ = 1.0e6  # the counter's input: a gate of d MU counts d / 1000 edges


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
        f = self.freq.pull(t_open)
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


def _drivers(reference):
    run = SimulationRun(DeviceDb.from_dict(DDB), SimConfig())
    devices = {name: run.get_device(name) for name in ("ttl0", "ttl1", "counter0", "dds0")}
    devices["counter0"].freq.push(FREQ_HZ, MU_MIN)
    if reference:
        devices = {"ttl0": RefTtl(run.time, devices["ttl0"]), "ttl1": RefTtl(run.time, devices["ttl1"]),
                   "counter0": RefCounter(run.time, devices["counter0"]), "dds0": RefDds(run.time, devices["dds0"])}
    return run, devices


def _state(run, devices):
    """The cursor, every frame, every signal's events with each value's type, and the counts enqueued."""
    tm = run.time
    events = [(sig.device_name, sig.signal_name, list(sig._times), [(type(v), repr(v)) for v in sig._values])
              for sig in run.signals]
    return (tm.now_mu(), tm.depth, list(tm._enclosing), (tm._start, tm._longest, tm._lo, tm._hi), events,
            run.signals.event_top[0], list(devices["counter0"].buffer))


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:
        return (type(exc), str(exc))


def _play(run, devices, program, log):
    """Run ``program`` and log each step's outcome and the state after it."""
    for op, *args in program:
        if op in ("sequential", "parallel"):
            with getattr(run, op)():
                _play(run, devices, args[0], log)
            outcome = ("ok", None)
        elif op == "pulse":
            outcome = _outcome(lambda: devices[args[0]].pulse_mu(args[1]))
        elif op in ("on", "off"):
            outcome = _outcome(getattr(devices[args[0]], op))
        elif op == "gate":
            outcome = _outcome(lambda: devices["counter0"].gate_rising_mu(args[0]))
        elif op == "dds":
            outcome = _outcome(lambda: devices["dds0"].set(*args))
        else:  # "at_mu" or "delay_mu", the timeline's own calls
            outcome = _outcome(lambda: getattr(run, op)(args[0]))
        log.append(((op, *args), outcome, _state(run, devices)))


class Float(float):
    """A float subclass: not an exact float, so ``Dds.set`` coerces it."""


near = st.one_of(st.integers(MU_MIN, MU_MIN + 2000), st.integers(-2000, 2000), st.integers(MU_MAX - 2000, MU_MAX))
durations = st.one_of(
    st.integers(1, 2000), st.integers(MU_MAX - 2000, MU_MAX), st.integers(-5, 0),
    st.sampled_from([MU_MAX + 1, 2**64 - 1, 2**64, 10**30, 1.0, 100.0, math.nan, True, None]),
)
reals = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 1.0), st.integers(-2, 2**70),
    st.sampled_from([True, False, 2**1024, 1.0, -0.0, Float(0.5), Float(1.0), "0.5"]),
)
TTLS = st.sampled_from(["ttl0", "ttl1"])
driver_op = st.recursive(
    st.one_of(
        st.tuples(st.just("pulse"), TTLS, durations),
        st.tuples(st.sampled_from(["on", "off"]), TTLS),
        st.tuples(st.just("gate"), durations),
        st.tuples(st.just("dds"), reals, reals, reals),
        st.tuples(st.just("at_mu"), near),
        st.tuples(st.just("delay_mu"), st.one_of(near, st.integers(-2000, 2000))),
    ),
    lambda ops: st.tuples(st.sampled_from(["sequential", "parallel"]), st.lists(ops, max_size=5)),
    max_leaves=30,
)


@given(program=st.lists(driver_op, max_size=20))
# A pulse and a gate that cross the high end of a frame started near MU_MAX, and one that ends on it.
@example(program=[("at_mu", MU_MAX - 10), ("sequential", [("pulse", "ttl0", 11), ("pulse", "ttl0", 10)])])
@example(program=[("at_mu", MU_MAX - 10), ("parallel", [("gate", 11), ("gate", 10), ("pulse", "ttl1", 11)])])
# Parallel pulses and gates longer and shorter than their siblings.
@example(program=[("at_mu", 5), ("parallel", [("pulse", "ttl0", 5), ("pulse", "ttl1", 9), ("gate", 3),
                                              ("sequential", [("pulse", "ttl0", 4), ("pulse", "ttl0", 8)])]),
                  ("pulse", "ttl1", 1)])
# Every kind of argument that does not pass Dds.set's one test, and floats on each range end.
@example(program=[("dds", True, 0.0, 1.0), ("dds", 2**1024, 0.0, 1.0), ("dds", math.nan, 0.0, 1.0),
                  ("dds", math.inf, 0.0, 1.0), ("dds", -math.inf, 0.0, 1.0), ("dds", 1e6, 1.0, 1.0),
                  ("dds", 1e6, 0.5, math.nan), ("dds", 10**6, 0, 1), ("dds", Float(2e8), Float(0.5), Float(1.0)),
                  ("dds", 0.0, 0.0, 0.0), ("dds", 1.7976931348623157e308, 0.9999999999999999, 1.0),
                  ("dds", -0.0, -0.0, -0.0), ("dds", 1e6, -1e-300, 0.5)])
@settings(max_examples=300, deadline=None)
def test_drivers_match_reference_drivers(program):
    logs = []
    for reference in (False, True):
        run, devices = _drivers(reference)
        log = []
        _play(run, devices, program, log)
        logs.append(log)
    for step, ref_step in zip(*logs, strict=True):
        assert step == ref_step
