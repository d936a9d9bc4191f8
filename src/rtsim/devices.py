"""Simulation drivers.

Each driver exposes the functional API of one device class and translates
calls into signal events at the current cursor, cursor delays from its
timing model, and input-buffer traffic. Input devices sample test-configured
input signals (probability, frequency, voltage) with the simulation's
seeded random streams.
"""

from __future__ import annotations

import collections
from bisect import bisect_right

from . import rng
from .signals import SignalKind, SignalKindMismatch, _coerce_real, _is_plain_name
from .timeline import MU_MAX, REF_PERIOD_S, MachineUnitsOverflow, Record, round_half_away_from_zero, short_repr

_INF = float("inf")


class DeviceError(Exception):
    """Base class for device configuration and driver usage errors."""


class BufferEmpty(DeviceError):
    """Read from an input buffer that holds no values."""


class InputUnset(DeviceError):
    """An input signal was sampled before any value was configured for it."""


def _delay_param(key, value):
    if type(value) is not int or value < 0:
        return f"{key} must be a non-negative integer"
    if value > MU_MAX:  # a duration, like every time, is a signed 64-bit MU value
        return f"{key} must be at most 2**63 - 1"


def _bad_duration(call, what, duration_mu):
    """Raise for a driver duration that failed ``0 < d <= MU_MAX``."""
    if type(duration_mu) is int and duration_mu > 0:
        raise MachineUnitsOverflow(
            f"{call}: duration {short_repr(duration_mu)} exceeds signed 64-bit machine units")
    raise DeviceError(f"{what} duration must be a positive int, got {short_repr(duration_mu)}")


def _edges(time, signal, duration_mu):
    """``delay_mu(duration_mu)`` in place, for a duration checked ``0 < d <= MU_MAX``, then a True edge at the
    cursor and a False edge at the end time on ``signal``; returns the end time. As ``d > 0`` and the cursor is
    in its frame's window, only the window's high end can be crossed: then ``delay_mu`` raises, before any edge.
    """
    t_on = time._now
    t_off = t_on + duration_mu
    if t_off > time._hi:
        time.delay_mu(duration_mu)  # raises
    longest = time._longest
    if longest is None:
        time._now = t_off
    elif duration_mu > longest:  # parallel: the cursor stays at the frame start
        time._longest = duration_mu
    times = signal._times
    if not times or t_on > times[-1]:  # both edges append: the store's common case, written in place
        values = signal._values
        times.append(t_on)
        times.append(t_off)
        values.append(True)
        values.append(False)
        top = signal._event_top
        if t_off > top[0]:
            top[0] = t_off
    else:
        signal._put(True, t_on)
        signal._put(False, t_off)
    return t_off


def _positive_int(key, value):
    if type(value) is not int or value < 1:
        return f"{key} must be a positive integer"


def _counter_mode(key, value):
    if value not in ("deterministic", "poisson"):
        return f"{key} must be 'deterministic' or 'poisson', got {short_repr(value)}"


class DeviceDescriptor(Record):
    """Declarative entry for one simulated device; ``params`` ends up checked, defaults filled in."""

    __slots__ = ("name", "kind", "params")

    def __init__(self, name: str, kind: str, params: dict | None = None):
        # The name is a VCD scope identifier and a JSONL string as it stands.
        if not _is_plain_name(name):
            raise DeviceError("device name must be a non-empty string of printable ASCII '!' to '~' "
                              f"that does not start with '$', got {short_repr(name)}")
        if type(kind) is not str or kind not in DRIVER_CLASSES:
            raise DeviceError(f"device {short_repr(name)}: unknown kind {short_repr(kind)}; "
                              f"allowed kinds: {', '.join(DRIVER_CLASSES)}")
        allowed = DRIVER_CLASSES[kind].PARAMS
        given = {} if params is None else params
        if not isinstance(given, dict):
            raise DeviceError(f"device {short_repr(name)}: params must be a dict or None, got {type(params).__name__}")
        for key in given:
            if key not in allowed:
                raise DeviceError(
                    f"device {short_repr(name)}: unknown param {short_repr(key)} for kind {kind!r}; "
                    f"allowed: {sorted(allowed) or 'none'}"
                )
        params = {}
        for key, (default, check) in allowed.items():
            value = params[key] = given.get(key, default)
            if error := check(key, value):
                raise DeviceError(f"device {short_repr(name)}: {error}")
        # Field by field, not with _set: a DDB load builds one descriptor a device.
        put = object.__setattr__
        put(self, "name", name)
        put(self, "kind", kind)
        put(self, "params", params)


class InputBuffer(collections.deque):
    """FIFO of sampled values, owned by one driver: a deque whose ``take`` raises ``BufferEmpty`` when empty."""

    __slots__ = ()

    def take(self):
        if not self:
            raise BufferEmpty("input buffer is empty")
        return self.popleft()


class SimDevice:
    """Common driver state: timeline access, signal registration.

    Drivers store events without ``push``'s checks: each write's time is a
    cursor time, which the timeline keeps a signed 64-bit int, and its value
    is a constant of the signal's kind or one the driver has just checked.
    Writes strictly past a signal's last event append in place and raise the
    horizon cell; the rest go through ``Signal._put``. Input reads bisect in place.

    Drivers read the cursor in place, as ``_time._now``. A driver call is
    one statement: a call that delays stores its later edge at the end time
    ``delay_mu`` or ``_edges`` returns, not at the cursor, so in a parallel
    frame, where the cursor stays at the frame start, it stores the same
    events as in a sequential frame.

    ``PARAMS`` maps each DDB param a kind accepts to its default and to the
    check its value must pass, which returns an error text or None.
    """

    PARAMS: dict = {}

    def __init__(self, desc: DeviceDescriptor, run):
        # Keep the run's parts, never the run: the run holds its drivers, so that would be a cycle.
        self.name = desc.name
        self._time = run.time
        self._signals = run.signals

    def _register(self, signal_name: str, kind: SignalKind, is_input: bool = False):
        return self._signals.register(self.name, signal_name, kind, is_input=is_input)


class CoreDevice(SimDevice):
    """The core device: owns cursor synchronization and the kernel marker."""

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.kernel_marker = self._register("kernel", SignalKind.TEXT)
        # Synchronize the cursor to the counter estimate plus configured slack.
        self.reset = run.time.sync_to_counter


class TtlOut(SimDevice):
    """Digital output pin with a single boolean state signal."""

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.state = self._register("state", SignalKind.BOOL)

    def on(self) -> None:
        self.state._put(True, self._time._now)

    def off(self) -> None:
        self.state._put(False, self._time._now)

    def pulse_mu(self, duration_mu: int) -> None:
        if type(duration_mu) is not int or not 0 < duration_mu <= MU_MAX:
            _bad_duration("pulse_mu", "pulse", duration_mu)
        _edges(self._time, self.state, duration_mu)

    # Alias matching the common driver surface.
    pulse = pulse_mu


class TtlIn(SimDevice):
    """Digital input sampled against a test-configured probability signal."""

    PARAMS = {"sample_delay_mu": (0, _delay_param)}

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.prob = self._register("prob", SignalKind.REAL, is_input=True)
        self.sample = self._register("sample", SignalKind.INT)
        self.buffer = InputBuffer()
        self.fetch_sample = self.buffer.take  # consume the oldest enqueued sample
        self._sample_delay_mu = desc.params["sample_delay_mu"]
        self._rng = rng.Xoshiro256StarStar(rng.substream_seed(run.config.seed, self.name))

    def sample_input(self) -> None:
        """Draw one Bernoulli sample at the cursor and enqueue it."""
        self.buffer.appendleft(self.sample_get())  # the get consumed the oldest sample or this one: back in front

    def sample_get(self) -> int:
        """Draw one sample at the cursor, enqueue it, and consume the oldest enqueued sample."""
        cursor = self._time._now
        idx = bisect_right(self.prob._times, cursor)  # Signal.pull in place: the cursor is an int
        if not idx:
            raise InputUnset(f"{self.name}: input probability is unset at t={cursor}")
        p = self.prob._values[idx - 1]
        if not 0.0 <= p <= 1.0:
            raise DeviceError(f"{self.name}: probability {p} outside [0, 1]")
        # Delay first, as pulse_mu does, so an overflow leaves no event, buffer entry or draw.
        if self._sample_delay_mu:  # a zero delay cannot raise and changes nothing, as in Dds.set
            self._time.delay_mu(self._sample_delay_mu)
        value = self._rng.bernoulli(p)  # the int 0 or 1
        self.sample._put(value, cursor)
        buffer = self.buffer
        if buffer:  # older samples wait: this one goes behind them
            buffer.append(value)
            return buffer.popleft()
        return value


class EdgeCounter(SimDevice):
    """Edge counter gated with a window, counting against an input frequency."""

    PARAMS = {"counter_mode": ("deterministic", _counter_mode)}

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.freq = self._register("freq", SignalKind.REAL, is_input=True)
        self.gate = self._register("gate", SignalKind.BOOL)
        self.buffer = InputBuffer()
        self.fetch_count = self.buffer.take
        # A gate's count from its mean, bound once: only a Poisson counter builds a random stream.
        self._count = (round_half_away_from_zero if desc.params["counter_mode"] == "deterministic"
                       else rng.Xoshiro256StarStar(rng.substream_seed(run.config.seed, self.name)).poisson)

    def gate_rising_mu(self, duration_mu: int) -> int:
        """Open the gate for ``duration_mu``, enqueue the count, return the close time."""
        if type(duration_mu) is not int or not 0 < duration_mu <= MU_MAX:
            _bad_duration("gate_rising_mu", "gate", duration_mu)
        t_open = self._time._now
        idx = bisect_right(self.freq._times, t_open)
        if not idx:
            raise InputUnset(f"{self.name}: input frequency is unset at t={t_open}")
        f = self.freq._values[idx - 1]
        if f < 0:
            raise DeviceError(f"{self.name}: negative input frequency {f}")
        # The mean is checked before the cursor moves, so a bad one leaves no edge behind.
        mean = f * duration_mu * REF_PERIOD_S
        if not mean < rng.POISSON_MEAN_LIMIT:  # nan, inf, or a count no signed 64-bit counter holds
            raise DeviceError(
                f"{self.name}: count mean of a {duration_mu} MU gate at {f} Hz is not finite or is 2**63 or more")
        t_close = _edges(self._time, self.gate, duration_mu)
        count = self._count(mean)
        # A mean below 2**63 can still draw a count past it: a signed 64-bit counter saturates.
        self.buffer.append(count if count < 2**63 else 2**63 - 1)
        return t_close

    gate_rising = gate_rising_mu


class Dds(SimDevice):
    """Direct digital synthesizer channel: frequency, phase, amplitude."""

    PARAMS = {"init_delay_mu": (125_000, _delay_param), "set_delay_mu": (0, _delay_param)}

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.freq = self._register("freq", SignalKind.REAL)
        self.phase = self._register("phase", SignalKind.REAL)
        self.amp = self._register("amp", SignalKind.REAL)
        self.init_marker = self._register("init", SignalKind.BOOL)
        self._init_delay_mu = desc.params["init_delay_mu"]
        self._set_delay_mu = desc.params["set_delay_mu"]

    def init(self) -> None:
        """Model device initialization: advance by init_delay_mu, mark done."""
        self.init_marker._put(True, self._time.delay_mu(self._init_delay_mu))

    def set(self, freq_hz: float, phase_turns: float = 0.0, amplitude: float = 1.0) -> None:
        """Set frequency (Hz, >= 0), phase (turns, in [0, 1)) and amplitude (in [0, 1]) at the cursor.

        Each argument must be a value its REAL signal stores, a finite int or
        float (no bool), stored as a float; three floats in range pass one test.
        Every check and the delay come before the first write, so a call that raises leaves no event.
        """
        freq, phase, amp = freq_hz, phase_turns, amplitude
        if not (type(freq) is float and type(phase) is float and type(amp) is float
                and 0.0 <= freq < _INF and 0.0 <= phase < 1.0 and 0.0 <= amp <= 1.0):  # nan fails each compare
            try:
                freq, phase, amp = _coerce_real(freq), _coerce_real(phase), _coerce_real(amp)
            except SignalKindMismatch as exc:
                raise DeviceError(f"{self.name}: frequency, phase and amplitude must be finite reals: {exc}") from None
            if not (freq >= 0.0 and 0.0 <= phase < 1.0 and 0.0 <= amp <= 1.0):
                raise DeviceError(f"{self.name}: need frequency >= 0, phase in [0, 1) turns and amplitude in [0, 1], "
                                  f"got {freq!r}, {phase!r}, {amp!r}")
        cursor = self._time._now
        if self._set_delay_mu:  # a zero delay cannot raise and changes nothing: the cursor is in its window
            self._time.delay_mu(self._set_delay_mu)
        f_sig, p_sig, a_sig = self.freq, self.phase, self.amp
        ft, pt, at = f_sig._times, p_sig._times, a_sig._times
        if ft and pt and at and cursor > ft[-1] and cursor > pt[-1] and cursor > at[-1]:  # three appends
            ft.append(cursor)
            pt.append(cursor)
            at.append(cursor)
            f_sig._values.append(freq)
            p_sig._values.append(phase)
            a_sig._values.append(amp)
            top = f_sig._event_top  # the three signals share their manager's horizon cell
            if cursor > top[0]:
                top[0] = cursor
        else:
            f_sig._put(freq, cursor)
            p_sig._put(phase, cursor)
            a_sig._put(amp, cursor)


class Adc(SimDevice):
    """Multi-channel ADC sampling test-configured input voltage signals."""

    PARAMS = {"channels": (1, _positive_int), "sample_delay_mu": (0, _delay_param)}

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.voltages = [
            self._register(f"v{i}", SignalKind.REAL, is_input=True)
            for i in range(desc.params["channels"])
        ]
        self.buffer = InputBuffer()
        self.fetch_sample = self.buffer.take
        self._sample_delay_mu = desc.params["sample_delay_mu"]

    def sample_input(self) -> None:
        """Read all channel voltages at the cursor and enqueue the vector."""
        self.buffer.appendleft(self.sample())  # the read consumed the oldest vector or this one: back in front

    def sample(self) -> list[float]:
        """Read all channel voltages at the cursor, enqueue the vector, and consume the oldest enqueued vector."""
        cursor = self._time._now
        values = []
        for i, sig in enumerate(self.voltages):
            idx = bisect_right(sig._times, cursor)
            if not idx:
                raise InputUnset(f"{self.name}: channel {i} voltage is unset at t={cursor}")
            values.append(sig._values[idx - 1])
        if self._sample_delay_mu:
            self._time.delay_mu(self._sample_delay_mu)
        buffer = self.buffer
        if buffer:  # older vectors wait: this one goes behind them
            buffer.append(values)
            return buffer.popleft()
        return values


DRIVER_CLASSES = {
    "core": CoreDevice,
    "ttl_out": TtlOut,
    "ttl_in": TtlIn,
    "edge_counter": EdgeCounter,
    "dds": Dds,
    "adc": Adc,
}
