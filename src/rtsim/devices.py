"""Simulation drivers.

Each driver exposes the functional API of one device class and translates
calls into signal events at the current cursor, cursor delays from its
timing model, and input-buffer traffic. Input devices sample test-configured
input signals (probability, frequency, voltage) with the simulation's
seeded random streams.
"""

from __future__ import annotations

import collections
import sys
from dataclasses import dataclass, field

from . import rng
from .signals import UNKNOWN, SignalKind, _is_plain_name
from .timeline import MU_MAX, REF_PERIOD_S, MachineUnitsOverflow, round_half_away_from_zero, short_repr


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


def _positive_int(key, value):
    if type(value) is not int or value < 1:
        return f"{key} must be a positive integer"


def _counter_mode(key, value):
    if value not in ("deterministic", "poisson"):
        return f"{key} must be 'deterministic' or 'poisson', got {short_repr(value)}"


@dataclass(frozen=True)
class DeviceDescriptor:
    """Declarative entry for one simulated device; ``params`` ends up checked, defaults filled in."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # The name is a VCD scope identifier and a JSONL string as it stands.
        if not _is_plain_name(self.name):
            raise DeviceError(
                f"device name must be a non-empty string without whitespace, got {self.name!r}"
            )
        if type(self.kind) is not str or self.kind not in DRIVER_CLASSES:
            raise DeviceError(
                f"device {self.name!r}: unknown kind {short_repr(self.kind)}; "
                f"allowed kinds: {', '.join(DRIVER_CLASSES)}"
            )
        allowed = DRIVER_CLASSES[self.kind].PARAMS
        for key in self.params:
            if key not in allowed:
                raise DeviceError(
                    f"device {self.name!r}: unknown param {key!r} for kind {self.kind!r}; "
                    f"allowed: {sorted(allowed) or 'none'}"
                )
        params = {}
        for key, (default, check) in allowed.items():
            value = params[key] = self.params.get(key, default)
            if error := check(key, value):
                raise DeviceError(f"device {self.name!r}: {error}")
        object.__setattr__(self, "params", params)


class InputBuffer:
    """FIFO of sampled values, owned by one driver."""

    def __init__(self):
        self._queue = collections.deque()

    def __len__(self) -> int:
        return len(self._queue)

    def put(self, value) -> None:
        self._queue.append(value)

    def take(self):
        if not self._queue:
            raise BufferEmpty("input buffer is empty")
        return self._queue.popleft()


class SimDevice:
    """Common driver state: timeline access, signal registration.

    Drivers store events with ``Signal._put``, not ``push``: each write's
    time is a cursor time, which the timeline keeps a signed 64-bit int,
    and its value is a constant of the signal's kind or one the driver has
    just checked.

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

    def reset(self) -> int:
        """Synchronize the cursor to the counter estimate plus configured slack."""
        return self._time.sync_to_counter()


class TtlOut(SimDevice):
    """Digital output pin with a single boolean state signal."""

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.state = self._register("state", SignalKind.BOOL)

    def on(self) -> None:
        self.state._put(True, self._time.now_mu())

    def off(self) -> None:
        self.state._put(False, self._time.now_mu())

    def pulse_mu(self, duration_mu: int) -> None:
        if type(duration_mu) is not int or duration_mu <= 0:
            raise DeviceError(f"pulse duration must be a positive int, got {short_repr(duration_mu)}")
        # Move the cursor before pushing, so an overflow leaves no rising edge behind.
        t_on = self._time.now_mu()
        self._time.delay_mu(duration_mu)
        self.state._put(True, t_on)
        self.state._put(False, self._time.now_mu())

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
        self._sample_delay_mu = desc.params["sample_delay_mu"]
        self._rng = rng.Xoshiro256StarStar(rng.substream_seed(run.config.seed, self.name))

    def sample_input(self) -> None:
        """Draw one Bernoulli sample at the cursor and enqueue it."""
        cursor = self._time.now_mu()
        p = self.prob.pull(cursor)
        if p is UNKNOWN:
            raise InputUnset(f"{self.name}: input probability is unset at t={cursor}")
        if not 0.0 <= p <= 1.0:
            raise DeviceError(f"{self.name}: probability {p} outside [0, 1]")
        # Delay first, as pulse_mu does, so an overflow leaves no event, buffer entry or draw.
        self._time.delay_mu(self._sample_delay_mu)
        value = self._rng.bernoulli(p)  # the int 0 or 1
        self.sample._put(value, cursor)
        self.buffer.put(value)

    def fetch_sample(self) -> int:
        """Consume the oldest enqueued sample."""
        return self.buffer.take()

    def sample_get(self) -> int:
        """Draw, enqueue, and immediately consume one sample."""
        self.sample_input()
        return self.fetch_sample()


class EdgeCounter(SimDevice):
    """Edge counter gated with a window, counting against an input frequency."""

    PARAMS = {"counter_mode": ("deterministic", _counter_mode)}

    def __init__(self, desc, run):
        super().__init__(desc, run)
        self.mode = desc.params["counter_mode"]
        self.freq = self._register("freq", SignalKind.REAL, is_input=True)
        self.gate = self._register("gate", SignalKind.BOOL)
        self.buffer = InputBuffer()
        self._rng = rng.Xoshiro256StarStar(rng.substream_seed(run.config.seed, self.name))

    def gate_rising_mu(self, duration_mu: int) -> int:
        """Open the gate for ``duration_mu``, enqueue the count, return the close time."""
        if type(duration_mu) is not int or duration_mu <= 0:
            raise DeviceError(f"gate duration must be a positive int, got {short_repr(duration_mu)}")
        t_open = self._time.now_mu()
        f = self.freq.pull(t_open)
        if f is UNKNOWN:
            raise InputUnset(f"{self.name}: input frequency is unset at t={t_open}")
        if f < 0:
            raise DeviceError(f"{self.name}: negative input frequency {f}")
        try:  # the mean is checked before the cursor moves, so a bad one leaves no edge behind
            mean = f * duration_mu * REF_PERIOD_S
        except OverflowError:  # a duration past the float range is past the 64-bit range too
            raise MachineUnitsOverflow(
                f"gate_rising_mu: {short_repr(duration_mu)} MU exceeds signed 64-bit machine units") from None
        if not mean < rng.POISSON_MEAN_LIMIT:  # nan, inf, or a count no signed 64-bit counter holds
            raise DeviceError(
                f"{self.name}: count mean of a {duration_mu} MU gate at {f} Hz is not finite or is 2**63 or more")
        self._time.delay_mu(duration_mu)
        t_close = self._time.now_mu()
        self.gate._put(True, t_open)
        self.gate._put(False, t_close)
        if self.mode == "deterministic":
            count = round_half_away_from_zero(mean)
        else:
            count = self._rng.poisson(mean)
        # A mean below 2**63 can still draw a count past it: a signed 64-bit counter saturates.
        self.buffer.put(count if count < 2**63 else 2**63 - 1)
        return t_close

    gate_rising = gate_rising_mu

    def fetch_count(self) -> int:
        return self.buffer.take()


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
        self._time.delay_mu(self._init_delay_mu)
        self.init_marker._put(True, self._time.now_mu())

    def set(self, freq_hz: float, phase_turns: float = 0.0, amplitude: float = 1.0) -> None:
        # Every check, the float conversions and the delay come before the first write,
        # so a call that raises leaves no event. A REAL signal takes no bool, so neither does this.
        try:
            if type(freq_hz) is bool or not 0 <= freq_hz <= sys.float_info.max:
                raise DeviceError(f"{self.name}: frequency must be a finite float >= 0, got {short_repr(freq_hz)}")
            if type(phase_turns) is bool or not 0.0 <= phase_turns < 1.0:
                raise DeviceError(f"{self.name}: phase must be in [0, 1) turns, got {short_repr(phase_turns)}")
            if type(amplitude) is bool or not 0.0 <= amplitude <= 1.0:
                raise DeviceError(f"{self.name}: amplitude must be in [0, 1], got {short_repr(amplitude)}")
            freq, phase, amp = float(freq_hz), float(phase_turns), float(amplitude)
        except TypeError:  # a non-number: it does not compare with a float, or has no float value
            raise DeviceError(f"{self.name}: frequency, phase and amplitude must be real numbers, got "
                              f"{short_repr(freq_hz)}, {short_repr(phase_turns)}, {short_repr(amplitude)}") from None
        # The floats are stored, so they pass the same bounds: this fails a number whose float value
        # (nan, say) disagrees with its comparisons, and leaves only finite floats in range to store.
        if not (0.0 <= freq <= sys.float_info.max and 0.0 <= phase < 1.0 and 0.0 <= amp <= 1.0):
            raise DeviceError(f"{self.name}: frequency, phase and amplitude must have float values in range, got "
                              f"{freq!r}, {phase!r}, {amp!r}")
        cursor = self._time.now_mu()
        self._time.delay_mu(self._set_delay_mu)
        self.freq._put(freq, cursor)
        self.phase._put(phase, cursor)
        self.amp._put(amp, cursor)


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
        self._sample_delay_mu = desc.params["sample_delay_mu"]

    def sample_input(self) -> None:
        """Read all channel voltages at the cursor and enqueue the vector."""
        cursor = self._time.now_mu()
        values = []
        for i, sig in enumerate(self.voltages):
            v = sig.pull(cursor)
            if v is UNKNOWN:
                raise InputUnset(f"{self.name}: channel {i} voltage is unset at t={cursor}")
            values.append(v)
        self._time.delay_mu(self._sample_delay_mu)
        self.buffer.put(values)

    def fetch_sample(self) -> list[float]:
        return self.buffer.take()

    def sample(self) -> list[float]:
        """Sample all channels and return the vector."""
        self.sample_input()
        return self.fetch_sample()


DRIVER_CLASSES = {
    "core": CoreDevice,
    "ttl_out": TtlOut,
    "ttl_in": TtlIn,
    "edge_counter": EdgeCounter,
    "dds": Dds,
    "adc": Adc,
}
