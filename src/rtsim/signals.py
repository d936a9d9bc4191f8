"""Named, typed signals whose events form the simulated event timeline.

Every signal stores its (timestamp, value) events sorted by timestamp.
Pulling at time t returns the value of the latest event at or before t;
before the first event the value is the UNKNOWN sentinel. A push at an
existing timestamp overwrites that event.

Each kind's value check is one function in the ``_VALIDATORS`` table, keyed
by ``SignalKind``; it returns the stored form. BOOL accepts bool only, INT
accepts signed 64-bit int (bool excluded), REAL accepts finite int/float and
stores float, TEXT accepts str that encodes to at most 64 UTF-8 bytes (so no
lone surrogate). A ``Signal`` binds its kind's validator once, when it is built.
``Dds.set``, ``expect`` and ``assert_events`` validate with the same functions.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator

from .timeline import MU_MAX, MU_MIN, short_repr

MAX_TEXT_BYTES = 64


class SignalError(Exception):
    """Base class for signal registry and event-store errors."""


class DuplicateSignalError(SignalError):
    pass


class UnknownSignalError(SignalError, KeyError):
    __str__ = SignalError.__str__  # the message itself, not KeyError's repr of it


class SignalKindMismatch(SignalError, TypeError):
    pass


class _Unknown:
    """Sentinel for 'no event at or before this time'. Never storable."""

    def __reduce__(self):  # copy and every pickle protocol give back the one module-level UNKNOWN
        return "UNKNOWN"

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN has no truth value")


UNKNOWN = _Unknown()


class SignalKind(enum.Enum):
    BOOL = "bool"
    INT = "int"
    REAL = "real"
    TEXT = "text"


def _mismatch(value, message: str) -> SignalKindMismatch:
    # UNKNOWN fails every kind's type check, so each reject branch names it here.
    if value is UNKNOWN:
        return SignalKindMismatch("UNKNOWN cannot be pushed onto a signal")
    return SignalKindMismatch(message)


def _coerce_bool(value):
    if type(value) is not bool:
        raise _mismatch(value, f"expected bool, got {short_repr(value)}")
    return value


def _coerce_int(value):
    if type(value) is bool or not isinstance(value, int):
        raise _mismatch(value, f"expected int, got {short_repr(value)}")
    if not MU_MIN <= value <= MU_MAX:
        raise SignalKindMismatch(f"int value out of signed 64-bit range: {short_repr(value)}")
    return value


def _coerce_real(value):
    if type(value) is float and value - value == 0.0:  # a finite float: nan and inf give nan
        return value
    if type(value) is bool or not isinstance(value, (int, float)):
        raise _mismatch(value, f"expected real, got {short_repr(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise SignalKindMismatch("int value too large for a finite real") from None
    if not math.isfinite(value):
        raise SignalKindMismatch(f"expected finite real, got {short_repr(value)}")
    return value


def _coerce_text(value):
    if type(value) is not str:
        raise _mismatch(value, f"expected text, got {short_repr(value)}")
    if len(value) > MAX_TEXT_BYTES:  # each code point takes a byte or more: reject before encoding
        raise SignalKindMismatch(f"text value exceeds {MAX_TEXT_BYTES} bytes")
    try:
        size = len(value.encode("utf-8"))
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise SignalKindMismatch(f"text value cannot be encoded as UTF-8: {exc.reason}") from None
    if size > MAX_TEXT_BYTES:
        raise SignalKindMismatch(f"text value exceeds {MAX_TEXT_BYTES} bytes")
    return value


_VALIDATORS = {
    SignalKind.BOOL: _coerce_bool,
    SignalKind.INT: _coerce_int,
    SignalKind.REAL: _coerce_real,
    SignalKind.TEXT: _coerce_text,
}


class Signal:
    """One per-device state channel: events kept as parallel sorted lists.

    ``_times`` is strictly increasing and ``_values[i]`` is the value of the
    event at ``_times[i]``. Readers inside the package (the exporters, the
    testkit) read the two lists in place. ``_coerce`` is the kind's
    validator, bound once here so that a push does not look it up.
    ``_event_top`` is its manager's horizon cell, which an append raises.

    ``push`` is the checked entry: it checks the time and validates the
    value, then hands both to ``_put``, the store. A caller that holds a
    cursor time (an int the timeline keeps in signed 64 bits) and a value
    of the signal's kind, such as a driver writing a constant or a value it
    has just checked, calls ``_put`` itself. An event strictly past the last
    appends to both lists and raises the horizon cell, which a driver may do
    in place; every overwrite and insert goes through ``_put``.
    """

    __slots__ = ("device_name", "signal_name", "kind", "is_input", "_times", "_values", "_coerce", "_event_top")

    def __init__(self, device_name: str, signal_name: str, kind: SignalKind, is_input: bool, event_top: list[int]):
        self.device_name = device_name
        self.signal_name = signal_name
        self.kind = kind
        self.is_input = is_input
        self._times: list[int] = []
        self._values: list[object] = []
        self._coerce = _VALIDATORS[kind]
        self._event_top = event_top

    def __repr__(self):
        return f"Signal({self.device_name}.{self.signal_name}, {self.kind.value})"

    def __len__(self) -> int:
        return len(self._times)

    def push(self, value, time: int) -> None:
        """Add an event; appends in O(1) when ``time`` is at or past the last event."""
        if type(time) is not int or not MU_MIN <= time <= MU_MAX:
            raise SignalError(f"event timestamp must be a signed 64-bit int: {short_repr(time)}")
        self._put(self._coerce(value), time)

    def _put(self, value, time: int) -> None:
        """Store ``value`` at ``time``, both already valid: ``push`` without its checks."""
        times = self._times
        if not times or time > times[-1]:
            times.append(time)
            self._values.append(value)
            # Only an append can raise the maximum: an overwrite or insert lands at or below times[-1].
            top = self._event_top
            if time > top[0]:
                top[0] = time
        elif time == times[-1]:
            self._values[-1] = value
        else:
            idx = bisect_left(times, time)
            if times[idx] == time:
                self._values[idx] = value
            else:
                times.insert(idx, time)
                self._values.insert(idx, value)

    def pull(self, time: int):
        """Value of the latest event at or before ``time``; UNKNOWN if there is none."""
        if type(time) is not int:
            raise SignalError(f"pull time must be int, got {short_repr(time)}")
        idx = bisect_right(self._times, time)
        return self._values[idx - 1] if idx else UNKNOWN

    def events(self) -> list[tuple[int, object]]:
        """All events as (time, value) in strictly increasing time order."""
        return list(zip(self._times, self._values))

    def events_in(self, t0: int, t1: int) -> list[tuple[int, object]]:
        """Events with ``t0 <= time <= t1``; both bounds are signed 64-bit ints, as ``push`` takes."""
        if not (type(t0) is int and type(t1) is int and MU_MIN <= t0 <= MU_MAX and MU_MIN <= t1 <= MU_MAX):
            raise SignalError(f"event range bounds must be signed 64-bit ints, got {short_repr(t0)}, {short_repr(t1)}")
        if t0 > t1:
            raise ValueError(f"bad event range: {short_repr(t0)} > {short_repr(t1)}")
        times = self._times
        lo = bisect_left(times, t0)
        hi = bisect_right(times, t1, lo)
        return list(zip(times[lo:hi], self._values[lo:hi]))


def _is_plain_name(name) -> bool:
    """A ``str`` a VCD header holds as it stands: ASCII ``!`` to ``~``, as a VCD is an ASCII file
    that readers split on whitespace, and no ``$`` first, which a reader takes as a keyword."""
    # name[:1] is in "$" for "" and for a name that starts with "$". String methods, not a regex:
    # the check runs for every registered signal, and a fullmatch takes about 100 ns more.
    return (type(name) is str and name.isascii() and name.isprintable() and " " not in name
            and name[:1] not in "$")


class SignalManager:
    """Registry of all signals of one simulation.

    ``event_top`` is the horizon cell its signals share: a one-item list of
    the largest time any of them stores, or MU_MIN before the first event.
    The run's timeline reads it, so a sync costs one read at any signal count.
    """

    def __init__(self):
        self._signals: dict[tuple[str, str], Signal] = {}
        self.event_top = [MU_MIN]

    def register(
        self,
        device_name: str,
        signal_name: str,
        kind: SignalKind,
        is_input: bool = False,
    ) -> Signal:
        if type(kind) is not SignalKind:
            raise TypeError(f"signal kind must be a SignalKind, got {short_repr(kind)}")
        if not (_is_plain_name(device_name) and _is_plain_name(signal_name)):
            raise SignalError(
                "device and signal names must be non-empty strings of printable ASCII '!' to '~' "
                "that do not start with '$', "
                f"got device {short_repr(device_name)}, signal {short_repr(signal_name)}"
            )
        key = (device_name, signal_name)
        if key in self._signals:
            raise DuplicateSignalError(f"duplicate signal {short_repr(device_name)}.{short_repr(signal_name)}")
        signal = Signal(device_name, signal_name, kind, is_input, self.event_top)
        self._signals[key] = signal
        return signal

    def signal(self, device_name: str, signal_name: str) -> Signal:
        try:
            return self._signals[(device_name, signal_name)]
        except KeyError:
            raise UnknownSignalError(f"no such signal: {short_repr(device_name)}.{short_repr(signal_name)}") from None

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._signals

    def __iter__(self) -> Iterator[Signal]:
        return iter(self._signals.values())

    def event_count(self) -> int:
        return sum(len(s) for s in self._signals.values())
