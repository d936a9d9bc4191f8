"""Stimulus and assertion primitives for tests against simulated runs.

Reports are plain data; render with str() or feed ``passed`` straight into
any host test framework's assert.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from typing import Optional

from .environment import SimulationRun
from .signals import UNKNOWN, Signal, SignalError, SignalKind
from .timeline import MU_MAX, MU_MIN, FrozenRecord, short_repr


class CheckReport(FrozenRecord):
    """Outcome of one signal-value check."""

    __slots__ = ("passed", "device", "signal", "time", "expected", "actual", "nearest_before", "nearest_after",
                 "detail")

    def __init__(self, passed: bool, device: str, signal: str, time: Optional[int], expected: object,
                 actual: object, nearest_before: Optional[int], nearest_after: Optional[int], detail: str = ""):
        # One call a field, not a loop: every expect and assert_events call builds a report.
        put = object.__setattr__
        put(self, "passed", passed)
        put(self, "device", device)
        put(self, "signal", signal)
        put(self, "time", time)
        put(self, "expected", expected)
        put(self, "actual", actual)
        put(self, "nearest_before", nearest_before)
        put(self, "nearest_after", nearest_after)
        put(self, "detail", detail)

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = (
            f"{status} {self.device}.{self.signal} @ {short_repr(self.time)}: "
            f"expected {short_repr(self.expected)}, actual {short_repr(self.actual)} "
            f"(nearest events: <= {self.nearest_before}, > {self.nearest_after})"
        )
        if self.detail:
            msg += f" [{self.detail}]"
        return msg

    def __repr__(self) -> str:
        # Each field through short_repr, as in __str__: ``time`` and ``expected`` are the caller's, of any size.
        return f"CheckReport({', '.join(f'{n}={short_repr(getattr(self, n))}' for n in self.__slots__)})"


def _nearest_events(signal: Signal, time: int):
    times = signal._times
    i = bisect_right(times, time)
    return (times[i - 1] if i else None), (times[i] if i < len(times) else None)


def set_input(run: SimulationRun, device: str, signal: str, time: int, value) -> None:
    """Configure an input signal's value from the given time onward."""
    sig = run.signals.signal(device, signal)
    if not sig.is_input:
        raise SignalError(f"{short_repr(device)}.{short_repr(signal)} is not an input signal")
    sig.push(value, time)


def expect(
    run: SimulationRun,
    device: str,
    signal: str,
    time: int,
    expected,
    abs_tol: float = 0.0,
) -> CheckReport:
    """Check the pulled signal value at ``time`` against ``expected``.

    ``time`` must be a signed 64-bit int, as an event time is, else
    ``SignalError``. Pass UNKNOWN as ``expected`` to require that no event
    exists at or before ``time``. Any other ``expected`` is validated against
    the signal's kind, as ``assert_events`` does, so a value of the wrong kind
    raises ``SignalKindMismatch``. Real signals compare within ``abs_tol``,
    an int or float >= 0 (default exact); other kinds compare with ``==``.
    """
    if type(abs_tol) is bool or not isinstance(abs_tol, (int, float)) or not abs_tol >= 0:
        raise ValueError(f"abs_tol must be an int or float >= 0, got {short_repr(abs_tol)}")
    sig = run.signals.signal(device, signal)
    if type(time) is not int or not MU_MIN <= time <= MU_MAX:
        raise SignalError(f"query time must be a signed 64-bit int: {short_repr(time)}")
    if expected is not UNKNOWN:
        expected = sig._coerce(expected)
    actual = sig.pull(time)
    if expected is UNKNOWN or actual is UNKNOWN:
        passed = actual is expected
    elif sig.kind is SignalKind.REAL:
        passed = abs(actual - expected) <= abs_tol
    else:
        passed = actual == expected
    before, after = _nearest_events(sig, time)
    return CheckReport(passed, device, signal, time, expected, actual, before, after)


def _validate_rest(pairs, coerce) -> int:
    """Validate the value of every pair left in ``pairs``; return how many there were."""
    n = 0
    for _, value in pairs:
        coerce(value)
        n += 1
    return n


def assert_events(run: SimulationRun, device: str, signal: str, expected: Iterable) -> CheckReport:
    """Check a signal's full event list, order and values included.

    ``expected`` is an iterable of ``(time, value)`` pairs, read once. Every
    value is validated against the signal's kind, also past a divergence, so
    a bad value or pair raises wherever it stands. Times and values compare
    with ``==`` against the store in place. A failing report holds the first
    divergent ``(time, value)`` pair of each side, or, when one side has
    events left over, the two counts as ``"N events"``. A passing report
    holds the counts too; it keeps no copy of either side.
    """
    sig = run.signals.signal(device, signal)
    times, values, coerce = sig._times, sig._values, sig._coerce
    pairs = iter(expected)
    count = 0
    # zip reads the store first, so it takes no pair once the store has run out.
    for at, av, (t, v) in zip(times, values, pairs):
        v = coerce(v)
        if not (t == at and v == av):
            _validate_rest(pairs, coerce)
            before, after = _nearest_events(sig, at)
            return CheckReport(
                False, device, signal, at, (t, v), (at, av), before, after,
                detail=f"first divergence at event index {count}",
            )
        count += 1
    n_expected = count
    if count < len(times):
        t = times[count]
    else:
        for t, v in pairs:  # the first pair past the last event
            coerce(v)
            n_expected += 1 + _validate_rest(pairs, coerce)
            break
        else:
            return CheckReport(True, device, signal, None, f"{count} events", f"{count} events", None, None)
    # A caller's time past the last event may be of any type; bisect compares only ints with the store.
    before, after = _nearest_events(sig, t) if type(t) is int else (None, None)
    return CheckReport(
        False, device, signal, t,
        f"{n_expected} events", f"{len(times)} events", before, after,
        detail=f"event count mismatch at index {count}",
    )
