"""Stimulus and assertion primitives for tests against simulated runs.

Reports are plain data; render with str() or feed ``passed`` straight into
any host test framework's assert.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .environment import SimulationRun
from .signals import UNKNOWN, Signal, SignalError, SignalKind


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one signal-value check."""

    passed: bool
    device: str
    signal: str
    time: Optional[int]
    expected: object
    actual: object
    nearest_before: Optional[int]
    nearest_after: Optional[int]
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = (
            f"{status} {self.device}.{self.signal} @ {self.time}: "
            f"expected {self.expected!r}, actual {self.actual!r} "
            f"(nearest events: <= {self.nearest_before}, > {self.nearest_after})"
        )
        if self.detail:
            msg += f" [{self.detail}]"
        return msg


def _nearest_events(signal: Signal, time: int):
    times = signal._times
    i = bisect_right(times, time)
    return (times[i - 1] if i else None), (times[i] if i < len(times) else None)


def set_input(run: SimulationRun, device: str, signal: str, time: int, value) -> None:
    """Configure an input signal's value from the given time onward."""
    sig = run.signals.signal(device, signal)
    if not sig.is_input:
        raise SignalError(f"{device}.{signal} is not an input signal")
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

    Pass UNKNOWN as ``expected`` to require that no event exists at or
    before the queried time. Real signals compare with ``abs_tol``
    (default exact).
    """
    sig = run.signals.signal(device, signal)
    actual = sig.pull(time)
    if expected is UNKNOWN or actual is UNKNOWN:
        passed = actual is expected
    elif sig.kind is SignalKind.REAL:
        passed = abs(actual - expected) <= abs_tol
    else:
        passed = actual == expected and type(actual) is type(expected)
    before, after = _nearest_events(sig, time)
    return CheckReport(passed, device, signal, time, expected, actual, before, after)


def assert_events(run: SimulationRun, device: str, signal: str, expected: list) -> CheckReport:
    """Check a signal's full event list, order and values included."""
    sig = run.signals.signal(device, signal)
    actual = sig.events()
    expected = [(t, sig.kind.coerce(v)) for t, v in expected]
    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            before, after = _nearest_events(sig, act[0])
            return CheckReport(
                False, device, signal, act[0], exp, act, before, after,
                detail=f"first divergence at event index {i}",
            )
    if len(expected) != len(actual):
        i = min(len(expected), len(actual))
        t = (actual if i < len(actual) else expected)[i][0]  # the lengths differ, so one has index i
        before, after = _nearest_events(sig, t)
        return CheckReport(
            False, device, signal, t,
            f"{len(expected)} events", f"{len(actual)} events", before, after,
            detail=f"event count mismatch at index {i}",
        )
    return CheckReport(True, device, signal, None, expected, actual, None, None)
