"""Timeline cursor simulation.

The cursor is modelled with a stack of timing contexts. Sequential contexts
accumulate delays, parallel contexts remember only the longest positive delay
and apply it when the context exits. All times are signed 64-bit machine
units (MU); 1 MU corresponds to 1 ns at the default reference period.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

MU_MIN = -(2**63)
MU_MAX = 2**63 - 1

REGULAR_SYNC_SLACK_MU = 125_000


class MachineUnitsOverflow(ArithmeticError):
    """A timeline computation left the signed 64-bit machine-unit range."""


class ContextStackError(RuntimeError):
    """Illegal operation on the timing-context stack (e.g. popping the root)."""


def short_repr(value) -> str:
    """``repr(value)``, but an int too long to print whole is shown by its bit length."""
    if isinstance(value, int) and value.bit_length() > 256:
        return f"<{value.bit_length()}-bit int>"
    return repr(value)


def _checked_mu(value: int, op: str) -> int:
    if not MU_MIN <= value <= MU_MAX:
        raise MachineUnitsOverflow(
            f"{op}: result {short_repr(value)} exceeds signed 64-bit machine units"
        )
    return value


def round_half_away_from_zero(x: float) -> int:
    """Round to the nearest integer, ties away from zero (0.5 -> 1, -0.5 -> -1)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def seconds_to_mu(seconds: float, ref_period_s: float) -> int:
    """Convert a time in seconds to machine units.

    Uses round-half-away-from-zero so that symmetric positive and negative
    delays convert symmetrically.
    """
    try:
        if not math.isfinite(seconds):
            raise ValueError(f"non-finite time cannot be converted: {seconds!r}")
        mu = round_half_away_from_zero(seconds / ref_period_s)
    except OverflowError:  # an int too large for a float, or infinite once scaled
        raise MachineUnitsOverflow(
            f"seconds_to_mu: {short_repr(seconds)} s exceeds signed 64-bit machine units"
        ) from None
    return _checked_mu(mu, "seconds_to_mu")


def mu_to_seconds(mu: int, ref_period_s: float) -> float:
    return mu * ref_period_s


class SyncMode(enum.Enum):
    """Slack policy applied when the cursor is synchronized to the counter."""

    REGULAR = "regular"
    OPTIMISTIC = "optimistic"


@dataclass(frozen=True)
class SimConfig:
    """Synchronization configuration of one simulation instance.

    ``sync_slack_mu`` defaults from the mode: 125 000 MU for REGULAR, 0 MU
    for OPTIMISTIC. Pass an explicit value to override.
    """

    mode: SyncMode = SyncMode.REGULAR
    sync_slack_mu: Optional[int] = None
    ref_period_s: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.sync_slack_mu is None:
            slack = REGULAR_SYNC_SLACK_MU if self.mode is SyncMode.REGULAR else 0
            object.__setattr__(self, "sync_slack_mu", slack)
        if type(self.sync_slack_mu) is not int:
            raise TypeError(f"sync_slack_mu must be int, got {self.sync_slack_mu!r}")
        _checked_mu(self.sync_slack_mu, "SimConfig.sync_slack_mu")
        if not 0 < self.ref_period_s < math.inf:
            raise ValueError(f"ref_period_s must be positive and finite: {self.ref_period_s}")
        if type(self.seed) is not int:
            raise TypeError(f"seed must be int, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer: {short_repr(self.seed)}")


class ContextKind(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


@dataclass
class SimulationContext:
    """One frame of the timing-context stack."""

    kind: ContextKind
    t_start: int
    t_current: int = field(init=False)
    t_duration: int = field(init=False, default=0)

    def __post_init__(self):
        self.t_current = self.t_start


class TimeManager:
    """Simulates the timeline cursor and the timeline horizon.

    The manager owns a stack of simulation contexts whose root is a
    sequential frame starting at cursor 0; the root is never popped. The
    horizon is the maximum of the cursor and every event timestamp recorded
    so far, and is the counter estimate used by ``sync_to_counter``.
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        event_max: Optional[Callable[[], Optional[int]]] = None,
    ):
        self.config = config if config is not None else SimConfig()
        self._event_max = event_max if event_max is not None else lambda: None
        self._stack: list[SimulationContext] = [
            SimulationContext(ContextKind.SEQUENTIAL, 0)
        ]
        self.sync_count = 0
        self.first_sync_cursor: Optional[int] = None

    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def _top(self) -> SimulationContext:
        return self._stack[-1]

    def now_mu(self) -> int:
        return self._top.t_current

    def delay_mu(self, d: int) -> None:
        if type(d) is not int:
            raise TypeError(f"delay_mu: machine units must be int, got {d!r}")
        top = self._top
        if top.kind is ContextKind.SEQUENTIAL:
            # Check both sums before moving either, so an overflow changes nothing.
            t_current = _checked_mu(top.t_current + d, "delay_mu")
            top.t_duration = _checked_mu(top.t_duration + d, "delay_mu")
            top.t_current = t_current
        else:
            # Parallel: the cursor stays put, only the longest delay is kept.
            if d > top.t_duration:
                top.t_duration = _checked_mu(d, "delay_mu")

    def delay(self, d_seconds: float) -> None:
        self.delay_mu(seconds_to_mu(d_seconds, self.config.ref_period_s))

    def at_mu(self, t_new: int) -> None:
        if type(t_new) is not int:
            raise TypeError(f"at_mu: machine units must be int, got {t_new!r}")
        top = self._top
        if top.kind is ContextKind.SEQUENTIAL:
            self.delay_mu(_checked_mu(t_new - top.t_current, "at_mu"))
        else:
            self.delay_mu(_checked_mu(t_new - top.t_start, "at_mu"))

    def push_context(self, kind: ContextKind) -> None:
        self._stack.append(SimulationContext(kind, self._top.t_current))

    def pop_context(self) -> None:
        if len(self._stack) == 1:
            raise ContextStackError("the root sequential context cannot be popped")
        frame = self._stack.pop()
        self.delay_mu(frame.t_duration)

    def horizon(self) -> int:
        """Largest of the cursor and all recorded event timestamps."""
        h = self._top.t_current
        ev = self._event_max()
        if ev is not None and ev > h:
            h = ev
        return h

    def sync_to_counter(self) -> int:
        """Move the cursor to the horizon, then insert the configured slack.

        Returns the new cursor position. In a parallel context the two steps
        follow the usual at_mu/delay_mu conversion rules, so the cursor
        itself does not move until the context exits.
        """
        self.at_mu(self.horizon())
        self.delay_mu(self.config.sync_slack_mu)
        self.sync_count += 1
        cursor = self.now_mu()
        if self.first_sync_cursor is None:
            self.first_sync_cursor = cursor
        return cursor
