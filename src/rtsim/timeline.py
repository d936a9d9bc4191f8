"""Timeline cursor simulation.

The cursor is one signed 64-bit int in machine units (MU) of the fixed
hardware reference period, 1 MU = 1 ns. Timing frames nest above a root
sequential frame. A sequential frame adds its delays to the cursor and keeps
only its start; a parallel frame leaves the cursor at its start, keeps the
longest delay seen in it, and advances its parent by that delay on exit.
"""

from __future__ import annotations

import enum
import math
import reprlib

MU_MIN = -(2**63)
MU_MAX = 2**63 - 1

# Seconds per machine unit. Fixed, so every trace and export reads 1 MU as 1 ns.
REF_PERIOD_S = 1e-9

REGULAR_SYNC_SLACK_MU = 125_000


class MachineUnitsOverflow(ArithmeticError):
    """A timeline computation left the signed 64-bit machine-unit range."""


class ContextStackError(RuntimeError):
    """Illegal operation on the timing-context stack (e.g. popping the root)."""


# short_repr shows a value in an error message: one level deep, 60 characters a string, a big int by its bit length.
_SHORT_REPR = reprlib.Repr()
_SHORT_REPR.maxlevel, _SHORT_REPR.maxstring, _SHORT_REPR.maxother = 1, 60, 60
_SHORT_REPR.repr_bytes = _SHORT_REPR.repr_bytearray = _SHORT_REPR.repr_str
_SHORT_REPR.repr_int = lambda x, level: f"<{x.bit_length()}-bit int>" if x.bit_length() > 256 else repr(x)
short_repr = _SHORT_REPR.repr


def _checked_mu(value: int, op: str) -> int:
    if not MU_MIN <= value <= MU_MAX:
        raise MachineUnitsOverflow(
            f"{op}: result {short_repr(value)} exceeds signed 64-bit machine units"
        )
    return value


def round_half_away_from_zero(x: float) -> int:
    """Round to the nearest integer, ties away from zero (0.5 -> 1, -0.5 -> -1), exactly for every finite float.

    ``floor(x + 0.5)`` would round the sum first (0.49999999999999994 + 0.5 is 1.0); ``a - floor(a)``
    is exact for ``a >= 0``.
    """
    a = abs(x)
    n = math.floor(a)
    if a - n >= 0.5:
        n += 1
    return n if x >= 0 else -n


def seconds_to_mu(seconds: float) -> int:
    """Convert a time in seconds to machine units.

    Uses round-half-away-from-zero so that symmetric positive and negative
    delays convert symmetrically. A bool raises ``TypeError``, as in ``delay_mu``.
    """
    if type(seconds) is bool:
        raise TypeError(f"seconds_to_mu: a bool is not a time in seconds, got {short_repr(seconds)}")
    try:
        if not math.isfinite(seconds):
            raise ValueError(f"non-finite time cannot be converted: {short_repr(seconds)}")
        mu = round_half_away_from_zero(seconds / REF_PERIOD_S)
    except OverflowError:  # an int too large for a float, or infinite once scaled
        raise MachineUnitsOverflow(
            f"seconds_to_mu: {short_repr(seconds)} s exceeds signed 64-bit machine units"
        ) from None
    return _checked_mu(mu, "seconds_to_mu")


class SyncMode(enum.Enum):
    """Slack policy applied when the cursor is synchronized to the counter."""

    REGULAR = "regular"
    OPTIMISTIC = "optimistic"


class Record:
    """A frozen record, fields in ``__slots__``: ``==``, ``hash`` and ``repr`` as a frozen dataclass's, minus the
    import's cost. ``__init__`` sets the fields with ``object.__setattr__``; nothing sets them after."""

    __slots__ = ()

    def _set(self, values: dict) -> None:
        """Set every field from ``values``: ``locals()`` of an ``__init__`` that takes the fields as arguments."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):  # so copy and pickle build it with __init__, not with __setattr__
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class SimConfig(Record):
    """Synchronization configuration of one simulation instance."""

    __slots__ = ("mode", "seed")

    def __init__(self, mode: SyncMode = SyncMode.REGULAR, seed: int = 0):
        if type(mode) is not SyncMode:
            raise TypeError(f"mode must be a SyncMode, got {short_repr(mode)}")
        if type(seed) is not int:
            raise TypeError(f"seed must be int, got {short_repr(seed)}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer: {short_repr(seed)}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "seed", seed)

    @property
    def sync_slack_mu(self) -> int:
        """Slack each sync inserts: 125 000 MU for REGULAR, 0 MU for OPTIMISTIC."""
        return REGULAR_SYNC_SLACK_MU if self.mode is SyncMode.REGULAR else 0


class ContextKind(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"


class TimeManager:
    """Simulates the timeline cursor and the timeline horizon.

    The cursor is one int, ``_now``. A timing frame is four fields: start,
    longest delay (None if sequential) and cursor window ``[lo, hi]``. The
    innermost frame's are ``_start``, ``_longest``, ``_lo`` and ``_hi``;
    ``_enclosing`` stacks the frames around it as 4-tuples of the same
    fields. The root frame, ``(0, None, MU_MIN, MU_MAX)``, is never popped.
    A sequential frame's duration is ``_now - start``; a parallel frame keeps
    the cursor at its start and the longest delay seen in it. ``Frame``
    pushes and pops frames; a run's ``sequential()`` and ``parallel()``
    each return one. A pushed frame's window is ``[start + MU_MIN, start + MU_MAX]``
    clipped to its parent's, so a time in it keeps every open frame's
    duration in 64 bits. Every delay must end in the innermost window, and
    a ``delay_mu`` or ``at_mu`` step must be a signed 64-bit int, checked
    before any state changes, so a delay, jump or sync that raises leaves
    the cursor and the frames as they were. Windows nest, so the duration
    a pop re-applies lands in the parent's: a pop cannot overflow.
    ``horizon()``, the counter estimate of ``sync_to_counter``, is the larger
    of the cursor and ``event_top[0]``: the largest event time, in the
    one-item list a ``SignalManager``'s signals share, or MU_MIN. The sync
    slack is read from ``config`` once, when the timeline is built.
    """

    def __init__(self, config: SimConfig | None = None, event_top: list[int] | None = None):
        self._slack = (config if config is not None else SimConfig()).sync_slack_mu
        self._event_top = event_top if event_top is not None else [MU_MIN]
        self._now = 0
        self._start, self._longest, self._lo, self._hi = 0, None, MU_MIN, MU_MAX
        self._enclosing: list[tuple[int, int | None, int, int]] = []
        self.sync_count = 0
        self.first_sync_cursor: int | None = None

    @property
    def depth(self) -> int:
        return len(self._enclosing) + 1

    def now_mu(self) -> int:
        return self._now

    def delay_mu(self, d: int) -> int:
        """Delay by ``d`` MU and return the end time, ``now_mu() + d``, computed and checked.

        In a sequential frame the end time is the new cursor; in a parallel
        frame the cursor stays at the frame start, so a driver stores its
        later edge at the returned time.
        """
        if type(d) is not int:
            raise TypeError(f"delay_mu: machine units must be int, got {short_repr(d)}")
        now = self._now + d
        if not self._lo <= now <= self._hi:
            raise MachineUnitsOverflow(f"delay_mu: end time {short_repr(now)} is outside [{self._lo}, {self._hi}], "
                                       "where every open frame's duration fits in signed 64 bits")
        if not MU_MIN <= d <= MU_MAX:  # after the window test, so a delay that fails both keeps its text
            raise MachineUnitsOverflow(f"delay_mu: duration {short_repr(d)} exceeds signed 64-bit machine units")
        if self._longest is None:
            self._now = now
        elif d > self._longest:
            # Parallel: the cursor stays put, only the longest delay is kept.
            self._longest = d
        return now

    def delay(self, d_seconds: float) -> None:
        self.delay_mu(seconds_to_mu(d_seconds))

    def at_mu(self, t_new: int) -> None:
        if type(t_new) is not int:
            raise TypeError(f"at_mu: machine units must be int, got {short_repr(t_new)}")
        # In a parallel frame the cursor is the frame start, so one rule serves both kinds.
        self.delay_mu(_checked_mu(t_new - self._now, "at_mu"))

    def horizon(self) -> int:
        """Largest of the cursor and all recorded event timestamps."""
        top = self._event_top[0]
        return top if top > self._now else self._now

    def sync_to_counter(self) -> int:
        """Move the cursor to the horizon, then insert the configured slack.

        Returns the new cursor position. This is ``at_mu(horizon())`` followed
        by ``delay_mu(sync_slack_mu)``, taken as one delay: in a sequential
        frame the cursor moves once, to horizon + slack, so a sync that
        overflows changes nothing. In a parallel frame the jump and the slack
        are two candidates for the longest delay, and the cursor itself does
        not move until the frame exits.
        """
        now, top, slack = self._now, self._event_top[0], self._slack
        jump = top - now if top > now else 0
        d = jump + slack if self._longest is None else (jump if jump > slack else slack)
        if jump > MU_MAX or not self._lo <= now + d <= self._hi:
            _checked_mu(jump, "at_mu")
            self.delay_mu(d)  # raises: the end is outside the window
        if self._longest is None:
            self._now = now + d
        elif d > self._longest:
            self._longest = d
        self.sync_count += 1
        if self.first_sync_cursor is None:
            self.first_sync_cursor = self._now
        return self._now


class Frame:
    """``with`` block of one timing-frame kind: push on entry, pop on exit.

    It holds no state of its own, so one object per kind serves every frame
    of a timeline, nested ones too; the timeline keeps none, so no reference
    cycle forms. A pop re-applies the popped duration with no window check,
    as windows nest. ``__exit__`` returns None, so an exception from the
    block propagates, after the pop.
    """

    __slots__ = ("_time", "_longest")

    def __init__(self, time: TimeManager, kind: ContextKind):
        if type(kind) is not ContextKind:
            raise TypeError(f"frame kind must be a ContextKind, got {short_repr(kind)}")
        self._time = time
        self._longest = None if kind is ContextKind.SEQUENTIAL else 0  # a new frame's longest delay

    def __enter__(self) -> None:
        time = self._time
        start = time._now
        time._enclosing.append((time._start, time._longest, time._lo, time._hi))
        time._start, time._longest = start, self._longest
        if start + MU_MIN > time._lo:
            time._lo = start + MU_MIN
        if start + MU_MAX < time._hi:
            time._hi = start + MU_MAX

    def __exit__(self, typ, value, tb) -> None:
        time = self._time
        if not time._enclosing:
            raise ContextStackError("the root sequential context cannot be popped")
        start, longest = time._start, time._longest
        duration = time._now - start if longest is None else longest
        time._start, time._longest, time._lo, time._hi = time._enclosing.pop()
        if time._longest is None:
            time._now = start + duration
        else:
            time._now = start
            if duration > time._longest:
                time._longest = duration
