"""Independent reference implementations used to check the simulator.

These stay deliberately naive: the nesting oracle evaluates timing trees by
direct recursion (acceptance criterion 1), the timeline oracle checks each
move against every open frame
(``TestProperties::test_with_blocks_match_naive_timeline`` in
``test_timeline.py``), the signal oracle answers pulls by scanning the full
push log (``TestStore::test_matches_push_log_oracle`` in ``test_signals.py``,
one oracle for each of its three signals; acceptance criterion 2; and the
push replay in ``test_driver_reference.py``), and the Poisson search inverts
a uniform below mean 10 one term at a time, with no kept sums
(``test_rng.py`` and ``test_call_counts.py``). The other layers' references
are written in their harnesses' own files: the per-kind value rule in
``test_signals.py``, the reference drivers in ``test_driver_reference.py``,
the list-based ``assert_events`` and ``expect`` in ``test_testkit.py``, and
the ``json.loads`` reader and the longhand VCD lines in ``test_trace.py``.
No oracle shares code with the package; only ``run_tree``, which runs a
tree on the real timeline, imports it.
"""

import math

from rtsim import ContextKind, TimeManager
from rtsim.timeline import Frame

# Timing-tree nodes: ("delay", d) | ("seq", [children]) | ("par", [children])


def tree_duration(node) -> int:
    """Net cursor advance of one node: seq sums children, par takes max(0, ...)."""
    tag = node[0]
    if tag == "delay":
        return node[1]
    child_durations = [tree_duration(c) for c in node[1]]
    if tag == "seq":
        return sum(child_durations)
    return max(0, *child_durations) if child_durations else 0


def run_tree(manager: TimeManager, node) -> None:
    """Execute a timing tree against the real manager."""
    tag = node[0]
    if tag == "delay":
        manager.delay_mu(node[1])
        return
    with Frame(manager, ContextKind.SEQUENTIAL if tag == "seq" else ContextKind.PARALLEL):
        for child in node[1]:
            run_tree(manager, child)


def poisson_sums(mean: float) -> list:
    """The running sums of the Poisson pmf below mean 10 by the recurrence ``p_k = p_{k-1} * (mean / k)``,
    from ``p_0 = exp(-mean)``, up to the first term that no longer changes the sum."""
    p = s = math.exp(-mean)
    sums, k = [s], 1
    while True:
        p *= mean / k
        if s + p == s:
            return sums
        s += p
        sums.append(s)
        k += 1


def poisson_search(mean: float, u: float) -> int:
    """The sequential search below mean 10, as a stream ran it for every draw before it kept sums: the least k
    whose running sum reaches ``u``, or the k whose term no longer changes the sum."""
    p = s = math.exp(-mean)
    k = 0
    while u > s:
        k += 1
        p *= mean / k
        if s + p == s:
            return k
        s += p
    return k


def random_tree(rng, max_depth: int, max_delays: int, lo: int = -(10**6), hi: int = 10**6):
    """Random timing tree with bounded depth and total delay count."""
    budget = [rng.randint(1, max_delays)]

    def build(depth):
        if budget[0] <= 0:
            return ("delay", 0)
        if depth >= max_depth or rng.random() < 0.4:
            budget[0] -= 1
            return ("delay", rng.randint(lo, hi))
        kind = rng.choice(["seq", "par"])
        children = [build(depth + 1) for _ in range(rng.randint(0, 4))]
        return (kind, children)

    return ("seq", [build(0) for _ in range(rng.randint(1, 6))])


class PushLogOracle:
    """Linear-scan signal store: later pushes at equal timestamps win."""

    def __init__(self):
        self.log = []

    def push(self, time, value):
        self.log.append((time, value))

    def pull(self, time):
        best_t = None
        best = None
        for t, v in self.log:
            if t <= time and (best_t is None or t >= best_t):
                best_t, best = t, v
        return best

    def items(self):
        surviving = {}
        for t, v in self.log:
            surviving[t] = v
        return sorted(surviving.items())

    def range_items(self, t0, t1):
        return [(t, v) for t, v in self.items() if t0 <= t <= t1]


class NaiveTimeline:
    """Cursor and timing frames kept plainly: every delay checks every open frame.

    ``frames`` lists the frames open above the root as ``[kind, start,
    longest]``, ``kind`` being ``"seq"`` or ``"par"``. A move of the cursor
    is accepted iff its end lies in the signed 64-bit range and its distance
    from every open frame's start does too. ``delay_mu`` also needs its
    duration in that range; a sync's or a pop's move does not, as each is
    made of steps that are. A rejected delay or jump raises
    ``OverflowError``, popping the root raises ``IndexError``; either leaves
    the state as it was.
    """

    LOW, HIGH = -(2**63), 2**63 - 1

    def __init__(self, slack: int):
        self.slack = slack
        self.cursor = 0
        self.frames = []
        self.event_times = []
        self.sync_count = 0
        self.first_sync_cursor = None

    @property
    def depth(self) -> int:
        return len(self.frames) + 1

    def fits(self, value: int) -> bool:
        return self.LOW <= value <= self.HIGH

    def parallel(self) -> bool:
        return bool(self.frames) and self.frames[-1][0] == "par"

    def delay_mu(self, d: int) -> None:
        if not self.fits(d):
            raise OverflowError(f"delay of {d}")
        self.move(d)

    def move(self, d: int) -> None:
        end = self.cursor + d
        if not self.fits(end) or not all(self.fits(end - start) for _, start, _ in self.frames):
            raise OverflowError(f"delay of {d} from {self.cursor}")
        if self.parallel():
            self.frames[-1][2] = max(self.frames[-1][2], d)
        else:
            self.cursor = end

    def jump_to(self, t: int) -> int:
        if not self.fits(t - self.cursor):
            raise OverflowError(f"jump from {self.cursor} to {t}")
        return t - self.cursor

    def at_mu(self, t: int) -> None:
        self.delay_mu(self.jump_to(t))

    def push(self, kind: str) -> None:
        self.frames.append([kind, self.cursor, 0 if kind == "par" else None])

    def pop(self) -> None:
        if not self.frames:
            raise IndexError("the root frame cannot be popped")
        kind, start, longest = self.frames.pop()
        duration = longest if kind == "par" else self.cursor - start
        self.cursor = start
        self.move(duration)

    def event(self, t: int) -> None:
        self.event_times.append(t)

    def horizon(self) -> int:
        return max([*self.event_times, self.cursor])

    def sync(self) -> None:
        jump = self.jump_to(self.horizon())
        self.move(max(jump, self.slack) if self.parallel() else jump + self.slack)
        self.sync_count += 1
        if self.first_sync_cursor is None:
            self.first_sync_cursor = self.cursor
