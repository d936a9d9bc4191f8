import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import (
    ContextKind,
    ContextStackError,
    DeviceDb,
    MachineUnitsOverflow,
    SignalKind,
    SignalManager,
    SimConfig,
    SimulationRun,
    SyncMode,
    TimeManager,
    seconds_to_mu,
)
from rtsim.timeline import MU_MAX, MU_MIN, Frame, round_half_away_from_zero

from oracles import NaiveTimeline, run_tree, tree_duration

SEQ = ContextKind.SEQUENTIAL
PAR = ContextKind.PARALLEL


def timeline_and_signal(mode=SyncMode.REGULAR):
    """A timeline on a real ``SignalManager``'s horizon cell, and one signal of that manager."""
    signals = SignalManager()
    sig = signals.register("d", "s", SignalKind.INT)
    return TimeManager(SimConfig(mode=mode), signals.event_top), sig


def manager(mode=SyncMode.REGULAR, events=()):
    """A timeline whose signals hold an event at each of ``events``."""
    tm, sig = timeline_and_signal(mode)
    for t in events:
        sig.push(0, t)
    return tm


mu_values = st.integers(min_value=MU_MIN, max_value=MU_MAX)


def pop_outcome(tm):
    """Pop the open frame; return whether that overflowed, and the cursor after."""
    try:
        Frame(tm, SEQ).__exit__(None, None, None)
    except MachineUnitsOverflow:
        return "overflow", tm.now_mu()
    return "ok", tm.now_mu()


def frames(tm):
    """Every open frame, the root first, as ``(start, longest, lo, hi)``."""
    return [*tm._enclosing, (tm._start, tm._longest, tm._lo, tm._hi)]


def state(tm):
    """Everything a raising op must leave as it was."""
    return tm.now_mu(), tm.depth, frames(tm), tm.sync_count, tm.first_sync_cursor


# Times within 200 000 MU of either end of the range or of 0, so a program
# often lands on a window edge, with or without the 125 000 MU sync slack.
# Delays also reach ±2**64, past the signed 64-bit range both ways.
edge_times = st.one_of(
    st.integers(min_value=MU_MIN, max_value=MU_MIN + 200_000),
    st.integers(min_value=-200_000, max_value=200_000),
    st.integers(min_value=MU_MAX - 200_000, max_value=MU_MAX),
)
frame_ops = st.one_of(
    st.tuples(st.just("push"), st.sampled_from([SEQ, PAR])),
    st.just(("pop",)),
    st.tuples(st.just("delay_mu"), st.one_of(edge_times, st.sampled_from([MU_MIN, MU_MAX]),
                                             st.integers(min_value=-(2**64), max_value=2**64))),
    st.tuples(st.just("at_mu"), edge_times),
    st.tuples(st.just("event"), edge_times),
    st.just(("sync",)),
)
frame_programs = st.lists(frame_ops, max_size=30)
# As above, plus a raise, which leaves the innermost ``with`` block by an exception.
block_programs = st.lists(st.one_of(frame_ops, st.just(("raise",))), max_size=30)
CORE_DDB = DeviceDb.from_dict({"devices": [{"name": "core", "kind": "core"}]})


class BlockError(Exception):
    """Raised by a program's body to leave the innermost ``with`` block."""


# The oracle's error for each of the timeline's.
ORACLE_ERRORS = {MachineUnitsOverflow: OverflowError, ContextStackError: IndexError}


def raised(op, *args):
    """The type of the exception that ``op(*args)`` raises, or None."""
    try:
        op(*args)
    except Exception as exc:
        return type(exc)
    return None


class TestConfig:
    def test_regular_default_slack(self):
        assert SimConfig(mode=SyncMode.REGULAR).sync_slack_mu == 125_000

    def test_optimistic_default_slack(self):
        assert SimConfig(mode=SyncMode.OPTIMISTIC).sync_slack_mu == 0

    def test_slack_is_set_by_mode_only(self):
        with pytest.raises(TypeError, match="sync_slack_mu"):
            SimConfig(mode=SyncMode.REGULAR, sync_slack_mu=7)
        with pytest.raises(TypeError, match="ref_period_s"):  # 1 MU is 1 ns, fixed
            SimConfig(mode=SyncMode.REGULAR, ref_period_s=8e-9)
        config = SimConfig(mode=SyncMode.OPTIMISTIC)
        with pytest.raises(AttributeError):
            config.sync_slack_mu = 7
        assert config.sync_slack_mu == 0

    def test_mode_must_be_sync_mode(self):
        # A plain string would get the optimistic slack of 0 and fail later, at export.
        for bad in ("regular", "optimistic", None):
            with pytest.raises(TypeError, match="mode must be a SyncMode"):
                SimConfig(mode=bad)

    def test_seed_range(self):
        for bad in (-1, 2**64, 10**5000):
            with pytest.raises(ValueError, match="unsigned 64-bit"):
                SimConfig(seed=bad)
        for bad in (True, 1.5):
            with pytest.raises(TypeError, match="seed must be int"):
                SimConfig(seed=bad)


class TestNowAndDelay:
    def test_fresh_manager_starts_at_zero(self):
        assert manager().now_mu() == 0

    def test_delay_advances_cursor(self):
        tm = manager()
        tm.delay_mu(100)
        assert tm.now_mu() == 100

    def test_delay_returns_the_end_time(self):
        tm = manager()
        end = tm.delay_mu(1000)
        # Sequential: the end time is the cursor object itself, not a second int.
        assert end == 1000 and end is tm.now_mu()
        with Frame(tm, PAR):
            assert tm.delay_mu(50) == 1050
            assert tm.delay_mu(-20) == 980
            assert tm.now_mu() == 1000

    def test_parallel_delay_leaves_cursor(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            tm.delay_mu(50)
            assert tm.now_mu() == 1000

    def test_two_sequential_delays_compose_additively(self):
        tm = manager()
        tm.delay_mu(40)
        tm.delay_mu(60)
        tm2 = manager()
        tm2.delay_mu(100)
        assert tm.now_mu() == tm2.now_mu() == 100

    def test_parallel_exit_takes_longest_delay(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            tm.delay_mu(30)
            tm.delay_mu(50)
            assert tm.now_mu() == 1000
        assert tm.now_mu() == 1050

    def test_parallel_negative_delay_advances_zero(self):
        tm = manager()
        tm.delay_mu(500)
        with Frame(tm, PAR):
            tm.delay_mu(-20)
        assert tm.now_mu() == 500

    def test_negative_delay_moves_cursor_back(self):
        tm = manager()
        tm.delay_mu(100)
        tm.delay_mu(-30)
        assert tm.now_mu() == 70

    def test_delay_overflow_is_reported(self):
        tm = manager()
        tm.delay_mu(2**62)
        with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
            tm.delay_mu(2**62)
        with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
            tm.delay_mu(10**5000)

    @pytest.mark.parametrize("op", ["delay_mu", "at_mu"])
    def test_parallel_delay_past_mu_max_raises_at_the_delay(self, op):
        # The delay itself fits; the frame start plus the delay does not.
        tm = manager()
        tm.at_mu(MU_MAX - 5)
        with Frame(tm, SEQ):
            with Frame(tm, PAR):
                tm.delay_mu(5)
                with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                    getattr(tm, op)(100 if op == "delay_mu" else MU_MAX + 95)
                assert tm.now_mu() == MU_MAX - 5
                # Both frames start at MU_MAX - 5, so both windows begin at -6.
                assert frames(tm) == [(0, None, MU_MIN, MU_MAX), (MU_MAX - 5, None, -6, MU_MAX),
                                      (MU_MAX - 5, 5, -6, MU_MAX)]
            assert tm.now_mu() == MU_MAX

    def test_frame_duration_overflow_leaves_cursor(self):
        # The cursor sum fits, only the frame's duration overflows.
        tm = manager()
        tm.at_mu(MU_MIN)
        with Frame(tm, SEQ):
            tm.delay_mu(MU_MAX)
            with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                tm.delay_mu(1)
            assert tm.now_mu() == -1
        assert tm.now_mu() == -1  # the frame's duration was still MU_MAX

    @pytest.mark.parametrize("inner", [SEQ, PAR])
    def test_enclosing_frame_overflow_raises_at_the_delay(self, inner):
        # The inner frame has room for 1 MU more; the outer one, which started
        # at MU_MIN and already lasts MU_MAX, has none.
        tm = manager()
        tm.at_mu(MU_MIN)
        with Frame(tm, SEQ):
            tm.at_mu(-1)
            with Frame(tm, inner):
                before = frames(tm)
                assert before == [(0, None, MU_MIN, MU_MAX), (MU_MIN, None, MU_MIN, -1),
                                  (-1, None if inner is SEQ else 0, MU_MIN, -1)]
                with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                    tm.delay_mu(1)
                assert (tm.now_mu(), tm.depth, frames(tm)) == (-1, 3, before)
        assert (tm.now_mu(), tm.depth) == (-1, 1)

    def test_parallel_negative_delay_below_the_window_raises(self):
        # Like a sequential frame, a parallel one takes no delay that ends below MU_MIN.
        tm = manager()
        tm.at_mu(MU_MIN)
        with Frame(tm, PAR):
            with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                tm.delay_mu(-1)
            assert frames(tm) == [(0, None, MU_MIN, MU_MAX), (MU_MIN, 0, MU_MIN, -1)]
        assert tm.now_mu() == MU_MIN

    def test_excursion_past_an_enclosing_window_raises_at_once(self):
        # delay_mu(20) then delay_mu(-11) would end inside every frame, but the
        # first delay alone takes the outer frame's duration past MU_MAX.
        tm = manager()
        tm.at_mu(MU_MIN)
        with Frame(tm, SEQ):
            tm.at_mu(-10)
            with Frame(tm, SEQ):
                with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                    tm.delay_mu(20)
                assert tm.now_mu() == -10
                tm.delay_mu(9)  # up to the outer frame's last MU
        assert tm.now_mu() == -1

    @pytest.mark.parametrize("start, d", [(MU_MIN, 2**64 - 1), (MU_MIN, 2**63), (MU_MAX, -(2**64 - 1)),
                                          (MU_MAX, MU_MIN - 1)])
    def test_duration_past_64_bits_raises_when_its_end_fits(self, start, d):
        # The end, start + d, lies in the cursor's window; the duration itself does not fit in signed 64 bits.
        tm = manager()
        tm.at_mu(start)
        assert MU_MIN <= start + d <= MU_MAX
        with pytest.raises(MachineUnitsOverflow, match=r"delay_mu: duration .* exceeds signed 64-bit"):
            tm.delay_mu(d)
        assert (tm.now_mu(), frames(tm)) == (start, [(0, None, MU_MIN, MU_MAX)])

    @pytest.mark.parametrize("start, d", [(MU_MIN, MU_MAX), (MU_MAX, MU_MIN)])
    def test_longest_signed_64_bit_durations_are_accepted(self, start, d):
        tm = manager()
        tm.at_mu(start)
        assert tm.delay_mu(d) == tm.now_mu() == -1

    def test_delay_past_both_bounds_keeps_the_end_time_text(self):
        # The window is checked first, so a delay whose end and duration both overflow raises as before.
        tm = manager()
        with pytest.raises(MachineUnitsOverflow, match="delay_mu: end time 18446744073709551616 is outside"):
            tm.delay_mu(2**64)
        assert tm.now_mu() == 0


class TestDelaySeconds:
    def test_microsecond_converts_to_thousand_mu(self):
        tm = manager()
        tm.delay(1e-6)
        assert tm.now_mu() == 1000

    def test_zero_is_noop(self):
        tm = manager()
        tm.delay(0.0)
        assert tm.now_mu() == 0

    def test_half_mu_rounds_away_from_zero(self):
        tm = manager()
        tm.delay(1.5e-9)
        assert tm.now_mu() == 2
        tm.delay(-1.5e-9)
        assert tm.now_mu() == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            manager().delay(bad)

    @pytest.mark.parametrize(
        "x,expected",
        [(0.5, 1), (-0.5, -1), (1.5, 2), (2.5, 3), (-2.5, -3), (0.4, 0), (-0.4, 0)],
    )
    def test_rounding_rule(self, x, expected):
        assert round_half_away_from_zero(x) == expected

    def test_seconds_to_mu_helper(self):
        assert seconds_to_mu(1.5e-9) == 2

    @pytest.mark.parametrize("seconds", [10**5000, 1e300, -1e300], ids=["10**5000", "1e300", "-1e300"])
    def test_huge_seconds_overflow(self, seconds):
        with pytest.raises(MachineUnitsOverflow, match="seconds_to_mu"):
            seconds_to_mu(seconds)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected_before_the_cursor_moves(self, flag):
        # seconds_to_mu(True) would be one second, as delay_mu(True) would be 1 MU.
        tm = manager()
        tm.delay_mu(7)
        with pytest.raises(TypeError, match="bool"):
            tm.delay(flag)
        assert tm.now_mu() == 7
        with pytest.raises(TypeError, match="bool"):
            seconds_to_mu(flag)

    def test_huge_delay_overflows_and_leaves_cursor(self):
        tm = manager()
        with pytest.raises(MachineUnitsOverflow, match="seconds_to_mu"):
            tm.delay(1e300)
        assert tm.now_mu() == 0


class TestAtMu:
    def test_sequential_jump_is_instant(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            with Frame(tm, SEQ):
                tm.delay_mu(100)
                tm.at_mu(1250)
                assert tm.now_mu() == 1250
            assert tm.now_mu() == 1000  # back at the parallel frame's start
        assert tm.now_mu() == 1250  # the sequential frame lasted 250

    def test_sequential_duration_gains_difference(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, SEQ):
            tm.delay_mu(100)
            tm.at_mu(1250)
        assert tm.now_mu() == 1250

    def test_parallel_records_candidate_duration(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            tm.at_mu(1500)
            assert tm.now_mu() == 1000
        assert tm.now_mu() == 1500

    def test_jump_to_current_position_is_noop(self):
        tm = manager()
        tm.delay_mu(77)
        with Frame(tm, PAR), Frame(tm, SEQ):
            tm.delay_mu(23)
            tm.at_mu(tm.now_mu())
            assert tm.now_mu() == 100
        assert tm.now_mu() == 100

    def test_backwards_jump_reduces_propagated_duration(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, SEQ):
            tm.delay_mu(500)
            tm.at_mu(1200)
        assert tm.now_mu() == 1200


class TestContextStack:
    def test_pushed_frame_inherits_cursor(self):
        tm = manager()
        tm.delay_mu(42)
        with Frame(tm, PAR), Frame(tm, SEQ):
            assert tm.now_mu() == 42
            tm.delay_mu(8)
        assert tm.now_mu() == 50  # the frame started at 42, with nothing carried in

    def test_push_pop_without_delays_keeps_parent(self):
        tm = manager()
        tm.delay_mu(10)
        with Frame(tm, PAR):
            pass
        assert tm.now_mu() == 10

    def test_nested_parallel_with_sequential_branch(self):
        # parallel{ sequential{10; 20}; 5 } advances the parent by 30.
        tree = ("par", [("seq", [("delay", 10), ("delay", 20)]), ("delay", 5)])
        assert tree_duration(tree) == 30
        tm = manager()
        run_tree(tm, tree)
        assert tm.now_mu() == 30

    def test_pop_parallel_duration_into_sequential_parent(self):
        tm = manager()
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            tm.delay_mu(50)
        assert tm.now_mu() == 1050

    def test_pop_negative_sequential_into_parallel_parent(self):
        tm = manager()
        with Frame(tm, PAR):
            tm.delay_mu(20)
            with Frame(tm, SEQ):
                tm.delay_mu(-30)
            assert tm.now_mu() == 0  # the parallel frame's start
        assert tm.now_mu() == 20  # max(20, -30)

    def test_pop_empty_frame_keeps_parent(self):
        tm = manager()
        tm.delay_mu(5)
        with Frame(tm, SEQ):
            pass
        assert tm.now_mu() == 5

    def test_root_cannot_be_popped(self):
        with pytest.raises(ContextStackError, match="root sequential context"):
            Frame(manager(), SEQ).__exit__(None, None, None)

    @pytest.mark.parametrize("kind", ["sequential", "parallel", None, 0, SyncMode.REGULAR])
    def test_kind_that_is_not_a_context_kind_raises(self, kind):
        # A kind checked only by ``is SEQUENTIAL`` takes "sequential" as parallel: delays of 10 and 20 end at 20.
        tm = manager()
        with pytest.raises(TypeError, match="must be a ContextKind"):
            Frame(tm, kind)
        assert state(tm) == (0, 1, [(0, None, MU_MIN, MU_MAX)], 0, None)

    def test_depth_counts_open_frames_and_root(self):
        tm = manager()
        assert tm.depth == 1
        for kind in (SEQ, PAR, SEQ):
            Frame(tm, kind).__enter__()
        assert tm.depth == 4
        for expected in (3, 2, 1):
            Frame(tm, SEQ).__exit__(None, None, None)
            assert tm.depth == expected
        with pytest.raises(ContextStackError):
            Frame(tm, SEQ).__exit__(None, None, None)
        assert tm.depth == 1


class TestHorizonAndSync:
    def test_horizon_prefers_events(self):
        tm = manager(events=[10, 500])
        tm.delay_mu(100)
        assert tm.horizon() == 500

    def test_horizon_is_cursor_without_events(self):
        tm = manager()
        tm.delay_mu(42)
        assert tm.horizon() == 42

    def test_horizon_covers_negative_delays(self):
        tm = manager(events=[120])
        tm.delay_mu(140)
        tm.delay_mu(-50)
        assert tm.now_mu() == 90
        assert tm.horizon() == 120

    def test_regular_sync_adds_slack_to_horizon(self):
        tm = manager(mode=SyncMode.REGULAR, events=[2000])
        tm.delay_mu(1500)
        assert tm.sync_to_counter() == 127_000
        assert tm.now_mu() == 127_000

    def test_optimistic_sync_lands_on_horizon(self):
        tm = manager(mode=SyncMode.OPTIMISTIC, events=[2000])
        tm.delay_mu(1500)
        assert tm.sync_to_counter() == 2000

    def test_fresh_regular_sync_is_slack_only(self):
        tm = manager(mode=SyncMode.REGULAR)
        assert tm.sync_to_counter() == 125_000

    def test_sync_counts_and_first_cursor(self):
        tm = manager()
        tm.sync_to_counter()
        tm.delay_mu(10)
        tm.sync_to_counter()
        assert tm.sync_count == 2
        assert tm.first_sync_cursor == 125_000

    def test_sync_inside_parallel_defers_to_exit(self):
        # The cursor only moves when the parallel context exits; the sync's
        # at_mu+delay pair becomes max-based duration candidates.
        tm = manager(events=[3000])
        tm.delay_mu(1000)
        with Frame(tm, PAR):
            tm.sync_to_counter()
            assert tm.now_mu() == 1000
        # at_mu(3000) proposes 2000, delay(125000) proposes max(2000, 125000).
        assert tm.now_mu() == 1000 + 125_000

    @pytest.mark.parametrize(
        "start,kind,event,match",
        [
            (None, None, MU_MAX - 10, "delay_mu"),  # horizon + slack overflows
            # The first sync leaves the cursor at 125 000, so from there
            # MU_MIN + 125 000 is the lowest start that at_mu can reach.
            (MU_MIN + 125_000, SEQ, 0, "delay_mu"),  # only the frame's duration overflows
            (MU_MIN + 125_000, SEQ, 200_000, "at_mu"),  # the jump to the horizon overflows
            (MU_MIN + 125_000, PAR, 200_000, "at_mu"),
        ],
        ids=["horizon-plus-slack", "frame-duration", "jump-sequential", "jump-parallel"],
    )
    def test_failed_sync_changes_nothing(self, start, kind, event, match):
        tm, sig = timeline_and_signal()
        if kind is not None:
            tm.sync_to_counter()  # so sync_count and first_sync_cursor are set
            tm.at_mu(start)
            Frame(tm, kind).__enter__()
        sig.push(0, event)
        before = (tm.now_mu(), tm.depth, tm.sync_count, tm.first_sync_cursor)
        with pytest.raises(MachineUnitsOverflow, match=match):
            tm.sync_to_counter()
        assert (tm.now_mu(), tm.depth, tm.sync_count, tm.first_sync_cursor) == before


class TestProperties:
    @given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=50))
    def test_sequential_fold(self, durations):
        tm = manager()
        for d in durations:
            tm.delay_mu(d)
        assert tm.now_mu() == sum(durations)

    @given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=50))
    def test_parallel_exit_law(self, durations):
        tm = manager()
        tm.delay_mu(1234)
        with Frame(tm, PAR):
            for d in durations:
                tm.delay_mu(d)
        assert tm.now_mu() == 1234 + max([0, *durations])

    @given(
        st.recursive(
            st.tuples(st.just("delay"), st.integers(min_value=-(10**6), max_value=10**6)),
            lambda node: st.tuples(
                st.sampled_from(["seq", "par"]), st.lists(node, max_size=4)
            ),
            max_leaves=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_nesting_matches_recursive_oracle(self, tree):
        tm = manager()
        run_tree(tm, tree)
        assert tm.now_mu() == tree_duration(tree)

    @given(
        st.integers(min_value=-(10**9), max_value=10**9),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.sampled_from([SEQ, PAR]),
    )
    def test_at_mu_equals_delay_of_difference(self, start, target, kind):
        tm_a = manager()
        tm_a.delay_mu(start)
        tm_b = manager()
        tm_b.delay_mu(start)
        with Frame(tm_a, kind), Frame(tm_b, kind):
            tm_a.at_mu(target)
            tm_b.delay_mu(target - tm_b.now_mu())  # a parallel frame's cursor is its start
            assert tm_a.now_mu() == tm_b.now_mu()
        assert tm_a.now_mu() == tm_b.now_mu()

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=60))
    def test_horizon_monotone_for_non_negative_delays(self, delays):
        tm = manager()
        last = tm.horizon()
        for d in delays:
            tm.delay_mu(d)
            now = tm.horizon()
            assert now >= last
            last = now

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("delay"), st.integers(min_value=0, max_value=10**6)),
                st.just(("sync",)),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_config_law_final_cursor(self, program):
        cursors = {}
        for mode in (SyncMode.REGULAR, SyncMode.OPTIMISTIC):
            tm = manager(mode=mode)
            for item in program:
                if item[0] == "delay":
                    tm.delay_mu(item[1])
                else:
                    tm.sync_to_counter()
            cursors[mode] = tm.now_mu()
        syncs = sum(1 for item in program if item[0] == "sync")
        assert cursors[SyncMode.REGULAR] - cursors[SyncMode.OPTIMISTIC] == 125_000 * syncs

    @given(
        start=mu_values,
        kind=st.sampled_from([None, SEQ, PAR]),
        inside=mu_values,
        op=st.sampled_from(["delay_mu", "at_mu"]),
        value=st.one_of(mu_values, st.integers(min_value=-(2**66), max_value=2**66)),
    )
    @example(start=MU_MIN, kind=SEQ, inside=MU_MAX, op="delay_mu", value=1)
    @example(start=MU_MIN, kind=SEQ, inside=MU_MAX, op="at_mu", value=0)
    @example(start=MU_MIN, kind=PAR, inside=0, op="at_mu", value=0)
    @example(start=MU_MAX, kind=None, inside=0, op="delay_mu", value=1)
    @example(start=0, kind=PAR, inside=0, op="delay_mu", value=2**63)
    def test_raising_op_changes_nothing(self, start, kind, inside, op, value):
        def build():
            tm = manager()
            tm.at_mu(start)
            if kind is not None:
                Frame(tm, kind).__enter__()
            with contextlib.suppress(MachineUnitsOverflow):
                tm.delay_mu(inside)
            return tm

        tm, ref = build(), build()
        try:
            getattr(tm, op)(value)
        except MachineUnitsOverflow:
            pass
        else:
            return
        assert (tm.now_mu(), tm.depth) == (ref.now_mu(), ref.depth)
        # The open frame is unchanged too: leaving it gives the same outcome.
        if kind is not None:
            assert pop_outcome(tm) == pop_outcome(ref)

    @given(frame_programs)
    @example([("at_mu", MU_MIN), ("push", SEQ), ("at_mu", -1), ("push", SEQ), ("delay_mu", 1), ("pop",)])
    @example([("at_mu", MU_MIN), ("push", SEQ), ("at_mu", -1), ("push", PAR), ("delay_mu", 1), ("pop",)])
    @settings(max_examples=300, deadline=None)
    def test_no_pop_overflows_and_raising_ops_change_nothing(self, program):
        tm, sig = timeline_and_signal()
        ops = {"push": lambda kind: Frame(tm, kind).__enter__(),
               "pop": lambda: Frame(tm, SEQ).__exit__(None, None, None),  # a pop does not depend on the kind
               "sync": tm.sync_to_counter, "delay_mu": tm.delay_mu, "at_mu": tm.at_mu,
               "event": lambda t: sig.push(0, t)}
        for op, *args in program:
            before = state(tm)
            try:
                ops[op](*args)
            except (MachineUnitsOverflow, ContextStackError) as exc:
                assert op != "pop" or type(exc) is ContextStackError
                assert state(tm) == before
        while tm.depth > 1:
            Frame(tm, SEQ).__exit__(None, None, None)

    @pytest.mark.parametrize("mode,slack", [(SyncMode.REGULAR, 125_000), (SyncMode.OPTIMISTIC, 0)])
    @given(program=frame_programs)
    @example(program=[("at_mu", MU_MIN), ("push", SEQ), ("at_mu", -1), ("push", PAR), ("delay_mu", 1)])
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_timeline(self, mode, slack, program):
        tm, sig = timeline_and_signal(mode)
        naive = NaiveTimeline(slack)
        ops = {"push": lambda kind: Frame(tm, kind).__enter__(),
               "pop": lambda: Frame(tm, SEQ).__exit__(None, None, None),  # a pop does not depend on the kind
               "sync": tm.sync_to_counter, "delay_mu": tm.delay_mu, "at_mu": tm.at_mu,
               "event": lambda t: sig.push(0, t)}
        naive_ops = {"push": lambda kind: naive.push("seq" if kind is SEQ else "par"), "pop": naive.pop,
                     "sync": naive.sync, "delay_mu": naive.delay_mu, "at_mu": naive.at_mu, "event": naive.event}
        for op, *args in program:
            error = raised(ops[op], *args)
            assert ORACLE_ERRORS.get(error, error) is raised(naive_ops[op], *args), (op, *args)
            assert (tm.now_mu(), tm.depth, tm.sync_count, tm.first_sync_cursor, tm.horizon()) == (
                naive.cursor, naive.depth, naive.sync_count, naive.first_sync_cursor, naive.horizon()), (op, *args)
        while tm.depth > 1:
            Frame(tm, SEQ).__exit__(None, None, None)
            naive.pop()
            assert tm.now_mu() == naive.cursor

    @pytest.mark.parametrize("mode,slack", [(SyncMode.REGULAR, 125_000), (SyncMode.OPTIMISTIC, 0)])
    @given(program=block_programs)
    @example(program=[("at_mu", -1), ("push", SEQ), ("pop",), ("delay_mu", MU_MAX + 1)])
    @example(program=[("push", PAR), ("delay_mu", 5), ("pop",), ("delay_mu", 1)])
    @example(program=[("push", PAR), ("push", SEQ), ("delay_mu", 7), ("raise",), ("delay_mu", 1), ("pop",),
                      ("delay_mu", 3), ("pop",)])
    @settings(max_examples=300, deadline=None)
    def test_with_blocks_match_naive_timeline(self, mode, slack, program):
        # The same programs as above, but a push opens a ``with run.sequential()`` or ``with run.parallel()``
        # block that the matching pop (or the program's end) closes, and a raise leaves the innermost block
        # by an exception. A pop outside every block pops the root, which raises.
        run = SimulationRun(CORE_DDB, SimConfig(mode=mode))
        tm, sig = run.time, run.signals.register("d", "s", SignalKind.INT)
        naive = NaiveTimeline(slack)
        ops = {"sync": tm.sync_to_counter, "delay_mu": tm.delay_mu, "at_mu": tm.at_mu,
               "event": lambda t: sig.push(0, t), "pop": lambda: Frame(tm, SEQ).__exit__(None, None, None)}
        naive_ops = {"sync": naive.sync, "delay_mu": naive.delay_mu, "at_mu": naive.at_mu,
                     "event": naive.event, "pop": naive.pop}
        steps = iter(program)

        def check(what):
            assert (tm.now_mu(), tm.depth, tm.sync_count, tm.first_sync_cursor, tm.horizon()) == (
                naive.cursor, naive.depth, naive.sync_count, naive.first_sync_cursor, naive.horizon()), what

        def block(depth):
            """Run steps until this block's pop or a raise, or until the program ends."""
            for op, *args in steps:
                if op == "pop" and depth:
                    return
                if op == "raise":
                    if depth:
                        raise BlockError
                elif op == "push":
                    naive.push("seq" if args[0] is SEQ else "par")
                    with contextlib.suppress(BlockError):
                        with run.sequential() if args[0] is SEQ else run.parallel():
                            check(("push", *args))
                            block(depth + 1)
                    naive.pop()
                    check(("close", *args))
                else:
                    error = raised(ops[op], *args)
                    assert ORACLE_ERRORS.get(error, error) is raised(naive_ops[op], *args), (op, *args)
                    check((op, *args))

        block(0)
        assert tm.depth == 1

    def test_sequential_invariant_holds_under_mixed_ops(self):
        # After each prefix of ops, a sequential frame inside a parallel one
        # lasts exactly cursor - start: popping both lands on the cursor.
        ops = [("d", 10), ("d", -4), ("a", 100), ("d", 7), ("a", 3)]
        for n in range(1, len(ops) + 1):
            tm = manager()
            tm.delay_mu(5)
            with Frame(tm, PAR):
                with Frame(tm, SEQ):
                    for op, arg in ops[:n]:
                        if op == "d":
                            tm.delay_mu(arg)
                        else:
                            tm.at_mu(arg)
                    cursor = tm.now_mu()
                assert tm.now_mu() == 5
            assert tm.now_mu() == max(5, cursor)


non_int = st.one_of(st.floats(allow_nan=True), st.booleans())


class TestIntegerUnits:
    @given(bad=non_int, kind=st.sampled_from([SEQ, PAR]))
    def test_non_int_cursor_times_raise(self, bad, kind):
        tm = manager()
        tm.delay_mu(7)
        with Frame(tm, kind):
            for op in (tm.delay_mu, tm.at_mu):
                with pytest.raises(TypeError, match="must be int"):
                    op(bad)
            assert (tm.now_mu(), tm.depth) == (7, 2)
        assert tm.now_mu() == 7
