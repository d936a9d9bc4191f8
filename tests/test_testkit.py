import math
import pickle
import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtsim import (
    UNKNOWN,
    CheckReport,
    DeviceDb,
    SignalError,
    SignalKind,
    SignalKindMismatch,
    SimConfig,
    SimulationRun,
    assert_events,
    expect,
    set_input,
)
from rtsim.signals import _VALIDATORS
from rtsim.timeline import MU_MAX, MU_MIN

from conftest import FULL_DDB


@pytest.fixture
def pulsed(make_run):
    run = make_run()
    run.delay_mu(100)
    run.get_device("ttl0").pulse(1000)
    return run


class TestSetInput:
    def test_probability_then_sample(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        set_input(run, "in0", "prob", 0, 1.0)
        run.delay_mu(10)
        assert dev.sample_get() == 1

    def test_frequency_then_gate(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        set_input(run, "counter0", "freq", 0, 10_000.0)  # 10 kHz
        dev.gate_rising(1_000_000)  # 1 ms
        assert dev.fetch_count() == 10

    def test_input_only_set_later_errors_before(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        set_input(run, "in0", "prob", 500, 1.0)
        run.at_mu(499)
        from rtsim import InputUnset

        with pytest.raises(InputUnset):
            dev.sample_get()

    def test_rejects_non_input_signal(self, make_run):
        run = make_run()
        run.get_device("ttl0")
        with pytest.raises(SignalError, match="not an input"):
            set_input(run, "ttl0", "state", 0, True)

    def test_unknown_signal(self, make_run):
        run = make_run()
        from rtsim import UnknownSignalError

        with pytest.raises(UnknownSignalError):
            set_input(run, "ghost", "prob", 0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_real_rejected(self, make_run, value):
        run = make_run()
        adc = run.get_device("adc0")
        with pytest.raises(SignalKindMismatch, match="finite"):
            set_input(run, "adc0", "v0", 0, value)
        assert adc.voltages[0].events() == []


class TestExpect:
    def test_pulse_levels(self, pulsed):
        assert expect(pulsed, "ttl0", "state", 100, True)
        assert expect(pulsed, "ttl0", "state", 1100, False)
        assert expect(pulsed, "ttl0", "state", 500, True)

    def test_unknown_before_first_event(self, pulsed):
        assert expect(pulsed, "ttl0", "state", 99, UNKNOWN)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_report_of_unknown_survives_pickle(self, pulsed, protocol):
        report = expect(pulsed, "ttl0", "state", 99, True)
        twin = pickle.loads(pickle.dumps(report, protocol))
        assert twin.actual is UNKNOWN and twin == report and str(twin) == str(report)

    def test_failure_report_contents(self, pulsed):
        report = expect(pulsed, "ttl0", "state", 100, False)
        assert not report
        text = str(report)
        assert "ttl0.state" in text
        assert "100" in text
        assert "False" in text and "True" in text
        assert report.nearest_before == 100
        assert report.nearest_after == 1100

    def test_unknown_expected_fails_when_set(self, pulsed):
        assert not expect(pulsed, "ttl0", "state", 100, UNKNOWN)

    def test_real_tolerance(self, make_run):
        run = make_run()
        dds = run.get_device("dds0")
        dds.set(1e8, 0.25, 0.5)
        assert expect(run, "dds0", "freq", 0, 1e8)
        assert not expect(run, "dds0", "freq", 0, 1e8 + 1.0)
        assert expect(run, "dds0", "freq", 0, 1e8 + 1.0, abs_tol=2.0)

    def test_unknown_signal_errors(self, make_run):
        from rtsim import UnknownSignalError

        with pytest.raises(UnknownSignalError):
            expect(make_run(), "ghost", "x", 0, True)

    @pytest.mark.parametrize("abs_tol", [-1, -0.5, float("nan"), True, "0", None, 1j])
    def test_bad_abs_tol_rejected(self, make_run, abs_tol):
        run = make_run()
        run.get_device("dds0").set(1e8)
        with pytest.raises(ValueError, match="abs_tol must be an int or float >= 0"):
            expect(run, "dds0", "freq", 0, 1e8, abs_tol=abs_tol)

    @pytest.mark.parametrize("abs_tol", [0, 0.0, 2, float("inf"), pytest.param(10**400, id="10**400")])
    def test_abs_tol_accepts_any_non_negative_number(self, make_run, abs_tol):
        run = make_run()
        run.get_device("dds0").set(1e8)
        assert expect(run, "dds0", "freq", 0, 1e8, abs_tol=abs_tol)
        assert expect(run, "dds0", "freq", 0, 1e8 + 3.0, abs_tol=abs_tol).passed is (abs_tol >= 3)

    @pytest.mark.parametrize("time", [MU_MIN - 1, MU_MAX + 1, 2**70, -(2**80), 0.0, True, None])
    def test_query_time_outside_64_bits_rejected(self, pulsed, time):
        with pytest.raises(SignalError, match="query time must be a signed 64-bit int"):
            expect(pulsed, "ttl0", "state", time, False)

    def test_query_time_at_64_bit_bounds_accepted(self, pulsed):
        assert expect(pulsed, "ttl0", "state", MU_MIN, UNKNOWN)
        assert expect(pulsed, "ttl0", "state", MU_MAX, False)


class TestAssertEvents:
    def test_pulse_sequence_passes(self, pulsed):
        report = assert_events(pulsed, "ttl0", "state", [(100, True), (1100, False)])
        assert report
        assert report.expected == report.actual == "2 events"

    def test_extra_event_fails_with_divergence(self, pulsed):
        report = assert_events(pulsed, "ttl0", "state", [(100, True)])
        assert not report
        assert "count mismatch" in report.detail

    def test_wrong_value_names_first_divergence(self, pulsed):
        report = assert_events(pulsed, "ttl0", "state", [(100, False), (1100, False)])
        assert not report
        assert "index 0" in report.detail

    def test_later_divergences_leave_the_first_reported(self, pulsed):
        # Both pairs differ from the store and a third lies past it: the report keeps the first.
        report = assert_events(pulsed, "ttl0", "state", [(100, False), (1100, True), (2000, True)])
        assert report.detail == "first divergence at event index 0" and report.expected == (100, False)

    def test_failing_report_prints_its_detail(self, pulsed):
        report = assert_events(pulsed, "ttl0", "state", [(100, False)])
        assert str(report) == ("FAIL ttl0.state @ 100: expected (100, False), actual (100, True) "
                               "(nearest events: <= 100, > 1100) [first divergence at event index 0]")

    @pytest.mark.parametrize("time, past_the_end", [(10**5000, False), ("x" * 10**7, False), (10**5000, True)],
                             ids=["5001-digit-int", "10**7-char-str", "5001-digit-int-past-the-end"])
    def test_report_of_an_oversize_time_prints_bounded(self, pulsed, time, past_the_end):
        # The report keeps the caller's pair, or past the last event the caller's time, as given;
        # its str and repr show every field through short_repr.
        if past_the_end:
            report = assert_events(pulsed, "ttl0", "state", [(100, True), (1100, False), (time, True)])
            assert not report and report.time == time and report.expected == "3 events"
        else:
            report = assert_events(pulsed, "ttl0", "state", [(time, True)])
            assert not report and report.expected == (time, True)
        assert len(str(report)) < 300 and len(repr(report)) < 400

    @pytest.mark.parametrize("time", ["x", None])
    def test_odd_time_past_the_last_event_fails_with_a_report(self, make_run, time):
        run = make_run()
        run.get_device("ttl0").pulse(100)
        report = assert_events(run, "ttl0", "state", [(0, True), (100, False), (time, True)])
        assert not report and report.detail == "event count mismatch at index 2"
        assert report.time is time and report.expected == "3 events" and report.actual == "2 events"
        assert report.nearest_before is None and report.nearest_after is None

    def test_empty_expected_on_untouched_signal(self, make_run):
        run = make_run()
        run.get_device("ttl0")
        assert assert_events(run, "ttl0", "state", [])

    def test_equivalent_to_pointwise_expect_plus_count(self, pulsed):
        events = pulsed.signals.signal("ttl0", "state").events()
        assert assert_events(pulsed, "ttl0", "state", events)
        for t, v in events:
            assert expect(pulsed, "ttl0", "state", t, v)

    def test_passing_check_retains_no_copy(self, make_run):
        run = make_run()
        sig = run.signals.register("probe", "sig", SignalKind.INT)
        for t in range(10_000):
            sig.push(t, t)
        expected = sig.events()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = assert_events(run, "probe", "sig", expected)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report
        assert retained < 1000


def _reference_assert_events(run, device, signal, expected):
    """assert_events written plainly: a coerced list, a copy of the store, then a zip compare."""
    sig = run.signals.signal(device, signal)
    actual = sig.events()
    expected = [(t, _VALIDATORS[sig.kind](v)) for t, v in expected]

    def nearest(time):
        i = bisect_right(sig._times, time)
        return (sig._times[i - 1] if i else None), (sig._times[i] if i < len(sig._times) else None)

    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return CheckReport(False, device, signal, act[0], exp, act, *nearest(act[0]),
                               detail=f"first divergence at event index {i}")
    if len(expected) != len(actual):
        i = min(len(expected), len(actual))
        t = (actual if i < len(actual) else expected)[i][0]
        return CheckReport(False, device, signal, t, f"{len(expected)} events", f"{len(actual)} events",
                           *(nearest(t) if type(t) is int else (None, None)),
                           detail=f"event count mismatch at index {i}")
    return CheckReport(True, device, signal, None, expected, actual, None, None)


def _reference_expect(run, device, signal, time, expected, abs_tol):
    """expect written plainly: the kind's validator, then a linear scan for the pull and both nearest events."""
    sig = run.signals.signal(device, signal)
    if expected is not UNKNOWN:
        expected = _VALIDATORS[sig.kind](expected)
    before = [(t, v) for t, v in sig.events() if t <= time]
    after = [t for t, _ in sig.events() if t > time]
    actual = before[-1][1] if before else UNKNOWN
    if expected is UNKNOWN or actual is UNKNOWN:
        passed = actual is expected
    elif sig.kind is SignalKind.REAL:
        passed = math.isclose(actual, expected, rel_tol=0.0, abs_tol=abs_tol)
    else:
        passed = actual == expected
    return CheckReport(passed, device, signal, time, expected, actual, before[-1][0] if before else None,
                       after[0] if after else None)


def _check_outcome(check, run, *args):
    """Everything two checks must agree on; a passing report's copies are left out."""
    try:
        r = check(run, "probe", "sig", *args)
    except Exception as err:
        return "raised", type(err), str(err)
    shown = None if r.passed else repr((r.expected, r.actual))
    return r.passed, r.device, r.signal, r.time, r.detail, r.nearest_before, r.nearest_after, shown


_VALID = {
    SignalKind.BOOL: st.booleans(),
    SignalKind.INT: st.integers(-2, 2) | st.integers(MU_MIN, MU_MAX),
    SignalKind.REAL: st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2, 2),
    SignalKind.TEXT: st.text(max_size=3) | st.just("é" * 32),
}
_INVALID_VALUES = st.sampled_from([
    None, UNKNOWN, True, 1, 1.5, "x", 2**63, -2**63 - 1, 10**400,
    float("nan"), float("inf"), "é" * 33, "\ud800",
])
_QUERY_VALUES = st.one_of(*_VALID.values()) | _INVALID_VALUES
_BAD_PAIRS = st.sampled_from([5, None, (1,), (1, True, 2), "ab", "abc"])
_ODD_TIMES = st.sampled_from([None, "t", 1.5, True])


def _judge_both(kind, stored, value):
    """What expect and assert_events each make of ``value`` against one stored event at time 0."""
    run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
    run.signals.register("probe", "sig", kind).push(stored, 0)
    outcomes = []
    for check in (lambda: expect(run, "probe", "sig", 0, value),
                  lambda: assert_events(run, "probe", "sig", [(0, value)])):
        try:
            outcomes.append(check().passed)
        except SignalKindMismatch as err:
            outcomes.append(("raised", str(err)))
    return outcomes


class TestOneValueRule:
    """expect and assert_events validate with the signal's own validator, so they judge a value alike."""

    @pytest.mark.parametrize("kind,stored,value", [
        (SignalKind.REAL, 1.0, True),
        (SignalKind.REAL, 1.0, "x"),
        (SignalKind.REAL, 1.0, 10**400),
        (SignalKind.BOOL, True, 1),
        (SignalKind.INT, 1, True),
        (SignalKind.INT, 1, 2**63),
        (SignalKind.TEXT, "x", "é" * 33),
    ], ids=["real_bool", "real_str", "real_huge_int", "bool_int", "int_bool", "int_past_64_bits", "text_66_bytes"])
    def test_wrong_kind_raises_in_both(self, kind, stored, value):
        by_expect, by_events = _judge_both(kind, stored, value)
        assert by_expect[0] == "raised"
        assert by_expect == by_events


class TestAssertEventsReference:
    """assert_events and expect read the store in place; each must judge and raise as its list-based reference does."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_list_reference(self, data):
        kind = data.draw(st.sampled_from(list(SignalKind)), label="kind")
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        sig = run.signals.register("probe", "sig", kind)
        for t, v in data.draw(st.lists(st.tuples(st.integers(-50, 50), _VALID[kind]), max_size=8), label="pushes"):
            sig.push(v, t)
        pairs = sig.events()
        edit = data.draw(st.sampled_from(["equal", "short", "long", "time", "value"]), label="edit")
        if edit == "long":
            pairs += data.draw(st.lists(st.tuples(st.integers(-60, 60) | _ODD_TIMES, _VALID[kind]),
                                        min_size=1, max_size=3), label="extra")
        elif pairs and edit != "equal":
            i = data.draw(st.integers(0, len(pairs) - 1), label="at")
            t, v = pairs[i]
            if edit == "short":
                del pairs[i:]
            elif edit == "time":
                pairs[i] = (data.draw(st.sampled_from([t - 1, t + 1, float(t), t + 0.5, str(t)]), label="time"), v)
            else:
                pairs[i] = (t, data.draw(_VALID[kind], label="value"))
        for _ in range(data.draw(st.integers(0, 2), label="bad")):
            i = data.draw(st.integers(0, len(pairs)), label="bad_at")
            bad = data.draw(st.tuples(st.integers(-60, 60), _INVALID_VALUES) | _BAD_PAIRS, label="bad_pair")
            pairs[i:i + 1] = [bad]
        as_generator = data.draw(st.booleans(), label="generator")
        got = _check_outcome(assert_events, run, (p for p in pairs) if as_generator else pairs)
        assert got == _check_outcome(_reference_assert_events, run, list(pairs))
        if got[0] is True:
            report = assert_events(run, "probe", "sig", pairs)
            assert report.expected == report.actual == f"{len(sig)} events"
        # One expect query, often at an event's time or next to it, of a stored value, any kind's or a bad one.
        times, values = sig._times, sig._values
        near = st.sampled_from([t + d for t in times for d in (-1, 0, 1)]) if times else st.nothing()
        time = data.draw(near | st.integers(-60, 60), label="query_time")
        value = data.draw((st.sampled_from(values) if values else st.nothing()) | _QUERY_VALUES, label="query_value")
        abs_tol = data.draw(st.sampled_from([0.0, 1, 2.5]), label="abs_tol")
        assert (_check_outcome(expect, run, time, value, abs_tol)
                == _check_outcome(_reference_expect, run, time, value, abs_tol))
