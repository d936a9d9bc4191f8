import tracemalloc
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
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

    @given(
        times=st.lists(st.integers(min_value=-100, max_value=100), max_size=30),
        queries=st.lists(st.integers(min_value=-110, max_value=110), max_size=10),
    )
    @example(times=[], queries=[0])
    @settings(max_examples=200, deadline=None)
    def test_nearest_events_match_linear_scan(self, times, queries):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        sig = run.get_device("ttl0").state
        for t in times:
            sig.push(True, t)
        stored = [t for t, _ in sig.events()]
        # Exactly at each event, before the first and after the last.
        probes = queries + stored + [t - 1 for t in stored[:1]] + [t + 1 for t in stored[-1:]]
        for q in probes:
            report = expect(run, "ttl0", "state", q, True)
            assert report.nearest_before == max((t for t in stored if t <= q), default=None)
            assert report.nearest_after == min((t for t in stored if t > q), default=None)


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
    expected = [(t, sig.kind.coerce(v)) for t, v in expected]

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
                           *nearest(t), detail=f"event count mismatch at index {i}")
    return CheckReport(True, device, signal, None, expected, actual, None, None)


def _check_outcome(check, run, expected):
    """Everything two checks must agree on; a passing report's copies are left out."""
    try:
        r = check(run, "probe", "sig", expected)
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
_BAD_PAIRS = st.sampled_from([5, None, (1,), (1, True, 2), "ab", "abc"])
_ODD_TIMES = st.sampled_from([None, "t", 1.5, True])


class TestAssertEventsReference:
    """assert_events reads the store in place; it must judge and raise as the list-based reference does."""

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
