import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import (
    UNKNOWN,
    DeviceDb,
    SignalError,
    SignalKindMismatch,
    SimConfig,
    SimulationRun,
    assert_events,
    expect,
    set_input,
)

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
        assert assert_events(pulsed, "ttl0", "state", [(100, True), (1100, False)])

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
