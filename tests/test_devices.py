import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import (
    UNKNOWN,
    BufferEmpty,
    DeviceDb,
    DeviceDbError,
    DeviceError,
    Experiment,
    InputBuffer,
    InputUnset,
    MachineUnitsOverflow,
    Signal,
    SignalManager,
    SimConfig,
    SimulationRun,
    SyncMode,
    run_experiment,
)
from rtsim.devices import DeviceDescriptor
from rtsim.rng import Xoshiro256StarStar
from rtsim.timeline import MU_MAX, MU_MIN, REF_PERIOD_S

from conftest import FULL_DDB
from oracles import PushLogOracle

# Golden sequences generated once with the pinned xoshiro256** streams.
BERNOULLI_SEED_12345_IN0_P05 = [1, 0, 0, 1, 0, 1, 1, 1]
POISSON_SEED_7_COUNTER0_MEAN1 = 0

# A cursor ``back`` MU below MU_MAX and a duration ``back + extra`` past it,
# inside a sequential or a parallel frame.
overflow_case = dict(
    kind=st.sampled_from(["sequential", "parallel"]),
    back=st.integers(0, 1000),
    extra=st.integers(1, 2**64),
)


def overflow_in_frame(run, kind, back, extra, call):
    """Run ``call(duration)`` at cursor ``t`` inside the frame; the call itself must overflow.

    In either kind of frame the call raises before it changes anything, so
    leaving the frame afterwards is fine and the cursor is back at ``t``.
    Returns ``t``.
    """
    t = MU_MAX - back
    run.at_mu(t)
    with getattr(run, kind)():
        with pytest.raises(MachineUnitsOverflow):
            call(back + extra)
        assert run.now_mu() == t
    assert (run.now_mu(), run.time.depth) == (t, 1)
    return t


class TestDescriptor:
    def test_unknown_kind_lists_allowed(self):
        with pytest.raises(DeviceError, match="flux_capacitor.*allowed kinds"):
            DeviceDescriptor("x", "flux_capacitor")

    def test_unknown_param_rejected(self):
        with pytest.raises(DeviceError, match="unknown param"):
            DeviceDescriptor("x", "ttl_out", {"bogus": 1})

    def test_param_defaults(self):
        assert DeviceDescriptor("d", "dds").params == {"init_delay_mu": 125_000, "set_delay_mu": 0}
        given = {"set_delay_mu": 8}
        assert DeviceDescriptor("d", "dds", given).params == {"init_delay_mu": 125_000, "set_delay_mu": 8}
        assert given == {"set_delay_mu": 8}

    def test_delay_params_up_to_mu_max_accepted(self):
        params = {"init_delay_mu": MU_MAX, "set_delay_mu": MU_MAX}
        assert DeviceDescriptor("d", "dds", params).params == params

    def test_negative_delay_param_rejected(self):
        with pytest.raises(DeviceDbError, match=r"devices\[1\]: device 'd': set_delay_mu must be a non-negative integer$"):
            DeviceDb.from_dict(
                {"devices": [
                    {"name": "core", "kind": "core"},
                    {"name": "d", "kind": "dds", "params": {"set_delay_mu": -1}},
                ]}
            )


class TestCore:
    def test_fresh_regular_reset(self, make_run):
        run = make_run(SyncMode.REGULAR)
        assert run.get_device("core").reset() == 125_000

    def test_fresh_optimistic_reset(self, make_run):
        run = make_run(SyncMode.OPTIMISTIC)
        assert run.get_device("core").reset() == 0

    def test_reset_rides_event_horizon(self, make_run):
        run = make_run(SyncMode.REGULAR)
        ttl = run.get_device("ttl0")
        run.at_mu(9_000_000)
        ttl.on()
        run.at_mu(0)
        assert run.get_device("core").reset() == 9_125_000

    def test_reset_reads_no_signal(self, make_run):
        # A sync reads the run's one horizon cell: it never walks the registered signals.
        class Unwalkable(dict):
            def _refuse(self, *args):
                raise AssertionError("a sync walked the signal registry")

            __iter__ = values = items = keys = _refuse

        run = make_run(SyncMode.REGULAR)
        core, ttl, dds = (run.get_device(name) for name in ("core", "ttl0", "dds0"))
        run.at_mu(7_000)
        dds.set(1e6)
        run.at_mu(3_000)
        ttl.pulse(1_000)
        run.signals._signals = Unwalkable(run.signals._signals)
        run.at_mu(0)
        assert core.reset() == 7_000 + 125_000
        run.at_mu(-500)
        ttl.pulse(9_000_000)  # pushes after the swap still reach the cell
        run.at_mu(0)
        assert core.reset() == 8_999_500 + 125_000


class TestTtlOut:
    def test_pulse_events_and_cursor(self, make_run):
        run = make_run()
        ttl = run.get_device("ttl0")
        run.delay_mu(100)
        ttl.pulse(1000)
        assert ttl.state.events() == [(100, True), (1100, False)]
        assert run.now_mu() == 1100

    def test_double_on_at_same_cursor_overwrites(self, make_run):
        run = make_run()
        ttl = run.get_device("ttl0")
        ttl.on()
        ttl.on()
        assert ttl.state.events() == [(0, True)]

    def test_off_without_prior_on(self, make_run):
        run = make_run()
        ttl = run.get_device("ttl0")
        run.delay_mu(10)
        ttl.off()
        assert ttl.state.events() == [(10, False)]
        assert ttl.state.pull(9) is UNKNOWN

    @pytest.mark.parametrize("bad", [0, -5])
    def test_pulse_requires_positive_duration(self, make_run, bad):
        run = make_run()
        with pytest.raises(DeviceError):
            run.get_device("ttl0").pulse(bad)

    @given(bad=st.one_of(st.floats(allow_nan=True), st.booleans()))
    @settings(max_examples=50, deadline=None)
    def test_non_int_duration_rejected_before_any_push(self, bad):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        ttl = run.get_device("ttl0")
        with pytest.raises(DeviceError, match="int"):
            ttl.pulse(bad)
        assert ttl.state.events() == []
        assert run.now_mu() == 0

    @given(**overflow_case)
    @example(kind="sequential", back=MU_MAX, extra=1)  # pulse(2**63) at cursor 0
    @settings(max_examples=50, deadline=None)
    def test_overflowing_duration_pushes_no_edge(self, kind, back, extra):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        ttl = run.get_device("ttl0")
        overflow_in_frame(run, kind, back, extra, ttl.pulse)
        assert ttl.state.events() == []

    @pytest.mark.parametrize("name", ["pulse", "pulse_mu"])
    def test_parallel_pulse_past_mu_max_raises_at_the_call(self, make_run, name):
        run = make_run()
        ttl = run.get_device("ttl0")
        run.at_mu(MU_MAX - 5)
        with run.parallel():
            with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                getattr(ttl, name)(100)
            assert ttl.state.events() == []
        assert ttl.state.events() == []
        assert run.now_mu() == MU_MAX - 5


class TestTtlIn:
    def set_prob(self, run, p, t=0):
        run.get_device("in0").prob.push(p, t)

    def test_probability_one_always_high(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        self.set_prob(run, 1.0)
        assert [dev.sample_get() for _ in range(8)] == [1] * 8

    def test_probability_zero_always_low(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        self.set_prob(run, 0.0)
        assert [dev.sample_get() for _ in range(8)] == [0] * 8

    def test_golden_sequence_seed_12345(self, make_run):
        run = make_run(seed=12345)
        dev = run.get_device("in0")
        self.set_prob(run, 0.5)
        draws = []
        for _ in range(8):
            draws.append(dev.sample_get())
            run.delay_mu(10)
        assert draws == BERNOULLI_SEED_12345_IN0_P05

    def test_unset_probability_is_an_error(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        with pytest.raises(InputUnset):
            dev.sample_get()

    def test_probability_set_only_later_is_unset_before(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        self.set_prob(run, 1.0, t=500)
        run.at_mu(499)
        with pytest.raises(InputUnset):
            dev.sample_get()

    def test_out_of_range_probability(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        self.set_prob(run, 1.5)
        with pytest.raises(DeviceError):
            dev.sample_get()

    def test_sample_event_recorded_at_cursor(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        self.set_prob(run, 1.0)
        run.delay_mu(250)
        dev.sample_get()
        assert dev.sample.events() == [(250, 1)]

    def test_fifo_and_overread(self, make_run):
        run = make_run(seed=12345)
        dev = run.get_device("in0")
        self.set_prob(run, 0.5)
        for _ in range(4):
            dev.sample_input()
            run.delay_mu(1)
        got = [dev.fetch_sample() for _ in range(4)]
        assert got == BERNOULLI_SEED_12345_IN0_P05[:4]
        with pytest.raises(BufferEmpty):
            dev.fetch_sample()


def counter_ddb(mode):
    return DeviceDb.from_dict(
        {"devices": [
            {"name": "core", "kind": "core"},
            {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": mode}},
        ]}
    )


class TestEdgeCounter:
    def test_deterministic_count_mhz_times_ms(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(1.0e6, 0)
        close = dev.gate_rising(1_000_000)
        assert close == 1_000_000
        assert dev.fetch_count() == 1000

    def test_zero_frequency_counts_zero(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(0.0, 0)
        dev.gate_rising(1_000_000)
        assert dev.fetch_count() == 0

    def test_gate_markers(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(5.0, 0)
        run.delay_mu(10)
        dev.gate_rising(90)
        assert dev.gate.events() == [(10, True), (100, False)]
        assert run.now_mu() == 100

    def test_poisson_golden(self, make_run):
        run = make_run(seed=7, ddb=counter_ddb("poisson"))
        dev = run.get_device("counter0")
        dev.freq.push(1.0e3, 0)  # 1 kHz for 1 ms -> mean 1.0
        dev.gate_rising(1_000_000)
        assert dev.fetch_count() == POISSON_SEED_7_COUNTER0_MEAN1

    @pytest.mark.parametrize("mode", ["deterministic", "poisson"])
    def test_non_finite_count_mean_rejected_before_any_push(self, make_run, draw_limit, mode):
        run = make_run(ddb=counter_ddb(mode))
        dev = run.get_device("counter0")
        dev.freq.push(1e300, 0)  # 1e300 Hz for 10**12 MU: the mean overflows to inf
        with pytest.raises(DeviceError, match="count mean .* is not finite"):
            dev.gate_rising(10**12)
        assert dev.gate.events() == []
        assert len(dev.buffer) == 0
        assert run.now_mu() == 0

    @pytest.mark.parametrize("mode", ["deterministic", "poisson"])
    @pytest.mark.parametrize(("freq_hz", "duration_mu"), [(2.0**63, 10**9), (sys.float_info.max, 1)])
    def test_count_mean_past_64_bits_rejected_before_any_push(self, make_run, draw_limit, mode, freq_hz, duration_mu):
        run = make_run(ddb=counter_ddb(mode))
        dev = run.get_device("counter0")
        dev.freq.push(freq_hz, 0)
        assert 2.0**63 <= freq_hz * duration_mu * REF_PERIOD_S < math.inf  # exactly 2**63, or about 1.8e299
        with pytest.raises(DeviceError, match=r"count mean .* is not finite or is 2\*\*63 or more"):
            dev.gate_rising(duration_mu)
        assert dev.gate.events() == []
        assert len(dev.buffer) == 0
        assert run.now_mu() == 0

    @pytest.mark.parametrize("mode", ["deterministic", "poisson"])
    def test_largest_count_mean_below_64_bits_counts(self, make_run, draw_limit, mode):
        below = math.nextafter(2.0**63, 0)
        run = make_run(ddb=counter_ddb(mode))
        dev = run.get_device("counter0")
        dev.freq.push(below, 0)
        assert below * 10**9 * REF_PERIOD_S == below
        assert dev.gate_rising(10**9) == 10**9
        count = dev.fetch_count()
        assert type(count) is int and count >= 0
        if mode == "deterministic":
            assert count == 2**63 - 1024

    def test_poisson_count_saturates_at_64_bits(self, make_run, draw_limit):
        # The mean is below 2**63, but about half the draws at it are not.
        run = make_run(seed=9, ddb=counter_ddb("poisson"))
        dev = run.get_device("counter0")
        dev.freq.push(math.nextafter(2.0**63, 0), 0)
        counts = []
        for _ in range(1000):
            dev.gate_rising(10**9)
            counts.append(dev.fetch_count())
        assert min(counts) >= 0 and max(counts) == 2**63 - 1

    def test_poisson_gate_at_1ghz_for_1s_is_bounded(self, make_run, draw_limit):
        run = make_run(seed=3, ddb=counter_ddb("poisson"))
        dev = run.get_device("counter0")
        dev.freq.push(1.0e9, 0)  # mean 1e9: summing exponentials would take about 1e9 draws
        assert dev.gate_rising(10**9) == 10**9
        count = dev.fetch_count()
        assert type(count) is int and abs(count - 1e9) < 5 * math.sqrt(1e9)

    def test_gate_past_float_range_overflows_before_any_push(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(0.0, 0)
        with pytest.raises(MachineUnitsOverflow, match="gate_rising_mu"):
            dev.gate_rising(10**400)
        assert dev.gate.events() == []
        assert run.now_mu() == 0

    @pytest.mark.parametrize("mean", [math.inf, math.nan, -1.0, 2.0**63, sys.float_info.max])
    def test_poisson_rejects_non_finite_or_negative_mean(self, draw_limit, mean):
        with pytest.raises(ValueError, match="poisson mean must be finite and non-negative"):
            Xoshiro256StarStar(7).poisson(mean)

    def test_bad_counter_mode_rejected(self):
        with pytest.raises(
            DeviceDbError,
            match=r"devices\[1\]: device 'counter0': counter_mode must be 'deterministic' or 'poisson', got 'gaussian'$",
        ):
            counter_ddb("gaussian")

    def test_negative_frequency_rejected(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(-1.0, 0)
        with pytest.raises(DeviceError):
            dev.gate_rising(100)

    def test_unset_frequency_rejected(self, make_run):
        run = make_run()
        with pytest.raises(InputUnset):
            run.get_device("counter0").gate_rising(100)

    def test_gate_duration_must_be_positive(self, make_run):
        run = make_run()
        run.get_device("counter0").freq.push(1.0, 0)
        with pytest.raises(DeviceError):
            run.get_device("counter0").gate_rising(0)

    def test_fetch_from_empty_buffer(self, make_run):
        run = make_run()
        with pytest.raises(BufferEmpty):
            run.get_device("counter0").fetch_count()

    @given(bad=st.one_of(st.floats(allow_nan=True), st.booleans()))
    @settings(max_examples=50, deadline=None)
    def test_non_int_gate_rejected_before_any_push(self, bad):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        counter = run.get_device("counter0")
        counter.freq.push(1.0, 0)
        with pytest.raises(DeviceError, match="int"):
            counter.gate_rising(bad)
        assert counter.gate.events() == []
        assert len(counter.buffer) == 0
        assert run.now_mu() == 0

    @given(**overflow_case)
    @example(kind="sequential", back=9, extra=91)  # gate_rising(100) at 2**63 - 10
    @settings(max_examples=50, deadline=None)
    def test_overflowing_gate_pushes_no_edge(self, kind, back, extra):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        counter = run.get_device("counter0")
        counter.freq.push(1.0, 0)
        overflow_in_frame(run, kind, back, extra, counter.gate_rising)
        assert counter.gate.events() == []
        assert len(counter.buffer) == 0

    @pytest.mark.parametrize("mode", ["deterministic", "poisson"])
    def test_parallel_gate_past_mu_max_raises_at_the_call(self, mode):
        ddb = {"devices": [{"name": "core", "kind": "core"},
                           {"name": "c", "kind": "edge_counter", "params": {"counter_mode": mode}}]}
        run = SimulationRun(DeviceDb.from_dict(ddb), SimConfig())
        counter = run.get_device("c")
        counter.freq.push(1.0e6, 0)
        run.at_mu(MU_MAX - 5)
        with run.parallel():
            with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
                counter.gate_rising_mu(100)
            assert counter.gate.events() == []
        assert counter.gate.events() == []
        assert len(counter.buffer) == 0
        assert run.now_mu() == MU_MAX - 5


class TestDds:
    def test_set_pushes_three_events_at_cursor(self, make_run):
        run = make_run()
        dds = run.get_device("dds0")
        run.delay_mu(42)
        dds.set(1e8, 0.25, 0.5)
        assert dds.freq.events() == [(42, 1e8)]
        assert dds.phase.events() == [(42, 0.25)]
        assert dds.amp.events() == [(42, 0.5)]

    def test_same_cursor_set_wins_latest(self, make_run):
        run = make_run()
        dds = run.get_device("dds0")
        dds.set(1e8, 0.25, 0.5)
        dds.set(2e8, 0.75, 0.25)
        assert dds.freq.pull(0) == 2e8
        assert dds.phase.pull(0) == 0.75
        assert dds.amp.pull(0) == 0.25

    def test_set_does_not_advance_cursor_by_default(self, make_run):
        run = make_run()
        dds = run.get_device("dds0")
        dds.set(1e8)
        assert run.now_mu() == 0

    def test_set_delay_override(self, make_run):
        ddb = DeviceDb.from_dict(
            {"devices": [
                {"name": "core", "kind": "core"},
                {"name": "d", "kind": "dds", "params": {"set_delay_mu": 40}},
            ]}
        )
        run = make_run(ddb=ddb)
        run.get_device("d").set(1e6)
        assert run.now_mu() == 40

    def test_init_advances_and_marks(self, make_run):
        run = make_run()
        dds = run.get_device("dds0")
        dds.init()
        assert run.now_mu() == 125_000
        assert dds.init_marker.events() == [(125_000, True)]

    @pytest.mark.parametrize(
        "freq,phase,amp",
        [
            (-1.0, 0.0, 1.0), (1e6, 1.0, 1.0), (1e6, -0.1, 1.0), (1e6, 0.0, 1.1), (1e6, 0.0, -0.1),
            (float("nan"), 0.0, 1.0), (float("inf"), 0.0, 1.0), (float("-inf"), 0.0, 1.0),
            (10**400, 0.0, 1.0),
            (True, 0.0, 1.0), (1e6, False, 1.0), (1e6, 0.0, True), ("1e6", 0.0, 1.0),
        ],
    )
    def test_parameter_validation(self, make_run, freq, phase, amp):
        run = make_run()
        dds = run.get_device("dds0")
        with pytest.raises(DeviceError):
            dds.set(freq, phase, amp)
        assert (dds.freq.events(), dds.phase.events(), dds.amp.events()) == ([], [], [])

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["freq", "phase", "amp"])
    def test_argument_whose_float_value_is_out_of_range(self, make_run, position):
        class NanValued:
            """Every comparison says "in range", but the float value is nan."""

            def __float__(self):
                return math.nan

            __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: True

        args = [1e6, 0.5, 0.5]
        args[position] = NanValued()
        run = make_run()
        dds = run.get_device("dds0")
        with pytest.raises(DeviceError, match="float values in range"):
            dds.set(*args)
        assert (dds.freq.events(), dds.phase.events(), dds.amp.events()) == ([], [], [])


class TestAdc:
    def test_sample_returns_configured_voltages(self, make_run):
        run = make_run()
        adc = run.get_device("adc0")
        adc.voltages[0].push(1.0, 0)
        adc.voltages[1].push(2.0, 0)
        run.delay_mu(10)
        assert adc.sample() == [1.0, 2.0]

    def test_unset_channel_is_an_error(self, make_run):
        run = make_run()
        adc = run.get_device("adc0")
        adc.voltages[0].push(1.0, 0)
        with pytest.raises(InputUnset, match="channel 1"):
            adc.sample()

    def test_voltage_change_at_cursor_read_inclusively(self, make_run):
        run = make_run()
        adc = run.get_device("adc0")
        adc.voltages[0].push(1.0, 0)
        adc.voltages[1].push(0.0, 0)
        adc.voltages[0].push(3.0, 50)
        run.at_mu(50)
        assert adc.sample() == [3.0, 0.0]

    def test_fifo_order_and_overread(self, make_run):
        run = make_run()
        adc = run.get_device("adc0")
        adc.voltages[0].push(0.0, 0)
        adc.voltages[1].push(0.0, 0)
        for i in range(3):
            adc.voltages[0].push(float(i), run.now_mu())
            adc.sample_input()
            run.delay_mu(5)
        assert [adc.fetch_sample()[0] for _ in range(3)] == [0.0, 1.0, 2.0]
        with pytest.raises(BufferEmpty):
            adc.fetch_sample()

    def test_sample_delay_advances_cursor(self, make_run):
        ddb = DeviceDb.from_dict(
            {"devices": [
                {"name": "core", "kind": "core"},
                {"name": "a", "kind": "adc", "params": {"channels": 1, "sample_delay_mu": 30}},
            ]}
        )
        run = make_run(ddb=ddb)
        adc = run.get_device("a")
        adc.voltages[0].push(0.5, 0)
        adc.sample()
        assert run.now_mu() == 30


@pytest.mark.parametrize("kind,param,call", [
    ("ttl_in", "sample_delay_mu", lambda dev: dev.sample_input()),
    ("adc", "sample_delay_mu", lambda dev: dev.sample_input()),
    ("dds", "set_delay_mu", lambda dev: dev.set(1e6, 0.25, 0.5)),
], ids=["ttl_in", "adc", "dds"])
def test_call_whose_delay_overflows_changes_nothing(kind, param, call):
    ddb = DeviceDb.from_dict({"devices": [
        {"name": "core", "kind": "core"},
        {"name": "dev", "kind": kind, "params": {param: 100}},
    ]})
    run = SimulationRun(ddb, SimConfig())
    dev = run.get_device("dev")
    for sig in run.signals:
        if sig.is_input:
            sig.push(0.5, 0)  # p = 0.5, so a ttl_in sample draws from its stream

    def state():
        buffer = getattr(dev, "buffer", None)
        stream = getattr(dev, "_rng", None)
        return (run.now_mu(), [sig.events() for sig in run.signals],
                None if buffer is None else len(buffer), None if stream is None else stream._s)

    run.at_mu(MU_MAX - 5)
    before = state()
    with pytest.raises(MachineUnitsOverflow, match="delay_mu"):
        call(dev)
    assert state() == before


TTLS = st.sampled_from(["ttl0", "ttl1"])

# A random driver program: a list of driver calls, delays and nested frames. Small
# delays of either sign make writes land on, before and after earlier events.
driver_op = st.recursive(
    st.one_of(
        st.tuples(st.just("pulse"), TTLS, st.integers(1, 50)),
        st.tuples(st.sampled_from(["on", "off"]), TTLS),
        st.tuples(st.just("dds"), st.one_of(st.integers(0, 10**9), st.floats(0, 1e9)),
                  st.floats(0, 1, exclude_max=True), st.floats(0, 1)),
        st.tuples(st.just("gate"), st.integers(1, 50)),
        st.tuples(st.just("sample")),
        st.tuples(st.just("delay"), st.integers(-60, 60)),
    ),
    lambda ops: st.tuples(st.sampled_from(["sequential", "parallel"]), st.lists(ops, max_size=5)),
    max_leaves=30,
)


def run_program(run, program):
    for op, *args in program:
        if op in ("sequential", "parallel"):
            with getattr(run, op)():
                run_program(run, args[0])
        elif op == "pulse":
            run.get_device(args[0]).pulse(args[1])
        elif op in ("on", "off"):
            getattr(run.get_device(args[0]), op)()
        elif op == "dds":
            run.get_device("dds0").set(*args)
        elif op == "gate":
            run.get_device("counter0").gate_rising(args[0])
        elif op == "sample":
            run.get_device("in0").sample_get()
        else:
            run.delay_mu(args[0])


@given(program=st.lists(driver_op, max_size=20))
@settings(max_examples=200, deadline=None)
def test_driver_writes_store_what_push_would(program):
    """Drivers write with ``Signal._put``; replaying each write through ``push`` gives the same store."""
    run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
    for name in ("ttl0", "ttl1", "in0", "counter0", "dds0"):
        run.get_device(name)
    writes = []
    put = Signal._put

    def logged_put(sig, value, time):
        writes.append((sig.device_name, sig.signal_name, value, time))
        put(sig, value, time)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Signal, "_put", logged_put)
        run.signals.signal("in0", "prob").push(0.5, MU_MIN)
        run.signals.signal("counter0", "freq").push(1e6, MU_MIN)
        run_program(run, program)

    replay = SignalManager()
    for sig in run.signals:
        replay.register(sig.device_name, sig.signal_name, sig.kind, sig.is_input)
    for device, name, value, time in writes:
        replay.signal(device, name).push(value, time)  # raises if push would refuse the write
    for sig in run.signals:
        twin = replay.signal(sig.device_name, sig.signal_name)
        assert sig._times == twin._times
        assert [(type(v), v) for v in sig._values] == [(type(v), v) for v in twin._values]
    assert run.signals.event_top == replay.event_top

    oracle = PushLogOracle()
    for device, name, value, time in writes:
        if (device, name) == ("ttl0", "state"):
            oracle.push(time, value)
    assert run.signals.signal("ttl0", "state").events() == oracle.items()


class TestInputBuffer:
    @given(st.lists(st.integers(), max_size=50))
    def test_fifo_order(self, values):
        buf = InputBuffer()
        for v in values:
            buf.put(v)
        assert [buf.take() for _ in values] == values
        with pytest.raises(BufferEmpty):
            buf.take()

    @given(st.lists(st.sampled_from(["put", "take"]), max_size=60))
    @settings(max_examples=200)
    def test_random_interleaving_matches_model(self, ops):
        buf = InputBuffer()
        model = []
        counter = 0
        for op in ops:
            if op == "put":
                buf.put(counter)
                model.append(counter)
                counter += 1
            elif model:
                assert buf.take() == model.pop(0)
            else:
                with pytest.raises(BufferEmpty):
                    buf.take()
        assert len(buf) == len(model)


class TestDeterminism:
    def test_identical_runs_bit_identical(self, full_ddb):
        def body(run):
            core = run.get_device("core")
            dev = run.get_device("in0")
            counter = run.get_device("counter0")
            dev.prob.push(0.5, 0)
            counter.freq.push(3.3e5, 0)
            core.reset()
            draws = [dev.sample_get() for _ in range(10)]
            counter.gate_rising(10_000)
            draws.append(counter.fetch_count())
            run.get_device("ttl0").pulse(100)
            run.results = draws

        exp = Experiment("det", body)
        config = SimConfig(seed=987)
        a = run_experiment(exp, full_ddb, config)
        b = run_experiment(exp, full_ddb, config)
        assert a.results == b.results
        for sig_a, sig_b in zip(a.signals, b.signals):
            assert (sig_a.device_name, sig_a.signal_name) == (sig_b.device_name, sig_b.signal_name)
            assert sig_a.events() == sig_b.events()

    def test_substreams_isolated_per_device(self):
        # Adding a second input device must not change the first one's draws.
        def draws(ddb_dict, extra_first):
            ddb = DeviceDb.from_dict(ddb_dict)
            config = SimConfig(seed=42)
            from rtsim import SimulationRun

            run = SimulationRun(ddb, config)
            if extra_first:
                other = run.get_device("in1")
                other.prob.push(0.5, 0)
                for _ in range(5):
                    other.sample_get()
            dev = run.get_device("in0")
            dev.prob.push(0.5, 0)
            return [dev.sample_get() for _ in range(8)]

        base = {"devices": [{"name": "core", "kind": "core"}, {"name": "in0", "kind": "ttl_in"}]}
        wide = {"devices": base["devices"] + [{"name": "in1", "kind": "ttl_in"}]}
        assert draws(base, False) == draws(wide, True)


class TestTimingAdditivity:
    def test_ttl_in_sample_delay(self, make_run):
        ddb = DeviceDb.from_dict(
            {"devices": [
                {"name": "core", "kind": "core"},
                {"name": "i", "kind": "ttl_in", "params": {"sample_delay_mu": 17}},
            ]}
        )
        run = make_run(ddb=ddb)
        dev = run.get_device("i")
        dev.prob.push(1.0, 0)
        dev.sample_get()
        assert run.now_mu() == 17

    def test_pulse_advance_equals_duration(self, make_run):
        run = make_run()
        run.get_device("ttl0").pulse(123)
        assert run.now_mu() == 123

    def test_gate_advance_equals_window(self, make_run):
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(1.0, 0)
        dev.gate_rising(456)
        assert run.now_mu() == 456
