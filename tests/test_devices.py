import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

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
    SignalError,
    SignalKindMismatch,
    SimConfig,
    SimulationRun,
    SyncMode,
    UnknownDeviceError,
    UnknownSignalError,
    assert_events,
    expect,
    run_experiment,
    set_input,
)
from rtsim.devices import DeviceDescriptor
from rtsim.rng import Xoshiro256StarStar
from rtsim.timeline import MU_MAX, MU_MIN, REF_PERIOD_S

# Golden sequences generated once with the pinned xoshiro256** streams.
BERNOULLI_SEED_12345_IN0_P05 = [1, 0, 0, 1, 0, 1, 1, 1]
POISSON_SEED_7_COUNTER0_MEAN1 = 0


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

    def test_pulse_of_mu_max_at_cursor_0_is_accepted(self, make_run):
        # The longest pulse: its falling edge, MU_MAX, is still a signed 64-bit time.
        run = make_run()
        ttl = run.get_device("ttl0")
        ttl.pulse_mu(MU_MAX)
        assert ttl.state.events() == [(0, True), (MU_MAX, False)]
        assert run.now_mu() == MU_MAX

    @pytest.mark.parametrize("duration", [2**63, 2**64 - 1])
    def test_duration_past_64_bits_overflows_when_its_end_fits(self, make_run, duration):
        run = make_run()
        ttl = run.get_device("ttl0")
        run.at_mu(MU_MIN)  # the end, MU_MIN + duration, is in the cursor's range
        with pytest.raises(MachineUnitsOverflow, match="pulse_mu"):
            ttl.pulse_mu(duration)
        assert ttl.state.events() == []
        assert run.now_mu() == MU_MIN


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

    def test_get_consumes_the_oldest_sample_behind_which_it_enqueues(self, make_run):
        run = make_run()
        dev = run.get_device("in0")
        for t, p in ((0, 1.0), (10, 0.0), (20, 1.0)):
            self.set_prob(run, p, t)
        dev.sample_input()
        run.at_mu(10)
        dev.sample_input()
        run.at_mu(20)
        assert dev.sample_get() == 1 and list(dev.buffer) == [0, 1]
        run.at_mu(30)
        dev.sample_input()
        assert [dev.fetch_sample() for _ in range(3)] == [0, 1, 1]
        assert dev.sample.events() == [(0, 1), (10, 0), (20, 1), (30, 1)]


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

    def test_deterministic_count_just_below_a_tie_rounds_down(self, make_run):
        # The mean is 0.49999999999999994; floor(mean + 0.5) would count 1.
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(499_999_999.99999994, 0)
        dev.gate_rising(1)
        assert dev.fetch_count() == 0

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

    def test_poisson_draw_of_exactly_2_63_saturates(self, make_run, monkeypatch):
        # One past the largest signed 64-bit count; patched before the counter binds its draw.
        monkeypatch.setattr(Xoshiro256StarStar, "poisson", lambda self, mean: 2**63)
        run = make_run(ddb=counter_ddb("poisson"))
        dev = run.get_device("counter0")
        dev.freq.push(1.0e3, 0)
        dev.gate_rising(1_000_000)
        assert dev.fetch_count() == 2**63 - 1

    def test_gate_of_mu_max_at_cursor_0_is_accepted(self, make_run):
        # The longest gate: its close, MU_MAX, is still a signed 64-bit time.
        run = make_run()
        dev = run.get_device("counter0")
        dev.freq.push(0.0, 0)
        assert dev.gate_rising_mu(MU_MAX) == MU_MAX
        assert dev.gate.events() == [(0, True), (MU_MAX, False)]
        assert dev.fetch_count() == 0

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

    @pytest.mark.parametrize("duration", [2**63, 2**64 - 1])
    def test_duration_past_64_bits_overflows_when_its_end_fits(self, make_run, duration):
        run = make_run()
        counter = run.get_device("counter0")
        counter.freq.push(0.0, MU_MIN)  # a count mean of 0 at any duration
        run.at_mu(MU_MIN)
        with pytest.raises(MachineUnitsOverflow, match="gate_rising_mu"):
            counter.gate_rising_mu(duration)
        assert counter.gate.events() == []
        assert len(counter.buffer) == 0
        assert run.now_mu() == MU_MIN


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
            (Fraction(1, 3), 0.0, 1.0), (1e6, Decimal("0.25"), 1.0), (1e6, 0.0, Fraction(1, 2)),
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
        with pytest.raises(DeviceError, match="must be finite reals"):
            dds.set(*args)
        assert (dds.freq.events(), dds.phase.events(), dds.amp.events()) == ([], [], [])

    @pytest.mark.parametrize("freq,phase,amp", [(-0.0, -0.0, -0.0), (0, 0, 1), (2**1000, 0.5, 0), (1e6, 0.999, 1.0)])
    def test_in_range_int_or_float_stored_as_its_float(self, make_run, freq, phase, amp):
        run = make_run()
        dds = run.get_device("dds0")
        dds.set(freq, phase, amp)
        stored = [sig.events() for sig in (dds.freq, dds.phase, dds.amp)]
        assert [[(t, type(v), repr(v)) for t, v in events] for events in stored] == [
            [(0, float, repr(float(x)))] for x in (freq, phase, amp)
        ]


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

    def test_sample_consumes_the_oldest_vector_behind_which_it_enqueues(self, make_run):
        run = make_run()
        adc = run.get_device("adc0")
        adc.voltages[1].push(0.0, 0)
        for t in (0, 10, 20):
            adc.voltages[0].push(t / 10, t)
        adc.sample_input()
        run.at_mu(10)
        adc.sample_input()
        run.at_mu(20)
        assert adc.sample() == [0.0, 0.0] and list(adc.buffer) == [[1.0, 0.0], [2.0, 0.0]]
        run.at_mu(30)
        adc.sample_input()
        assert [adc.fetch_sample()[0] for _ in range(3)] == [1.0, 2.0, 2.0]

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


# The two calls that take a duration, each on a device whose input is set.
DURATION_CALLS = {
    "pulse": ("ttl0", lambda dev, duration: dev.pulse(duration)),
    "gate_rising": ("counter0", lambda dev, duration: dev.gate_rising(duration)),
}


def duration_call_state(make_run, name):
    """Return the device ``name`` calls, its call, and a function that reads the run's state."""
    run = make_run()
    device, call = DURATION_CALLS[name]
    dev = run.get_device(device)
    if device == "counter0":
        dev.freq.push(1.0, 0)

    def state():
        return run.now_mu(), run.time.depth, [sig.events() for sig in run.signals], len(getattr(dev, "buffer", ()))

    return run, dev, call, state


@pytest.mark.parametrize("name", DURATION_CALLS)
@pytest.mark.parametrize("bad", [2.5, 100.0, math.nan, math.inf, True, False])
def test_non_int_duration_changes_nothing(make_run, name, bad):
    run, dev, call, state = duration_call_state(make_run, name)
    before = state()
    with pytest.raises(DeviceError, match="duration must be a positive int"):
        call(dev, bad)
    assert state() == before


@pytest.mark.parametrize("name", DURATION_CALLS)
@pytest.mark.parametrize("start,duration", [(0, 2**63), (MU_MAX - 9, 100)])
@pytest.mark.parametrize("kind", ["sequential", "parallel"])
def test_duration_past_mu_max_in_either_frame_changes_nothing(make_run, name, start, duration, kind):
    run, dev, call, state = duration_call_state(make_run, name)
    run.at_mu(start)
    with getattr(run, kind)():
        before = state()
        with pytest.raises(MachineUnitsOverflow):
            call(dev, duration)
        assert state() == before
    assert (run.now_mu(), run.time.depth) == (start, 1)


@pytest.mark.parametrize("kind,low,high,read", [
    ("ttl_in", 0.0, 1.0, lambda dev: dev.sample_get()),
    ("adc", 1.0, 2.0, lambda dev: dev.sample()[0]),
], ids=["ttl_in", "adc"])
def test_sampler_reads_at_cursor_not_at_delay_end(kind, low, high, read):
    ddb = DeviceDb.from_dict({"devices": [
        {"name": "core", "kind": "core"},
        {"name": "dev", "kind": kind, "params": {"sample_delay_mu": 20}},
    ]})
    run = SimulationRun(ddb, SimConfig())
    dev = run.get_device("dev")
    (sig,) = [s for s in run.signals if s.is_input]
    sig.push(low, 0)
    sig.push(high, 5)  # inside the delay window: a read after the delay would see it
    assert read(dev) == low
    assert run.now_mu() == 20
    if kind == "ttl_in":
        assert dev.sample.events() == [(0, 0)]  # stored at the saved cursor


# Every driver call that delays, with a nonzero DDB delay for the calls that take one.
DELAYING_DDB = {"devices": [
    {"name": "core", "kind": "core"},
    {"name": "ttl0", "kind": "ttl_out"},
    {"name": "ttl1", "kind": "ttl_out"},
    {"name": "in0", "kind": "ttl_in", "params": {"sample_delay_mu": 30}},
    {"name": "counter0", "kind": "edge_counter"},
    {"name": "dds0", "kind": "dds", "params": {"init_delay_mu": 700, "set_delay_mu": 40}},
    {"name": "adc0", "kind": "adc", "params": {"sample_delay_mu": 50}},
]}
DELAYING_CALLS = {  # name -> (call, its delay)
    "pulse": (lambda run: run.get_device("ttl0").pulse(1000), 1000),
    "gate_rising": (lambda run: run.get_device("counter0").gate_rising(500), 500),
    "init": (lambda run: run.get_device("dds0").init(), 700),
    "set": (lambda run: run.get_device("dds0").set(1e6, 0.25, 0.5), 40),
    "ttl_in_sample": (lambda run: run.get_device("in0").sample_input(), 30),
    "adc_sample": (lambda run: run.get_device("adc0").sample_input(), 50),
}
# The samplers' consuming calls, which read, delay and store as their enqueueing calls do.
CONSUMING_CALLS = {
    "ttl_in_get": (lambda run: run.get_device("in0").sample_get(), 30),
    "adc_get": (lambda run: run.get_device("adc0").sample(), 50),
}
ALL_CALLS = DELAYING_CALLS | CONSUMING_CALLS
# One frame's calls: every delaying call, with the samplers' enqueueing calls or their consuming ones.
FRAME_CALLS = {
    "enqueueing": DELAYING_CALLS,
    "consuming": {name: DELAYING_CALLS[name] for name in ("pulse", "gate_rising", "init", "set")} | CONSUMING_CALLS,
}


def run_in_frame(kind, calls, start=100):
    """Make the calls in one frame of ``kind`` at ``start``; return (events, buffers, cursor)."""
    run = SimulationRun(DeviceDb.from_dict(DELAYING_DDB), SimConfig())
    devices = [run.get_device(d["name"]) for d in DELAYING_DDB["devices"]]
    for sig in run.signals:
        if sig.is_input:
            sig.push(1.0e6 if sig.signal_name == "freq" else 0.5, 0)
    run.at_mu(start)
    with getattr(run, kind)():
        for call in calls:
            call(run)
    events = {(sig.device_name, sig.signal_name): sig.events() for sig in run.signals}
    buffers = {dev.name: list(dev.buffer) for dev in devices if hasattr(dev, "buffer")}
    return events, buffers, run.now_mu()


class TestParallelFrame:
    """A driver call is one statement: in a parallel frame it stores what it stores in a sequential one."""

    def test_artiq_two_pulses_start_together(self, make_run):
        run = make_run()
        ttl0, ttl1 = run.get_device("ttl0"), run.get_device("ttl1")
        run.at_mu(100)
        with run.parallel():
            ttl0.pulse(2000)
            ttl1.pulse(4000)
        assert ttl0.state.events() == [(100, True), (2100, False)]
        assert ttl1.state.events() == [(100, True), (4100, False)]
        assert run.now_mu() == 4100

    @pytest.mark.parametrize("name", ALL_CALLS)
    def test_call_stores_what_it_stores_in_a_sequential_frame(self, name):
        call, delay = ALL_CALLS[name]
        sequential = run_in_frame("sequential", [call])
        parallel = run_in_frame("parallel", [call])
        assert parallel == sequential
        assert parallel[2] == 100 + delay

    @pytest.mark.parametrize("samplers", FRAME_CALLS)
    def test_calls_in_one_parallel_frame_all_start_at_its_start(self, samplers):
        calls = FRAME_CALLS[samplers]
        base_events, base_buffers, _ = run_in_frame("sequential", [])
        events, buffers = dict(base_events), dict(base_buffers)
        for call, _ in calls.values():  # each call alone, from the frame start
            alone_events, alone_buffers, _ = run_in_frame("sequential", [call])
            events.update((k, v) for k, v in alone_events.items() if v != base_events[k])
            buffers.update((k, v) for k, v in alone_buffers.items() if v != base_buffers[k])
        longest = max(delay for _, delay in calls.values())
        assert run_in_frame("parallel", [call for call, _ in calls.values()]) == (events, buffers, 100 + longest)

    @pytest.mark.parametrize("kind", ["sequential", "parallel"])
    @pytest.mark.parametrize("name", ["in0", "adc0"])
    def test_zero_delay_sample_leaves_the_frame_as_it_is(self, make_run, kind, name):
        run = make_run()  # FULL_DDB: both samplers keep the default sample_delay_mu of 0
        dev = run.get_device(name)
        for sig in run.signals:
            if sig.is_input:
                sig.push(0.5, 0)
        run.at_mu(100)
        with getattr(run, kind)():
            run.get_device("ttl0").pulse(40)
            frame = (run.now_mu(), run.time._longest)
            dev.sample_input()
            assert (run.now_mu(), run.time._longest) == frame
        assert run.now_mu() == 140
        assert len(dev.buffer) == 1

    def test_gate_returns_its_close_time(self, make_run):
        run = make_run()
        counter = run.get_device("counter0")
        counter.freq.push(1.0, 0)
        with run.parallel():
            assert counter.gate_rising(500) == 500
            assert counter.gate_rising(300) == 300
        assert run.now_mu() == 500


class TestInputBuffer:
    def test_take_is_fifo_and_raises_when_empty(self):
        buf = InputBuffer()
        buf.append(1)
        buf.append(2)
        assert buf.take() == 1
        buf.append(3)
        assert [buf.take(), buf.take()] == [2, 3]
        assert len(buf) == 0
        with pytest.raises(BufferEmpty, match="input buffer is empty"):
            buf.take()


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


def _enter_kernel(run, name):
    with run.kernel(name):
        pass


# id -> (oversize bad value, the call that must reject it, the error it raises).
# The values are built before tracing starts, so the peak is what the reject itself allocates.
OVERSIZE_REJECTS = {
    "pulse_mu_text": (lambda: "x" * 10**7, lambda run, v: run.get_device("ttl0").pulse_mu(v), DeviceError),
    "pulse_mu_bytes": (lambda: b"x" * 10**7, lambda run, v: run.get_device("ttl0").pulse_mu(v), DeviceError),
    "pulse_mu_list": (lambda: [0] * 10**6, lambda run, v: run.get_device("ttl0").pulse_mu(v), DeviceError),
    "dds_set_list": (lambda: [0] * 10**6, lambda run, v: run.get_device("dds0").set(v), DeviceError),
    "dds_set_text": (lambda: "x" * 10**7, lambda run, v: run.get_device("dds0").set(1.0, v), DeviceError),
    "dds_set_nested": (lambda: [["x" * 10**6] * 10**3], lambda run, v: run.get_device("dds0").set(v), DeviceError),
    "dds_set_huge_int_in_list": (lambda: [10**20000], lambda run, v: run.get_device("dds0").set(v), DeviceError),
    "push_bool_text": (lambda: "x" * 10**7, lambda run, v: run.get_device("ttl0").state.push(v, 0),
                       SignalKindMismatch),
    "push_int_list": (lambda: [0] * 10**6, lambda run, v: run.get_device("in0").sample.push(v, 0),
                      SignalKindMismatch),
    "push_real_text": (lambda: "x" * 10**7, lambda run, v: run.get_device("dds0").freq.push(v, 0),
                       SignalKindMismatch),
    "push_text_too_long": (lambda: "k" * 10**7, lambda run, v: run.get_device("core").kernel_marker.push(v, 0),
                           SignalKindMismatch),
    "push_time_text": (lambda: "x" * 10**7, lambda run, v: run.get_device("ttl0").state.push(True, v), SignalError),
    "kernel_name": (lambda: "k" * 10**7, _enter_kernel, SignalKindMismatch),
    "expect_value": (lambda: "x" * 10**7, lambda run, v: expect(run, "ttl0", "state", 0, v), SignalKindMismatch),
    "expect_time": (lambda: "x" * 10**7, lambda run, v: expect(run, "ttl0", "state", v, True), SignalError),
    "expect_abs_tol": (lambda: [0] * 10**6, lambda run, v: expect(run, "dds0", "freq", 0, 1.0, v), ValueError),
    "expect_device": (lambda: "x" * 10**7, lambda run, v: expect(run, v, "state", 0, True), UnknownSignalError),
    "assert_events_value": (lambda: [(0, "x" * 10**7)], lambda run, v: assert_events(run, "ttl0", "state", v),
                            SignalKindMismatch),
    "set_input_text": (lambda: "x" * 10**7, lambda run, v: set_input(run, "in0", "prob", 0, v), SignalKindMismatch),
    "set_input_list": (lambda: [0.5] * 10**6, lambda run, v: set_input(run, "in0", "prob", 0, v),
                       SignalKindMismatch),
    "set_input_signal": (lambda: "x" * 10**7, lambda run, v: set_input(run, "in0", v, 0, 0.5), UnknownSignalError),
    "get_device": (lambda: "x" * 10**7, lambda run, v: run.get_device(v), UnknownDeviceError),
}


@pytest.mark.parametrize("make_value, call, error", OVERSIZE_REJECTS.values(), ids=OVERSIZE_REJECTS.keys())
def test_oversize_bad_value_rejected_at_bounded_cost(make_run, make_value, call, error):
    run = make_run()
    for name in ("core", "ttl0", "in0", "dds0"):
        run.get_device(name)
    value = make_value()
    tracemalloc.start()
    try:
        with pytest.raises(error) as excinfo:
            call(run, value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(excinfo.value)) <= 400, str(excinfo.value)[:1000]
    assert peak < 100_000
