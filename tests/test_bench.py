import pytest

from rtsim import Experiment, SimConfig, SyncMode, run_experiment
from rtsim import experiments
from rtsim.bench import (
    MAX_SCENARIO_CALLS,
    PRESETS,
    BenchScenario,
    relative_error,
    report_rows,
    run_scenario,
    run_scenario_both,
    speedup_proxy,
)
from rtsim.environment import RunStats
from rtsim.timeline import MU_MAX


class TestScenarioShape:
    def test_unbuffered_sync_count(self):
        sc = BenchScenario("s", points=20, samples_per_point=100)
        assert sc.expected_sync_count == 2001  # 1 initial + 1 per sample

    def test_buffered_sync_count(self):
        sc = BenchScenario("s", points=20, samples_per_point=100, buffered=True)
        assert sc.expected_sync_count == 126  # 1 + ceil(2000/16)

    def test_buffered_partial_batch(self):
        sc = BenchScenario("s", points=1, samples_per_point=20, buffered=True)
        assert sc.expected_sync_count == 1 + 2
        run = run_scenario(sc, SimConfig())
        assert run.stats.sync_count == sc.expected_sync_count

    @pytest.mark.parametrize("mode", [SyncMode.REGULAR, SyncMode.OPTIMISTIC])
    def test_measured_sync_count_matches(self, mode):
        sc = BenchScenario("s", points=2, samples_per_point=5)
        run = run_scenario(sc, SimConfig(mode=mode))
        assert run.stats.sync_count == sc.expected_sync_count == 11

    def test_event_count_composition(self):
        sc = BenchScenario("s", points=2, samples_per_point=3)
        run = run_scenario(sc, SimConfig())
        # Per sample: 3 pulses (2 events each) + 1 dds set (3 events).
        assert run.stats.event_count == 6 * (3 * 2 + 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchScenario("s", points=0, samples_per_point=1)
        with pytest.raises(ValueError):
            BenchScenario("s", points=1, samples_per_point=1, pulse_mu=0)
        with pytest.raises(ValueError):
            BenchScenario("s", points=1, samples_per_point=1, pulses_per_sample=-1)
        with pytest.raises(ValueError):
            BenchScenario("s", points=1, samples_per_point=1, dds_sets_per_sample=-1)
        # A DDS write takes 0 MU, so only the call bound stops this one.
        with pytest.raises(ValueError, match="driver calls"):
            BenchScenario("s", points=1, samples_per_point=1, dds_sets_per_sample=10**20)
        at_calls_bound = BenchScenario("s", points=1000, samples_per_point=2000, pulse_mu=1)
        assert at_calls_bound.total_samples * (3 + 1 + 1) == MAX_SCENARIO_CALLS
        with pytest.raises(ValueError, match="driver calls"):
            BenchScenario("s", points=1001, samples_per_point=2000, pulse_mu=1)
        # Two syncs and three 1000 MU pulses leave room for this delay, and not one MU more.
        delay_mu = MU_MAX - 2 * 125_000 - 3 * 1000
        for buffered in (False, True):
            at_bound = BenchScenario("s", points=1, samples_per_point=1, delay_per_sample_mu=delay_mu,
                                     buffered=buffered)
            assert run_scenario(at_bound, SimConfig(mode=SyncMode.REGULAR)).stats.final_cursor == MU_MAX
            with pytest.raises(ValueError, match="exceeds signed 64-bit"):
                BenchScenario("s", points=1, samples_per_point=1, delay_per_sample_mu=delay_mu + 1,
                              buffered=buffered)


class TestSyncLaw:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_obey_sync_law(self, name):
        scenario = PRESETS[name]
        if scenario.total_samples > 2000:
            scenario = BenchScenario(
                name, points=scenario.points, samples_per_point=50,
                delay_per_sample_mu=scenario.delay_per_sample_mu,
                pulse_mu=scenario.pulse_mu, buffered=scenario.buffered,
            )
        report = run_scenario_both(scenario)
        assert report.sync_law_delta() == 125_000 * (report.sync_count - 1)

    def test_relative_error_formula(self):
        assert relative_error(90.0, 100.0) == pytest.approx(-0.1)
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)


class TestReports:
    def test_rows_deterministic_except_timing(self):
        sc = BenchScenario("s", points=2, samples_per_point=4)
        rows_a = report_rows(run_scenario_both(sc))
        rows_b = report_rows(run_scenario_both(sc))
        volatile = {"wall_clock_ns", "speedup_proxy"}
        for a, b in zip(rows_a, rows_b):
            assert {k: v for k, v in a.items() if k not in volatile} == {
                k: v for k, v in b.items() if k not in volatile
            }

    def test_rows_include_relative_error_with_reference(self):
        sc = BenchScenario("s", points=1, samples_per_point=2)
        rows = report_rows(run_scenario_both(sc), t_ref_mu=10**6)
        assert all("relative_error" in row for row in rows)

    def test_speedup_proxy_uses_ref_period(self):
        # 10^6 MU simulated in 1 µs of wall clock.
        stats = RunStats(event_count=0, sync_count=1, start_cursor_after_first_sync=0,
                         final_cursor=10**6, wall_clock_ns=1000)
        assert speedup_proxy(stats) == pytest.approx(1000)

    def test_optimistic_vs_regular_error_negative(self):
        report = run_scenario_both(BenchScenario("s", points=2, samples_per_point=4))
        assert report.optimistic_vs_regular_error() < 0


class TestPresetRegistry:
    @pytest.mark.parametrize("mode", list(SyncMode))
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_a_preset_runs_as_its_bundled_experiment(self, name, mode):
        # run_scenario and `rtsim run <preset>` run one program on one device database.
        config = SimConfig(mode=mode)
        bench = run_scenario(PRESETS[name], config).stats
        cli = run_experiment(experiments.get_experiment(name), experiments.load_demo_ddb(), config).stats
        fields = [field for field in RunStats.__slots__ if field != "wall_clock_ns"]
        assert [getattr(bench, field) for field in fields] == [getattr(cli, field) for field in fields]

    def test_each_bundled_name_is_looked_up(self):
        # A lookup leaves the module as it was: each preset lookup builds its experiment anew.
        before = dict(vars(experiments))
        for name in PRESETS:
            exp = experiments.get_experiment(name)
            assert type(exp) is Experiment and exp.name == name
        assert experiments.get_experiment("demo").name == "demo"
        known = ", ".join(sorted(["demo", *PRESETS]))
        with pytest.raises(KeyError) as info:
            experiments.get_experiment("nope")
        assert info.value.args == (f"unknown experiment 'nope'; bundled experiments: {known}",)
        assert vars(experiments) == before
