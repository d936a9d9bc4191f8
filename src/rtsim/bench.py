"""Benchmark scenarios and reports.

Scenarios emulate scanning experiments: per sample a fixed burst of digital
pulses and synthesizer writes, a fixed per-sample delay, and a cursor sync
per sample (unbuffered) or per batch of 16 samples (buffered). Every scenario
runs on ``experiments.DEMO_DDB``, as ``rtsim run <preset>`` does, under the
regular and optimistic synchronization configurations; the report carries the
measured timeline lengths and a speedup proxy.

The sync law, regular length - optimistic length = 125 000 MU x (syncs - 1),
holds for a program in which every time after the first sync is relative to
the cursor and the cursor never moves back. An absolute time after the first
sync lies at different distances from the two modes' cursors, and breaks it.
"""

from __future__ import annotations

import math

from .environment import Experiment, RunStats, SimulationRun, run_experiment
from .experiments import load_demo_ddb
from .timeline import MU_MAX, REF_PERIOD_S, REGULAR_SYNC_SLACK_MU, Record, SimConfig, SyncMode, short_repr

BUFFER_BATCH = 16

# Most driver calls and delays one scenario may make. A run holds about 60 B of events
# per call, so this bounds it near 600 MB; the largest preset makes 62 500.
MAX_SCENARIO_CALLS = 10**7


class BenchScenario(Record):
    __slots__ = ("name", "points", "samples_per_point", "delay_per_sample_mu", "pulses_per_sample",
                 "dds_sets_per_sample", "pulse_mu", "buffered")

    def __init__(self, name: str, points: int, samples_per_point: int, delay_per_sample_mu: int = 0,
                 pulses_per_sample: int = 3, dds_sets_per_sample: int = 1, pulse_mu: int = 1000,
                 buffered: bool = False):
        self._set(locals())
        for field, want in zip(self.__slots__[1:], (int,) * 6 + (bool,)):  # so a bool is not a count
            if type(value := getattr(self, field)) is not want:
                raise TypeError(f"{field} must be {want.__name__}, got {short_repr(value)}")
        if self.points < 1 or self.samples_per_point < 1:
            raise ValueError("points and samples_per_point must be >= 1")
        if self.pulse_mu <= 0:
            raise ValueError("pulse_mu must be positive")
        if self.delay_per_sample_mu < 0:
            raise ValueError("delay_per_sample_mu must be >= 0")
        if self.pulses_per_sample < 0 or self.dds_sets_per_sample < 0:
            raise ValueError("pulses_per_sample and dds_sets_per_sample must be >= 0")
        # A DDS write takes 0 MU by default, so the timeline bound below does not bound the run time.
        calls = self.total_samples * (self.pulses_per_sample + self.dds_sets_per_sample + 1)
        if calls > MAX_SCENARIO_CALLS:
            raise ValueError(f"scenario of {short_repr(calls)} driver calls and delays "
                             f"exceeds the bound of {MAX_SCENARIO_CALLS}")
        # The regular run's final cursor; its timeline only grows, so this is its largest time.
        length_mu = (self.expected_sync_count * REGULAR_SYNC_SLACK_MU + self.total_samples
                     * (self.pulses_per_sample * self.pulse_mu + self.delay_per_sample_mu))
        if length_mu > MU_MAX:
            raise ValueError(f"scenario timeline of {short_repr(length_mu)} MU "
                             "exceeds signed 64-bit machine units")

    @property
    def total_samples(self) -> int:
        return self.points * self.samples_per_point

    @property
    def expected_sync_count(self) -> int:
        """One initial sync plus one per sample, or per batch of 16 if buffered."""
        if self.buffered:
            return 1 + math.ceil(self.total_samples / BUFFER_BATCH)
        return 1 + self.total_samples


def scenario_experiment(scenario: BenchScenario) -> Experiment:
    def body(run: SimulationRun) -> None:
        core = run.get_device("core")
        ttls = [run.get_device(f"ttl{i}") for i in range(3)]
        dds = run.get_device("dds0")
        core.reset()
        done = 0
        for _point in range(scenario.points):
            for _sample in range(scenario.samples_per_point):
                for i in range(scenario.pulses_per_sample):
                    ttls[i % 3].pulse(scenario.pulse_mu)
                for _ in range(scenario.dds_sets_per_sample):
                    dds.set(2.0e8, 0.0, 1.0)
                if scenario.delay_per_sample_mu:
                    run.delay_mu(scenario.delay_per_sample_mu)
                done += 1
                if not scenario.buffered or done % BUFFER_BATCH == 0:
                    core.reset()
        if scenario.buffered and done % BUFFER_BATCH:
            core.reset()

    return Experiment(scenario.name, body)


PRESETS = {
    "scan_demo": BenchScenario(
        "scan_demo", points=20, samples_per_point=100, delay_per_sample_mu=10_000
    ),
    "scan_demo_buffered": BenchScenario(
        "scan_demo_buffered", points=20, samples_per_point=100,
        delay_per_sample_mu=10_000, buffered=True,
    ),
    "delay_dominated": BenchScenario(
        "delay_dominated", points=20, samples_per_point=100,
        delay_per_sample_mu=1_000_000,
    ),
    "event_dominated": BenchScenario(
        "event_dominated", points=25, samples_per_point=500,
        delay_per_sample_mu=0, pulse_mu=1, buffered=True,
    ),
}


def relative_error(t_sim: float, t_ref: float) -> float:
    """Relative simulation error against a reference time."""
    return (t_sim - t_ref) / t_ref


def speedup_proxy(stats: RunStats) -> float:
    """Simulated timeline seconds per wall-clock second."""
    wall_s = max(stats.wall_clock_ns, 1) * 1e-9
    return stats.timeline_length_mu * REF_PERIOD_S / wall_s


class BenchReport(Record):
    __slots__ = ("scenario", "results")

    def __init__(self, scenario: BenchScenario, results: dict | None = None):
        results = {} if results is None else results  # SyncMode -> RunStats of that run
        self._set(locals())

    @property
    def timeline_length_regular_mu(self) -> int:
        return self.results[SyncMode.REGULAR].timeline_length_mu

    @property
    def timeline_length_optimistic_mu(self) -> int:
        return self.results[SyncMode.OPTIMISTIC].timeline_length_mu

    @property
    def sync_count(self) -> int:
        return self.results[SyncMode.REGULAR].sync_count

    def sync_law_delta(self) -> int:
        return self.timeline_length_regular_mu - self.timeline_length_optimistic_mu

    def optimistic_vs_regular_error(self) -> float:
        """Relative error of the optimistic length with the regular one as reference."""
        return relative_error(self.timeline_length_optimistic_mu, self.timeline_length_regular_mu)


def run_scenario(scenario: BenchScenario, config: SimConfig) -> SimulationRun:
    return run_experiment(scenario_experiment(scenario), load_demo_ddb(), config)


def run_scenario_both(scenario: BenchScenario) -> BenchReport:
    """Run a scenario under the regular and the optimistic configuration (no input, so no seed)."""
    modes = (SyncMode.REGULAR, SyncMode.OPTIMISTIC)
    return BenchReport(scenario, {mode: run_scenario(scenario, SimConfig(mode=mode)).stats for mode in modes})


def report_rows(report: BenchReport, t_ref_mu: int | None = None) -> list[dict]:
    """Flatten a report into CSV-ready row dicts, one per configuration."""
    rows = []
    for mode in (SyncMode.REGULAR, SyncMode.OPTIMISTIC):
        res = report.results[mode]
        row = {
            "scenario": report.scenario.name,
            "config": mode.value,
            "timeline_length_mu": res.timeline_length_mu,
            "event_count": res.event_count,
            "sync_count": res.sync_count,
            "wall_clock_ns": res.wall_clock_ns,
            "speedup_proxy": f"{speedup_proxy(res):.6g}",
        }
        if t_ref_mu is not None:
            row["relative_error"] = f"{relative_error(res.timeline_length_mu, t_ref_mu):.6g}"
        rows.append(row)
    return rows

