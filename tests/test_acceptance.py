"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured timings.
"""

import random
import time
from pathlib import Path

import pytest

from rtsim import (
    DeviceDb,
    Experiment,
    SignalKind,
    SignalManager,
    SimConfig,
    SyncMode,
    TimeManager,
    run_experiment,
)
from rtsim.bench import PRESETS, run_scenario_both, speedup_proxy
from rtsim.experiments import get_experiment, load_demo_ddb
from rtsim.testkit import set_input
from rtsim.trace import export_jsonl, export_vcd

from oracles import PushLogOracle, random_tree, run_tree, tree_duration
from vcd_check import check_vcd

GOLDEN_DIR = Path(__file__).parent / "golden"
SLACK = 125_000


def report(criterion: int, detail: str) -> None:
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_context_stack_oracle():
    rng = random.Random(20260811)
    t0 = time.perf_counter()
    for i in range(1000):
        tree = random_tree(rng, max_depth=6, max_delays=50)
        tm = TimeManager(SimConfig())
        run_tree(tm, tree)
        assert tm.now_mu() == tree_duration(tree), f"tree {i} diverged"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"context-stack oracle took {elapsed:.2f}s"
    report(1, f"1000 nesting trees match the recursive oracle exactly ({elapsed:.2f}s)")


def test_criterion_2_signal_store_oracle():
    rng = random.Random(4711)
    t0 = time.perf_counter()
    for i in range(1000):
        n_pushes = 1000 if i % 50 == 0 else rng.randint(1, 300)
        sig = SignalManager().register("dev", "sig", SignalKind.INT)
        oracle = PushLogOracle()
        lo, hi = -(10**5), 10**5
        for _ in range(n_pushes):
            # Duplicate timestamps and out-of-order pushes are the common case.
            t = rng.randint(lo, hi)
            v = rng.randint(-(10**9), 10**9)
            sig.push(v, t)
            oracle.push(t, v)
        for _ in range(15):
            t = rng.randint(lo - 10, hi + 10)
            expected = oracle.pull(t)
            actual = sig.pull(t)
            if expected is None:
                from rtsim import UNKNOWN

                assert actual is UNKNOWN, f"script {i}: pull({t})"
            else:
                assert actual == expected, f"script {i}: pull({t})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"signal-store oracle took {elapsed:.2f}s"
    report(2, f"1000 push/pull scripts match the linear-scan oracle exactly ({elapsed:.2f}s)")


def _random_sync_program(rng):
    """Program whose only variable delays are cursor syncs.

    Every time is relative to the cursor: an ``at_mu`` target or an input
    event time is the cursor plus an offset. Fixed delays and offsets are
    non-negative: the sync identity provably fails for programs that pull
    the cursor back below previously posted events.
    """
    items = [("sync",)] if rng.random() < 0.9 else []
    for _ in range(rng.randint(1, 12)):
        roll = rng.random()
        if roll < 0.25:
            items.append(("delay", rng.randint(0, 10**6)))
        elif roll < 0.45:
            items.append(("pulse", rng.randrange(3), rng.randint(1, 10**5)))
        elif roll < 0.6:
            items.append(("tree", random_tree(rng, 4, 12, lo=0, hi=10**5)))
        elif roll < 0.7:
            items.append(("at", rng.randint(0, 10**6)))
        elif roll < 0.8:
            items.append(("input", rng.randint(0, 10**6)))  # an event ahead of the cursor, so a sync may jump to it
        else:
            items.append(("sync",))
    return items


def _run_sync_program(items, mode):
    """The finished run of ``items`` in ``mode``, and its (cursor, sync count) after each item."""
    trail = []

    def body(run):
        core = run.get_device("core")
        ttls = [run.get_device(f"ttl{i}") for i in range(3)]
        run.get_device("in0")  # registers in0.prob for the input items
        for item in items:
            if item[0] == "delay":
                run.delay_mu(item[1])
            elif item[0] == "pulse":
                ttls[item[1]].pulse(item[2])
            elif item[0] == "tree":
                run_tree(run.time, item[1])
            elif item[0] == "at":
                run.at_mu(run.now_mu() + item[1])
            elif item[0] == "input":
                set_input(run, "in0", "prob", run.now_mu() + item[1], 0.5)
            else:
                core.reset()
            trail.append((run.now_mu(), run.time.sync_count))

    return run_experiment(Experiment("sync-program", body), load_demo_ddb(), SimConfig(mode=mode)), trail


def test_criterion_3_sync_law():
    for name, scenario in PRESETS.items():
        rep = run_scenario_both(scenario)
        in_window = rep.sync_count - 1
        assert rep.sync_law_delta() == SLACK * in_window, name

    rng = random.Random(97)
    for i in range(100):
        items = _random_sync_program(rng)
        (regular, reg_trail), (optimistic, opt_trail) = (_run_sync_program(items, mode) for mode in SyncMode)
        # Per operation: equal sync counts, and the regular cursor ahead by one slack a sync so far. Every
        # write lands at its operation's cursor plus an offset the operation fixes, so this pins each write.
        for j, ((reg_now, syncs), (opt_now, opt_syncs)) in enumerate(zip(reg_trail, opt_trail, strict=True)):
            assert syncs == opt_syncs and reg_now - opt_now == SLACK * syncs, f"program {i}: item {j}"
        syncs = regular.stats.sync_count
        assert syncs == optimistic.stats.sync_count
        final_delta = regular.stats.final_cursor - optimistic.stats.final_cursor
        assert final_delta == SLACK * syncs, f"program {i}: final-cursor law"
        length_delta = regular.stats.timeline_length_mu - optimistic.stats.timeline_length_mu
        in_window = syncs - 1 if syncs else 0
        assert length_delta == SLACK * in_window, f"program {i}: timeline-length law"
    report(3, "sync law exact on all bundled scenarios, and after every operation of 100 random sync programs")


def _lengths(body):
    """Timeline length of ``body`` on the demo DDB under the regular, then the optimistic configuration."""
    return tuple(run_experiment(Experiment("x", body), load_demo_ddb(), SimConfig(mode=mode)).stats.timeline_length_mu
                 for mode in (SyncMode.REGULAR, SyncMode.OPTIMISTIC))


def test_sync_law_fails_for_an_absolute_input_time_after_the_first_sync():
    # Documented: the event at 60 000 lies between the two modes' cursors after the first sync.
    def body(run):
        core = run.get_device("core")
        run.get_device("in0")
        core.reset()
        set_input(run, "in0", "prob", 60_000, 0.5)
        core.reset()
        core.reset()

    regular, optimistic = _lengths(body)
    assert (regular, optimistic) == (250_000, 60_000)
    assert regular - optimistic == 190_000 != SLACK * 2  # 3 syncs: the law gives 250 000


def test_sync_law_fails_for_an_absolute_at_mu_after_the_first_sync():
    # Documented: each mode counts from its own first-sync cursor, so the regular timeline comes out shorter.
    def body(run):
        run.get_device("core").reset()
        run.at_mu(1_000_000)

    regular, optimistic = _lengths(body)
    assert (regular, optimistic) == (875_000, 1_000_000)
    assert regular - optimistic == -SLACK != 0  # 1 sync: the law gives 0


def test_criterion_4_measurement_protocol():
    from rtsim.bench import run_scenario

    # Length is defined as final cursor minus cursor right after the first sync.
    rep = run_scenario_both(PRESETS["scan_demo"])
    for mode in SyncMode:
        stats = run_scenario(PRESETS["scan_demo"], SimConfig(mode=mode)).stats
        assert stats.start_cursor_after_first_sync is not None
        assert stats.timeline_length_mu == stats.final_cursor - stats.start_cursor_after_first_sync
        assert stats.timeline_length_mu == rep.results[mode].timeline_length_mu
    assert rep.scenario.total_samples == 2000
    assert rep.sync_count == 2001

    rel = rep.optimistic_vs_regular_error()
    formula = -(SLACK * (rep.sync_count - 1)) / rep.timeline_length_regular_mu
    assert formula != 0
    assert abs(rel - formula) <= 1e-12 * abs(formula)
    report(
        4,
        f"scan reports length from after-first-sync; optimistic-vs-regular error "
        f"{rel:.6e} matches -(125000*(sync_count-1))/length_regular within 1e-12",
    )


def test_criterion_5_determinism(tmp_path):
    ddb = load_demo_ddb()
    for exp_name in ("demo", "scan_demo"):
        exp = get_experiment(exp_name)
        dumps = []
        walls = []
        for attempt in ("a", "b"):
            run = run_experiment(exp, ddb, SimConfig(seed=42))
            path = tmp_path / f"{exp_name}-{attempt}.jsonl"
            export_jsonl(run, path)
            dumps.append(path.read_bytes())
            walls.append(run.stats.wall_clock_ns)
        assert dumps[0] == dumps[1], exp_name
        assert b"wall" not in dumps[0]  # wall clock lives in stats only
        assert all(w >= 0 for w in walls)
    report(5, "repeat runs of demo and scan_demo with one seed export byte-identical JSONL")


def test_criterion_6_device_semantics(make_run):
    # Pulse composition.
    run = make_run()
    ttl = run.get_device("ttl0")
    run.delay_mu(100)
    ttl.pulse(1000)
    assert ttl.state.events() == [(100, True), (1100, False)]

    # Same-timestamp overwrite.
    run = make_run()
    ttl = run.get_device("ttl0")
    ttl.on()
    ttl.off()
    assert ttl.state.events() == [(0, False)]

    # Bernoulli degeneracies and the pinned golden sequence.
    for p, expected in ((1.0, [1] * 8), (0.0, [0] * 8)):
        run = make_run()
        dev = run.get_device("in0")
        dev.prob.push(p, 0)
        assert [dev.sample_get() for _ in range(8)] == expected
    run = make_run(seed=12345)
    dev = run.get_device("in0")
    dev.prob.push(0.5, 0)
    assert [dev.sample_get() for _ in range(8)] == [1, 0, 0, 1, 0, 1, 1, 1]

    # Deterministic edge count: 1 MHz for 1 ms is exactly 1000.
    run = make_run()
    counter = run.get_device("counter0")
    counter.freq.push(1.0e6, 0)
    counter.gate_rising(1_000_000)
    assert counter.fetch_count() == 1000

    # Pinned Poisson golden: seed 7, mean 1.0.
    poisson_ddb = DeviceDb.from_dict(
        {"devices": [
            {"name": "core", "kind": "core"},
            {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": "poisson"}},
        ]}
    )
    run = make_run(seed=7, ddb=poisson_ddb)
    counter = run.get_device("counter0")
    counter.freq.push(1.0e3, 0)
    counter.gate_rising(1_000_000)
    assert counter.fetch_count() == 0

    # DDS set posts all three values at the cursor; later set wins.
    run = make_run()
    dds = run.get_device("dds0")
    dds.set(1e8, 0.25, 0.5)
    dds.set(2e8, 0.5, 0.25)
    assert dds.freq.events() == [(0, 2e8)]
    assert dds.phase.pull(0) == 0.5 and dds.amp.pull(0) == 0.25

    # ADC reads the configured voltages at the cursor.
    run = make_run()
    adc = run.get_device("adc0")
    adc.voltages[0].push(1.0, 0)
    adc.voltages[1].push(2.0, 0)
    run.delay_mu(1)
    assert adc.sample() == [1.0, 2.0]

    report(6, "pulse/sample/count/set golden values exact")


def test_criterion_7_performance_envelope():
    sig = SignalManager().register("perf", "sig", SignalKind.INT)
    rng = random.Random(5)
    n_events, n_pulls = 1_000_000, 100_000
    t0 = time.perf_counter()
    for i in range(n_events):
        sig.push(i, i * 4)
    span = n_events * 4
    for _ in range(n_pulls):
        sig.pull(rng.randrange(-10, span + 10))
    elapsed = time.perf_counter() - t0
    assert len(sig) == n_events
    assert elapsed < 5.0, f"performance envelope exceeded: {elapsed:.2f}s"
    report(7, f"10^6 pushes + 10^5 pulls in {elapsed:.2f}s")


def test_criterion_8_speedup_direction():
    reports = {name: run_scenario_both(PRESETS[name]) for name in ("delay_dominated", "event_dominated")}

    def proxy(name, mode):
        return speedup_proxy(reports[name].results[mode])

    ratios = {}
    for mode in SyncMode:
        delay_proxy = proxy("delay_dominated", mode)
        event_proxy = proxy("event_dominated", mode)
        assert delay_proxy >= 10 * event_proxy, (
            f"{mode.value}: delay-dominated {delay_proxy:.3g} vs event-dominated {event_proxy:.3g}"
        )
        ratios[mode.value] = delay_proxy / event_proxy
    report(8, "delay-dominated speedup proxy >= 10x event-dominated "
              f"(ratios: {ratios['regular']:.1f}x regular, {ratios['optimistic']:.1f}x optimistic)")


def test_criterion_9_vcd_validity_and_goldens(tmp_path):
    run = run_experiment(get_experiment("demo"), load_demo_ddb(), SimConfig())
    vcd_path = tmp_path / "demo.vcd"
    jsonl_path = tmp_path / "demo.jsonl"
    export_vcd(run, vcd_path)
    export_jsonl(run, jsonl_path)

    parsed = check_vcd(vcd_path.read_text())
    assert parsed["timescale"] == "1 ns"
    assert len(parsed["scopes"]) == 8

    assert vcd_path.read_bytes() == (GOLDEN_DIR / "demo.vcd").read_bytes()
    assert jsonl_path.read_bytes() == (GOLDEN_DIR / "demo.jsonl").read_bytes()
    report(9, "demo VCD passes conformance checks and matches goldens byte-for-byte")
