"""Past speedups guarded by counting Python-level calls, not by timing.

A call count does not depend on the host's load, so a change that undoes one
of these wins fails tier-1, not only a benchmark run.
"""

import collections
import functools
import gc
import sys

import pytest

from rtsim import (DeviceDb, Experiment, SignalKind, SimConfig, SimulationRun, assert_events, expect, export_jsonl,
                   export_vcd, run_experiment, set_input)
from rtsim.rng import _TABLE_MEANS, Xoshiro256StarStar
from rtsim.timeline import MU_MAX, REGULAR_SYNC_SLACK_MU

from oracles import poisson_search


def _python_calls(fn, limits=None):
    """Run ``fn()`` and count the Python-level calls it makes, by qualified name (``fn`` itself included).

    ``limits`` maps a name to the most calls it may make: ``fn`` stops with ``RuntimeError`` at the
    call past that, so a loop whose length grows with an argument fails at once instead of running on.
    """
    calls = collections.Counter()
    limits = limits or {}

    def profile(frame, event, arg):
        if event == "call":  # a Python function entered, or a generator resumed
            name = frame.f_code.co_qualname
            calls[name] += 1
            if name in limits and calls[name] > limits[name]:
                raise RuntimeError(f"more than {limits[name]} calls of {name}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def _run(ttl_count=0):
    devices = [{"name": "core", "kind": "core"}, *({"name": f"ttl{i}", "kind": "ttl_out"} for i in range(ttl_count))]
    return SimulationRun(DeviceDb.from_dict({"devices": devices}), SimConfig())


def test_frame_enter_and_exit_make_no_delay_call():
    run = _run()

    def body():
        with run.parallel():
            with run.sequential():
                run.delay_mu(100)
            with run.sequential():
                run.delay_mu(200)
        with run.sequential():
            run.delay_mu(50)

    calls = _python_calls(body)
    # A pop re-applies the popped duration itself: the body's three delays are the only ones.
    assert calls["TimeManager.delay_mu"] == 3
    assert calls["Frame.__enter__"] == calls["Frame.__exit__"] == 4
    assert run.now_mu() == 250 and run.time.depth == 1


def _reset_calls(ttl_count):
    run = _run(ttl_count)
    core = run.get_device("core")
    for i in range(ttl_count):
        run.get_device(f"ttl{i}").pulse_mu(10)
    top = run.now_mu()  # the last falling edge, the largest event time
    run.at_mu(0)  # so the sync moves the cursor to that event, not to where it already is
    calls = _python_calls(core.reset)
    assert run.now_mu() == top + REGULAR_SYNC_SLACK_MU
    return calls


def test_reset_calls_do_not_grow_with_device_count():
    # A sync reads one shared horizon cell; it must not visit each device or signal.
    assert _reset_calls(512) == _reset_calls(4)


def _counter_run(counter_mode, seed=0):
    devices = [{"name": "core", "kind": "core"}, {"name": "ttl0", "kind": "ttl_out"},
               {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": counter_mode}}]
    return SimulationRun(DeviceDb.from_dict({"devices": devices}), SimConfig(seed=seed))


def _driver_calls(duration):
    run = _counter_run("deterministic")
    ttl, counter = run.get_device("ttl0"), run.get_device("counter0")
    set_input(run, "counter0", "freq", 0, 1.0e6)
    pulse_calls = _python_calls(lambda: ttl.pulse_mu(duration))
    run.at_mu(0)  # so the gate starts where the pulse did
    gate_calls = _python_calls(lambda: counter.gate_rising_mu(duration))
    assert counter.fetch_count() == round(duration * 1e-3)
    return pulse_calls, gate_calls


def test_pulse_and_gate_calls_do_not_grow_with_duration():
    # A pulse stores two edges and a gate two edges and a count, however long either lasts.
    assert _driver_calls(1) == _driver_calls(2**32) == _driver_calls(2**62)


def _gate_draws(mean, gates, limit, seed=0):
    """The ``next_u64`` calls that ``gates`` Poisson gates of count mean ``mean`` make, one after another.

    Past ``limit`` calls the gates stop with ``RuntimeError``.
    """
    run = _counter_run("poisson", seed)
    counter = run.get_device("counter0")
    set_input(run, "counter0", "freq", 0, mean * 1e3)  # a 1 ms gate: ``mean`` edges on average

    def body():
        for _ in range(gates):
            counter.gate_rising_mu(1_000_000)

    calls = _python_calls(body, {"Xoshiro256StarStar.next_u64": limit})
    assert len(counter.buffer) == gates
    return calls["Xoshiro256StarStar.next_u64"]


@pytest.mark.parametrize("mean", [1e-3, 0.5, 9.999])
def test_poisson_gate_below_mean_10_draws_once(mean):
    # One uniform a gate, inverted: summing exponential arrivals would take about mean + 1 draws.
    assert _gate_draws(mean, 100, limit=100) == 100


@pytest.mark.parametrize("mean", [10, 1e3, 1e9, 1e17])
def test_poisson_gate_draws_do_not_grow_with_mean(mean):
    # PTRS takes 2.2 to 2.7 draws a gate at any mean from 10 up.
    assert _gate_draws(mean, 1000, limit=3000, seed=7) <= 3000


def test_reset_is_the_timeline_sync():
    # core.reset() is the timeline's sync_to_counter itself, not a driver method that forwards to it.
    run = _run()
    core = run.get_device("core")
    assert core.reset.__self__ is run.time
    assert _python_calls(core.reset) == {"TimeManager.sync_to_counter": 1}


def test_fetches_are_the_buffer_take():
    devices = [{"name": "core", "kind": "core"}, {"name": "in0", "kind": "ttl_in"},
               {"name": "counter0", "kind": "edge_counter"}, {"name": "adc0", "kind": "adc"}]
    run = SimulationRun(DeviceDb.from_dict({"devices": devices}), SimConfig())
    in0, counter, adc = run.get_device("in0"), run.get_device("counter0"), run.get_device("adc0")
    assert in0.fetch_sample.__self__ is in0.buffer
    assert counter.fetch_count.__self__ is counter.buffer
    assert adc.fetch_sample.__self__ is adc.buffer
    set_input(run, "counter0", "freq", 0, 1.0e6)
    counter.gate_rising_mu(1000)
    assert _python_calls(counter.fetch_count) == {"InputBuffer.take": 1}


def test_deterministic_gate_enqueues_without_a_python_call():
    # The gate enqueues with deque.append: a count enters the buffer without a Python frame.
    run = _counter_run("deterministic")
    counter = run.get_device("counter0")
    set_input(run, "counter0", "freq", 0, 1.0e6)
    calls = _python_calls(lambda: counter.gate_rising_mu(1000))
    assert not [name for name in calls if name.startswith("InputBuffer.")] and list(counter.buffer) == [1]


@pytest.mark.parametrize("p, value", [(0.0, 0), (1.0, 1)])
def test_certain_bernoulli_makes_no_draw(p, value):
    # A draw here would shift every later sample of the device's stream.
    stream = Xoshiro256StarStar(1)
    calls = _python_calls(lambda: stream.bernoulli(p))
    assert calls["Xoshiro256StarStar.next_u64"] == 0
    assert stream.bernoulli(p) == value


@pytest.mark.parametrize("counter_mode, streams", [("deterministic", 0), ("poisson", 1)])
def test_only_a_poisson_counter_builds_a_random_stream(counter_mode, streams):
    run = _counter_run(counter_mode)
    calls = _python_calls(lambda: run.get_device("counter0"))
    assert calls["substream_seed"] == calls["Xoshiro256StarStar.__init__"] == streams


def _cursor_calls(calls):
    return {name: calls[name] for name in ("TimeManager.now_mu", "TimeManager.delay_mu") if calls[name]}


@pytest.mark.parametrize("frame", [None, "sequential", "parallel"])
def test_pulse_and_gate_move_the_cursor_in_place(frame):
    # Each reads and moves the cursor itself; delay_mu runs only to raise, on a pulse past its window.
    run = _counter_run("deterministic")
    ttl, counter = run.get_device("ttl0"), run.get_device("counter0")
    set_input(run, "counter0", "freq", 0, 1.0e6)

    def body():
        ttl.pulse_mu(100)
        counter.gate_rising_mu(200)

    if frame is None:
        calls = _python_calls(body)
    else:
        with getattr(run, frame)():
            calls = _python_calls(body)
    assert _cursor_calls(calls) == {}
    assert calls["_edges"] == 2
    assert run.now_mu() == (300 if frame != "parallel" else 200)


def test_dds_set_of_three_floats_makes_no_coercion_or_cursor_call():
    devices = [{"name": "core", "kind": "core"}, {"name": "dds0", "kind": "dds"}]
    run = SimulationRun(DeviceDb.from_dict({"devices": devices}), SimConfig())
    dds = run.get_device("dds0")
    calls = _python_calls(functools.partial(dds.set, 2.0e8, 0.25, 0.5))
    assert calls["_coerce_real"] == 0 and _cursor_calls(calls) == {}
    assert calls == {"Dds.set": 1, "Signal._put": 3}
    # Any other argument type is coerced, as before: an int frequency is stored as its float.
    calls = _python_calls(functools.partial(dds.set, 10**8, 0.25, 0.5))
    assert calls["_coerce_real"] == 3 and dds.freq.events() == [(0, 1.0e8)]


@pytest.mark.parametrize("call", ["pulse_mu", "gate_rising_mu"])
def test_call_that_ends_on_the_window_end_makes_no_delay_call(call):
    # An end time on the window's high end is in it: only one past it goes through delay_mu, to raise.
    run = _counter_run("deterministic")
    ttl, counter = run.get_device("ttl0"), run.get_device("counter0")
    device = ttl if call == "pulse_mu" else counter
    set_input(run, "counter0", "freq", 0, 1.0e6)
    run.at_mu(MU_MAX - 1000)
    calls = _python_calls(lambda: getattr(device, call)(1000))
    assert _cursor_calls(calls) == {} and run.now_mu() == MU_MAX


def _driver_run():
    devices = [{"name": "core", "kind": "core"}, {"name": "ttl0", "kind": "ttl_out"},
               {"name": "counter0", "kind": "edge_counter"}, {"name": "dds0", "kind": "dds"},
               {"name": "in0", "kind": "ttl_in"}, {"name": "adc0", "kind": "adc", "params": {"channels": 2}}]
    run = SimulationRun(DeviceDb.from_dict({"devices": devices}), SimConfig())
    for device in devices:
        run.get_device(device["name"])  # registers its signals
    for device, signal, value in (("counter0", "freq", 1.0e6), ("in0", "prob", 1.0), ("adc0", "v0", 0.5),
                                  ("adc0", "v1", -0.5)):
        set_input(run, device, signal, 0, value)
    return run


def test_writes_past_the_last_event_make_no_put_call():
    # The common write appends in place: a pulse, a gate and a dds.set past their signals' last events.
    run = _driver_run()
    ttl, counter, dds = run.get_device("ttl0"), run.get_device("counter0"), run.get_device("dds0")
    dds.set(1.0e6, 0.0, 1.0)  # the first write to an empty DDS goes through _put
    run.delay_mu(5)

    def body():
        ttl.pulse_mu(10)
        counter.gate_rising_mu(10)
        dds.set(2.0e6, 0.25, 0.5)

    calls = _python_calls(body)
    assert calls["Signal._put"] == 0
    assert ttl.state.events() == [(5, True), (15, False)] and counter.gate.events() == [(15, True), (25, False)]
    assert dds.amp.events() == [(0, 1.0), (25, 0.5)] and run.signals.event_top == [25]


def test_pulse_that_starts_on_the_last_edge_puts_both_edges():
    # A pulse on an empty signal appends in place; the next, starting on its falling edge, overwrites that edge.
    run = _driver_run()
    ttl = run.get_device("ttl0")
    assert _python_calls(lambda: ttl.pulse_mu(10))["Signal._put"] == 0
    assert _python_calls(lambda: ttl.pulse_mu(10))["Signal._put"] == 2
    assert ttl.state.events() == [(0, True), (10, True), (20, False)]


def test_sampling_drivers_make_no_pull_call():
    # Each reads its input signal with a bisect in place.
    run = _driver_run()
    ttl_in, counter, adc = run.get_device("in0"), run.get_device("counter0"), run.get_device("adc0")

    def body():
        ttl_in.sample_input()
        counter.gate_rising_mu(1000)
        adc.sample_input()
        assert ttl_in.sample_get() == 1 and adc.sample() == [0.5, -0.5]  # the consuming calls read the same way

    assert _python_calls(body)["Signal.pull"] == 0
    assert ttl_in.fetch_sample() == 1 and counter.fetch_count() == 1 and adc.fetch_sample() == [0.5, -0.5]


def test_sample_get_makes_only_its_draw_and_its_put():
    # One body: a get from an empty buffer returns its own draw, with no sample_input or take frame.
    run = _driver_run()
    ttl_in = run.get_device("in0")
    set_input(run, "in0", "prob", 0, 0.5)  # a draw, not a certain value
    calls = _python_calls(ttl_in.sample_get)
    assert calls == {"TtlIn.sample_get": 1, "Xoshiro256StarStar.bernoulli": 1, "Xoshiro256StarStar.random": 1,
                     "Xoshiro256StarStar.next_u64": 1, "Signal._put": 1}
    assert len(ttl_in.sample.events()) == 1 and not ttl_in.buffer


def test_adc_sample_makes_no_other_call():
    run = _driver_run()
    adc = run.get_device("adc0")
    assert _python_calls(adc.sample) == {"Adc.sample": 1}
    adc.sample_input()  # a later read with a vector waiting consumes that vector, in the same one call
    assert _python_calls(adc.sample) == {"Adc.sample": 1} and len(adc.buffer) == 1


def test_a_kept_mean_draws_by_one_bisect():
    # The first draw at a mean keeps its sums; every draw there is one uniform and one bisect.
    stream = Xoshiro256StarStar(3)
    stream.poisson(4.5)
    assert list(stream._tables) == [4.5] and type(stream._tables[4.5]) is tuple
    calls = _python_calls(functools.partial(stream.poisson, 4.5))
    assert calls == {"Xoshiro256StarStar.poisson": 1, "Xoshiro256StarStar.random": 1, "Xoshiro256StarStar.next_u64": 1}


def test_a_stream_keeps_a_bounded_number_of_means():
    # Means that never repeat fill the table and clear it, over and over; the draws stay the search's.
    stream, twin = Xoshiro256StarStar(8), Xoshiro256StarStar(8)
    means = [0.5 + 9.4 * i / 10_000 for i in range(10_000)] + [7.25] * 3
    most = 0
    draws = []
    for mean in means:
        draws.append(stream.poisson(mean))
        most = max(most, len(stream._tables))
    assert most == _TABLE_MEANS == 64
    assert draws == [poisson_search(mean, twin.random()) for mean in means]


def _probe_run(n):
    """A run with one INT signal ``probe.sig`` that holds ``n`` events, value t at time t."""
    run = _run()
    sig = run.signals.register("probe", "sig", SignalKind.INT)
    for t in range(n):
        sig.push(t, t)
    return run


def test_expect_reads_the_store_by_one_bisect():
    # One _nearest_events call gives the value and both neighbour times; no Signal.pull bisects again.
    run = _probe_run(100)
    calls = _python_calls(functools.partial(expect, run, "probe", "sig", 50, 50))
    assert calls == {"expect": 1, "SignalManager.signal": 1, "_coerce_int": 1, "_nearest_events": 1,
                     "CheckReport.__init__": 1}


def _assert_events_calls(n, diverge):
    run = _probe_run(n)
    pairs = run.signals.signal("probe", "sig").events()
    if diverge:
        pairs[0] = (0, -1)
    calls = _python_calls(functools.partial(assert_events, run, "probe", "sig", pairs))
    assert calls.pop("_coerce_int") == n
    return calls


@pytest.mark.parametrize("diverge", [False, True], ids=["matching", "diverging-at-0"])
def test_assert_events_makes_one_validator_call_a_pair_and_no_other_call_that_grows(diverge):
    # One loop over the pairs compares each in place: no helper runs per pair, nor for the pairs past a divergence.
    assert _assert_events_calls(10, diverge) == _assert_events_calls(1000, diverge)


def _export_calls(export, n, path):
    """The calls ``export`` makes for a finished run whose BOOL and REAL signals hold ``n`` events each, two before 0."""
    def body(run):
        flag = run.signals.register("probe", "flag", SignalKind.BOOL)
        level = run.signals.register("probe", "level", SignalKind.REAL)
        for t in range(-2, n - 2):
            flag.push(t % 2 == 0, t)
            level.push(t + 0.5, t)

    run = run_experiment(Experiment("probe", body), DeviceDb.from_dict({"devices": [{"name": "core", "kind": "core"}]}),
                         SimConfig())
    # A collection inside the export could run a gc callback, or finalize an earlier test's generator:
    # Python calls, but not the export's.
    gc.collect()
    gc.disable()
    try:
        return _python_calls(functools.partial(export, run, path))
    finally:
        gc.enable()


@pytest.mark.parametrize("export", [export_vcd, export_jsonl])
def test_exports_make_no_python_call_that_grows_with_the_events(export, tmp_path):
    # Each value is rendered by a C-level callable inside a map: no Python helper runs per event.
    # INT and TEXT VCD values are rendered by lambdas, so this run holds none.
    assert _export_calls(export, 10, tmp_path / "dump") == _export_calls(export, 1000, tmp_path / "dump")
