"""Past speedups guarded by counting Python-level calls, not by timing.

A call count does not depend on the host's load, so a change that undoes one
of these wins fails tier-1, not only a benchmark run.
"""

import collections
import functools
import sys

import pytest

from rtsim import DeviceDb, SimConfig, SimulationRun, set_input
from rtsim.rng import Xoshiro256StarStar
from rtsim.timeline import MU_MAX, REGULAR_SYNC_SLACK_MU


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
    # InputBuffer.put is deque.append: a count enters the buffer without a Python frame.
    run = _counter_run("deterministic")
    counter = run.get_device("counter0")
    set_input(run, "counter0", "freq", 0, 1.0e6)
    calls = _python_calls(lambda: counter.gate_rising_mu(1000))
    assert calls["InputBuffer.put"] == 0 and list(counter.buffer) == [1]


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
