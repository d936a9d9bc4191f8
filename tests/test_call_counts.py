"""Past speedups guarded by counting Python-level calls, not by timing.

A call count does not depend on the host's load, so a change that undoes one
of these wins fails tier-1, not only a benchmark run.
"""

import collections
import sys

from rtsim import DeviceDb, SimConfig, SimulationRun
from rtsim.timeline import REGULAR_SYNC_SLACK_MU


def _python_calls(fn):
    """Run ``fn()`` and count the Python-level calls it makes, by qualified name (``fn`` itself included)."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":  # a Python function entered, or a generator resumed
            calls[frame.f_code.co_qualname] += 1

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
