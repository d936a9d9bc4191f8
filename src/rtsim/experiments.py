"""Bundled experiments runnable from the command line and used by tests."""

from __future__ import annotations

from .environment import DeviceDb, Experiment, SimulationRun
from .testkit import set_input
from .timeline import short_repr

# The device database every bundled experiment runs on, the bench presets included; shared, so never mutate it.
DEMO_DDB = {"devices": [
    {"name": "core", "kind": "core"},
    {"name": "ttl0", "kind": "ttl_out"},
    {"name": "ttl1", "kind": "ttl_out"},
    {"name": "ttl2", "kind": "ttl_out"},
    {"name": "in0", "kind": "ttl_in"},
    {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": "deterministic"}},
    {"name": "dds0", "kind": "dds"},
    {"name": "adc0", "kind": "adc", "params": {"channels": 2}},
]}


def load_demo_ddb() -> DeviceDb:
    return DeviceDb.from_dict(DEMO_DDB)


def _demo_body(run: SimulationRun) -> None:
    core = run.get_device("core")
    ttl0 = run.get_device("ttl0")
    ttl1 = run.get_device("ttl1")
    ttl2 = run.get_device("ttl2")
    in0 = run.get_device("in0")
    counter = run.get_device("counter0")
    dds = run.get_device("dds0")
    adc = run.get_device("adc0")

    # Hypothetical input sources; the counter frequency is set before time
    # zero, which the VCD export clamps into the initial-values block.
    set_input(run, "counter0", "freq", -1000, 1.0e6)
    set_input(run, "in0", "prob", 0, 1.0)
    set_input(run, "adc0", "v0", 0, 1.25)
    set_input(run, "adc0", "v1", 0, -0.5)

    with run.kernel("demo"):
        core.reset()
        ttl0.pulse(1000)
        dds.set(1.0e8, 0.25, 0.5)
        with run.parallel():
            with run.sequential():
                ttl1.pulse(500)
            with run.sequential():
                ttl2.pulse(800)
        counter.gate_rising(1_000_000)
        counter.fetch_count()
        adc.sample()
        in0.sample_get()
        run.delay_mu(100)


_DEMO = Experiment("demo", _demo_body)


def get_experiment(name: str) -> Experiment:
    if name == "demo":  # so a demo run never loads bench
        return _DEMO
    from . import bench
    if name in bench.PRESETS:
        return bench.scenario_experiment(bench.PRESETS[name])
    known = ", ".join(sorted(["demo", *bench.PRESETS]))
    raise KeyError(f"unknown experiment {short_repr(name)}; bundled experiments: {known}")
