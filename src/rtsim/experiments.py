"""Bundled experiments runnable from the command line and used by tests."""

from __future__ import annotations

import importlib.resources

from .environment import DeviceDb, Experiment, SimulationRun, load_ddb
from .testkit import set_input
from .timeline import short_repr


def demo_ddb_path():
    """Path of the bundled demo device database."""
    return importlib.resources.files("rtsim").joinpath("data/demo_ddb.json")


def load_demo_ddb() -> DeviceDb:
    return load_ddb(demo_ddb_path())


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


REGISTRY = {"demo": Experiment("demo", _demo_body)}  # the bench presets join on a miss


def get_experiment(name: str) -> Experiment:
    if name not in REGISTRY:  # so a demo run never loads bench; a user's own entry is never overwritten
        from . import bench
        for preset, scenario in bench.PRESETS.items():
            REGISTRY.setdefault(preset, bench.scenario_experiment(scenario))
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {short_repr(name)}; bundled experiments: {known}") from None
