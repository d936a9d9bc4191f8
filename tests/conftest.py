import itertools
import sys
from pathlib import Path

import pytest

from rtsim import DeviceDb, SimConfig, SimulationRun, SyncMode
from rtsim.rng import Xoshiro256StarStar

sys.path.insert(0, str(Path(__file__).parent))

FULL_DDB = {
    "devices": [
        {"name": "core", "kind": "core"},
        {"name": "ttl0", "kind": "ttl_out"},
        {"name": "ttl1", "kind": "ttl_out"},
        {"name": "in0", "kind": "ttl_in"},
        {"name": "counter0", "kind": "edge_counter"},
        {"name": "dds0", "kind": "dds"},
        {"name": "adc0", "kind": "adc", "params": {"channels": 2}},
    ]
}


@pytest.fixture
def full_ddb() -> DeviceDb:
    return DeviceDb.from_dict(FULL_DDB)


@pytest.fixture
def make_run(full_ddb):
    """Factory for bare simulation instances (no experiment wrapper)."""

    def factory(mode=SyncMode.REGULAR, seed=0, ddb=None) -> SimulationRun:
        return SimulationRun(ddb if ddb is not None else full_ddb, SimConfig(mode=mode, seed=seed))

    return factory


@pytest.fixture
def draw_limit(monkeypatch):
    """Make a runaway Poisson loop fail after 10**5 draws instead of hanging."""
    draw = Xoshiro256StarStar.random
    count = itertools.count()

    def limited(self):
        if next(count) > 100_000:
            raise RuntimeError("more than 10**5 draws")
        return draw(self)

    monkeypatch.setattr(Xoshiro256StarStar, "random", limited)
