"""The sha256 of the JSONL and the VCD export of every bundled run, in both sync modes.

Run from the root of a checkout; it needs the standard library and rtsim only:

    python3 tests/digests.py           # print the table, as tests/golden/digests.json holds it
    python3 tests/digests.py --check   # exit 1 if it differs from tests/golden/digests.json

A change that alters a digest on purpose rewrites the file with the first
command's output and names each changed entry, and why, in CHANGES.md.

The runs are ``demo`` and the four ``bench.PRESETS`` at seed 0, and ``draws``,
a body that draws from each random stream, at seeds 0 and 1. Each runs under
the regular and the optimistic configuration.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rtsim import DeviceDb, Experiment, SignalKind, SimConfig, SyncMode, run_experiment
from rtsim.bench import PRESETS
from rtsim.experiments import get_experiment, load_demo_ddb
from rtsim.testkit import set_input
from rtsim.trace import export_jsonl, export_vcd

GOLDEN = ROOT / "tests" / "golden" / "digests.json"
DRAWS_DDB = DeviceDb.from_dict({"devices": [
    {"name": "core", "kind": "core"},
    {"name": "in0", "kind": "ttl_in"},
    {"name": "counter0", "kind": "edge_counter", "params": {"counter_mode": "poisson"}},
    {"name": "adc0", "kind": "adc", "params": {"channels": 2}},
]})


def draws_body(run):
    """Sample ``in0`` at p = 0.5, gate a Poisson counter at means 3 and 30, and sample ``adc0``.

    Each count and each ADC value is pushed onto a signal of its own, so both exports hold every draw.
    """
    core, in0, counter, adc = (run.get_device(name) for name in ("core", "in0", "counter0", "adc0"))
    counts = run.signals.register("draws", "count", SignalKind.INT)
    volts = [run.signals.register("draws", f"v{i}", SignalKind.REAL) for i in range(2)]
    set_input(run, "in0", "prob", 0, 0.5)
    set_input(run, "counter0", "freq", 0, 1.0e6)  # a gate of d MU has mean d / 1000
    core.reset()
    for i in range(12):
        set_input(run, "adc0", "v0", run.now_mu(), 0.125 * i)
        set_input(run, "adc0", "v1", run.now_mu(), -1.5 * i)
        in0.sample_input()
        for gate_mu in (3_000, 30_000):  # below and above mean 10, where the Poisson sampler changes method
            t_close = counter.gate_rising_mu(gate_mu)
            counts.push(counter.fetch_count(), t_close)
        for sig, value in zip(volts, adc.sample()):
            sig.push(value, run.now_mu())
        core.reset()


# (name, experiment, device database, seeds)
RUNS = [*((name, get_experiment(name), load_demo_ddb(), (0,)) for name in ("demo", *PRESETS)),
        ("draws", Experiment("draws", draws_body), DRAWS_DDB, (0, 1))]


def digests() -> dict:
    """``{"<name> <mode> seed <seed>": {"jsonl": sha256, "vcd": sha256}}`` for every run of ``RUNS``."""
    table = {}
    with tempfile.TemporaryDirectory(prefix="rtsim-digests-") as tmp:
        path = Path(tmp) / "dump"
        for name, exp, ddb, seeds in RUNS:
            for seed in seeds:
                for mode in (SyncMode.REGULAR, SyncMode.OPTIMISTIC):
                    run = run_experiment(exp, ddb, SimConfig(mode=mode, seed=seed))
                    row = table[f"{name} {mode.value} seed {seed}"] = {}
                    for form, export in (("jsonl", export_jsonl), ("vcd", export_vcd)):
                        export(run, path)
                        row[form] = hashlib.sha256(path.read_bytes()).hexdigest()
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare the table with {GOLDEN.name}")
    args = parser.parse_args(argv)
    table = digests()
    if not args.check:
        print(json.dumps(table, indent=2))
        return 0
    pinned = json.loads(GOLDEN.read_text())
    differ = sorted(key for key in pinned.keys() | table.keys() if pinned.get(key) != table.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(pinned)} pinned runs differ" if differ else "identical")
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main())
