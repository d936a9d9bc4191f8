"""The record classes: equality, hash, repr, frozenness, defaults, construction and validation.

One table row per class pins what callers see, whatever builds the class. The
last tests check that a fresh ``import rtsim`` builds them without loading
``dataclasses``, and without the modules no run needs, and that the names it
loads on first use resolve as eager imports would.
"""

import copy
import importlib
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rtsim
from rtsim import CheckReport, DeviceDb, DeviceDescriptor, DeviceDbError, DeviceError, Experiment, SimConfig, SyncMode
from rtsim.bench import BenchReport, BenchScenario
from rtsim.environment import RunStats

CORE = DeviceDescriptor("core", "core")
TTL = DeviceDescriptor("ttl0", "ttl_out")
SCAN = BenchScenario("s", 2, 3)

# class -> (an instance's fields as positional args, another instance's, frozen?, the first one's repr)
RECORDS = {
    SimConfig: (
        (SyncMode.OPTIMISTIC, 7), (SyncMode.OPTIMISTIC, 8), True,
        "SimConfig(mode=<SyncMode.OPTIMISTIC: 'optimistic'>, seed=7)",
    ),
    DeviceDescriptor: (
        ("ttl0", "ttl_out", {}), ("ttl1", "ttl_out", {}), True,
        "DeviceDescriptor(name='ttl0', kind='ttl_out', params={})",
    ),
    DeviceDb: (
        ((CORE, TTL),), ((CORE,),), True,
        "DeviceDb(devices=(DeviceDescriptor(name='core', kind='core', params={}), "
        "DeviceDescriptor(name='ttl0', kind='ttl_out', params={})))",
    ),
    Experiment: (
        ("x", len), ("x", abs), False,
        "Experiment(name='x', body=<built-in function len>)",
    ),
    RunStats: (
        (17, 2, None, 300, 4000), (17, 2, 0, 300, 4000), False,
        "RunStats(event_count=17, sync_count=2, start_cursor_after_first_sync=None, "
        "final_cursor=300, wall_clock_ns=4000)",
    ),
    CheckReport: (
        (False, "ttl0", "state", 5, True, False, 0, None, "why"),
        (False, "ttl0", "state", 6, True, False, 0, None, "why"), True,
        "CheckReport(passed=False, device='ttl0', signal='state', time=5, expected=True, "
        "actual=False, nearest_before=0, nearest_after=None, detail='why')",
    ),
    BenchScenario: (
        ("s", 2, 3, 10, 1, 0, 5, True), ("s", 2, 3, 10, 1, 0, 5, False), True,
        "BenchScenario(name='s', points=2, samples_per_point=3, delay_per_sample_mu=10, "
        "pulses_per_sample=1, dds_sets_per_sample=0, pulse_mu=5, buffered=True)",
    ),
    BenchReport: (
        (SCAN, {}), (SCAN, {SyncMode.REGULAR: None}), False,
        "BenchReport(scenario=BenchScenario(name='s', points=2, samples_per_point=3, "
        "delay_per_sample_mu=0, pulses_per_sample=3, dds_sets_per_sample=1, pulse_mu=1000, "
        "buffered=False), results={})",
    ),
}
FIELDS = {
    SimConfig: ("mode", "seed"),
    DeviceDescriptor: ("name", "kind", "params"),
    DeviceDb: ("devices",),
    Experiment: ("name", "body"),
    RunStats: ("event_count", "sync_count", "start_cursor_after_first_sync", "final_cursor", "wall_clock_ns"),
    CheckReport: ("passed", "device", "signal", "time", "expected", "actual", "nearest_before",
                  "nearest_after", "detail"),
    BenchScenario: ("name", "points", "samples_per_point", "delay_per_sample_mu", "pulses_per_sample",
                    "dds_sets_per_sample", "pulse_mu", "buffered"),
    BenchReport: ("scenario", "results"),
}
CLASSES = list(RECORDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls):
        args = RECORDS[cls][0]
        by_keyword = cls(**dict(zip(FIELDS[cls], args)))
        assert cls(*args) == by_keyword
        assert [getattr(by_keyword, name) for name in FIELDS[cls]] == list(args)

    def test_equality(self, cls):
        args, other, _, _ = RECORDS[cls]
        a = cls(*args)
        assert a == cls(*args)
        assert not a != cls(*args)
        assert a != cls(*other)
        assert not a == cls(*other)
        assert a != args and not a == args  # another type, even with the same fields
        assert a != object()

    def test_hash(self, cls):
        args, _, frozen, _ = RECORDS[cls]
        if not frozen:
            with pytest.raises(TypeError):
                hash(cls(*args))
        elif cls in (DeviceDescriptor, DeviceDb):  # frozen, but params is a dict
            with pytest.raises(TypeError):
                hash(cls(*args))
        else:
            assert hash(cls(*args)) == hash(cls(*args))
            assert len({cls(*args), cls(*args)}) == 1

    def test_repr(self, cls):
        args, _, _, text = RECORDS[cls]
        assert repr(cls(*args)) == text

    def test_assignment(self, cls):
        args, other, frozen, _ = RECORDS[cls]
        a = cls(*args)
        name = FIELDS[cls][0]
        if frozen:
            with pytest.raises(AttributeError):
                setattr(a, name, other[0])
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) == args[0]
        else:
            setattr(a, name, other[0])
            assert getattr(a, name) == other[0]

    def test_copy_and_pickle_round_trip(self, cls):
        a = cls(*RECORDS[cls][0])
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(twin) is cls and twin == a and repr(twin) == repr(a)

    def test_bad_argument_lists(self, cls):
        args = RECORDS[cls][0]
        with pytest.raises(TypeError):
            cls(*args, "extra")
        with pytest.raises(TypeError):
            cls(*args, nonsense=1)
        with pytest.raises(TypeError):
            cls(*args, **{FIELDS[cls][0]: args[0]})  # given twice
        if cls is not SimConfig:  # every SimConfig field has a default
            with pytest.raises(TypeError):
                cls()


def test_defaults():
    assert SimConfig() == SimConfig(SyncMode.REGULAR, 0)
    assert SimConfig(seed=3).mode is SyncMode.REGULAR
    assert CheckReport(True, "d", "s", 0, 1, 1, None, None).detail == ""
    a, b = DeviceDescriptor("ttl0", "ttl_out"), DeviceDescriptor("ttl1", "ttl_out")
    assert a.params == {} and a.params is not b.params
    assert DeviceDescriptor("adc0", "adc").params == {"channels": 1, "sample_delay_mu": 0}
    assert BenchScenario("s", 2, 3) == BenchScenario("s", 2, 3, 0, 3, 1, 1000, False)
    r1, r2 = BenchReport(SCAN), BenchReport(SCAN)
    assert r1.results == {} and r1.results is not r2.results


def test_params_are_copied_with_defaults_filled_in():
    given = {"channels": 2}
    desc = DeviceDescriptor("adc0", "adc", given)
    assert desc.params == {"channels": 2, "sample_delay_mu": 0}
    assert given == {"channels": 2}


# (class, args, kwargs, error type, exact message)
VALIDATION = [
    (SimConfig, ("regular",), {}, TypeError, "mode must be a SyncMode, got 'regular'"),
    (SimConfig, (), {"seed": True}, TypeError, "seed must be int, got True"),
    (SimConfig, (), {"seed": 1.0}, TypeError, "seed must be int, got 1.0"),
    (SimConfig, (), {"seed": -1}, ValueError, "seed must be an unsigned 64-bit integer: -1"),
    (SimConfig, (), {"seed": 2**64}, ValueError, "seed must be an unsigned 64-bit integer: 18446744073709551616"),
    (DeviceDescriptor, ("a b", "core"), {}, DeviceError,
     "device name must be a non-empty string without whitespace, got 'a b'"),
    (DeviceDescriptor, ("x", "laser"), {}, DeviceError,
     "device 'x': unknown kind 'laser'; allowed kinds: core, ttl_out, ttl_in, edge_counter, dds, adc"),
    (DeviceDescriptor, ("x", "ttl_out", {"channels": 2}), {}, DeviceError,
     "device 'x': unknown param 'channels' for kind 'ttl_out'; allowed: none"),
    (DeviceDescriptor, ("x", "adc", {"channels": 0}), {}, DeviceError,
     "device 'x': channels must be a positive integer"),
    (DeviceDb, ((CORE, CORE),), {}, DeviceDbError, "duplicate device name: 'core'"),
    (DeviceDb, ((TTL,),), {}, DeviceDbError, "device database must contain exactly one core device, found 0"),
    (BenchScenario, ("s", 0, 1), {}, ValueError, "points and samples_per_point must be >= 1"),
    (BenchScenario, ("s", 1, 0), {}, ValueError, "points and samples_per_point must be >= 1"),
    (BenchScenario, ("s", 1, 1), {"pulse_mu": 0}, ValueError, "pulse_mu must be positive"),
    (BenchScenario, ("s", 1, 1), {"delay_per_sample_mu": -1}, ValueError, "delay_per_sample_mu must be >= 0"),
    (BenchScenario, ("s", 1, 1), {"pulses_per_sample": -1}, ValueError,
     "pulses_per_sample and dds_sets_per_sample must be >= 0"),
    (BenchScenario, ("s", 1, 1), {"dds_sets_per_sample": 10**7}, ValueError,
     "scenario of 10000004 driver calls and delays exceeds the bound of 10000000"),
    (BenchScenario, ("s", 1, 1), {"delay_per_sample_mu": 2**63}, ValueError,
     "scenario timeline of 9223372036855028808 MU exceeds signed 64-bit machine units"),
    (DeviceDescriptor, ("x", "adc", ["channels"]), {}, DeviceError, "device 'x': params must be a dict or None, got list"),
]


@pytest.mark.parametrize("cls, args, kwargs, error, message", VALIDATION,
                         ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(VALIDATION)])
def test_validation_errors(cls, args, kwargs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(*args, **kwargs)


def _loaded_by_import(module, names, then="pass"):
    """Which of ``names`` a fresh interpreter has in ``sys.modules`` after ``import module``, then ``then``."""
    # A fresh interpreter, as every test or CLI process that imports rtsim starts with.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys, {module}; {then}; print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
    # -S: no site-packages .pth file (one preloads importlib.resources) decides what the guard sees.
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_rtsim_loads_only_what_a_run_needs():
    # The exporters and the test helpers load on first use of a name: rtsim.export_vcd, rtsim.expect, ...
    names = ["dataclasses", "inspect", "rtsim.bench", "rtsim.cli", "rtsim.trace", "rtsim.testkit"]
    assert _loaded_by_import("rtsim", names) == "[]\n"


def test_import_rtsim_cli_loads_nothing_only_a_run_needs():
    # `rtsim diff` needs neither the bundled experiments nor what they import.
    names = ["rtsim.experiments", "rtsim.testkit", "importlib.resources"]
    assert _loaded_by_import("rtsim.cli", names) == "[]\n"


def test_a_body_that_only_asserts_loads_no_exporter():
    then = ("reports = []; body = lambda run: (run.get_device('in0'), "
            "rtsim.set_input(run, 'in0', 'prob', 0, 1.0), reports.append(rtsim.expect(run, 'in0', 'prob', 0, 1.0))); "
            "ddb = rtsim.DeviceDb.from_dict({'devices': [{'name': 'core', 'kind': 'core'}, "
            "{'name': 'in0', 'kind': 'ttl_in'}]}); "
            "rtsim.run_experiment(rtsim.Experiment('t', body), ddb, rtsim.SimConfig()); assert reports[0]")
    assert _loaded_by_import("rtsim", ["rtsim.testkit", "rtsim.trace"], then) == "['rtsim.testkit']\n"


@pytest.mark.parametrize("submodule, name", [
    *(("testkit", name) for name in ("CheckReport", "assert_events", "expect", "set_input")),
    *(("trace", name) for name in ("export_jsonl", "export_vcd", "read_jsonl")),
])
def test_a_lazy_name_is_its_submodules_object(submodule, name):
    module = importlib.import_module(f"rtsim.{submodule}")
    assert getattr(rtsim, name) is getattr(module, name)
    assert vars(rtsim)[name] is getattr(module, name)  # kept: a later lookup does not call __getattr__


def test_star_import_binds_every_public_name():
    # In a fresh interpreter, so the lazy names are bound by the star import itself.
    then = "ns = {}; exec('from rtsim import *', ns); assert all(ns[n] is getattr(rtsim, n) for n in rtsim.__all__)"
    assert _loaded_by_import("rtsim", ["rtsim.testkit", "rtsim.trace"], then) == "['rtsim.testkit', 'rtsim.trace']\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'rtsim' has no attribute 'nope'$"):
        rtsim.nope
    assert getattr(rtsim, "store_backend", None) is None


def test_import_rtsim_cli_loads_no_bench_and_no_csv():
    # `rtsim run` and `rtsim diff` need neither; `rtsim bench scan` imports both when it runs.
    assert _loaded_by_import("rtsim.cli", ["dataclasses", "inspect", "rtsim.bench", "csv"]) == "[]\n"


def test_demo_experiment_loads_no_bench():
    # The presets join the registry only on the first ask for a name it lacks.
    then = "assert rtsim.experiments.get_experiment('demo').name == 'demo'"
    assert _loaded_by_import("rtsim.experiments", ["rtsim.bench"], then) == "[]\n"
