"""rtsim: functional, API-level simulator for real-time control software.

Programs written against the timeline-cursor and device-driver API execute
in-process, producing a signal-level event timeline that can be asserted in
unit tests, exported as waveforms, and benchmarked under the regular and
optimistic synchronization configurations.
"""

from .devices import BufferEmpty, DeviceDescriptor, DeviceError, InputBuffer, InputUnset
from .environment import (
    DeviceDb,
    DeviceDbError,
    Experiment,
    ExperimentRunError,
    SimulationRun,
    UnknownDeviceError,
    load_ddb,
    run_experiment,
)
from .signals import (
    UNKNOWN,
    DuplicateSignalError,
    Signal,
    SignalError,
    SignalKind,
    SignalKindMismatch,
    SignalManager,
    UnknownSignalError,
)
from .timeline import (
    ContextKind,
    ContextStackError,
    MachineUnitsOverflow,
    SimConfig,
    SyncMode,
    TimeManager,
    seconds_to_mu,
)

__version__ = "0.1.0"

# Loaded on first use of one of their names, so a run that neither exports nor asserts never compiles them.
_LAZY = {
    "CheckReport": "testkit", "assert_events": "testkit", "expect": "testkit", "set_input": "testkit",
    "export_jsonl": "trace", "export_vcd": "trace", "read_jsonl": "trace",
}


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the name here, so a later lookup skips this call."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "BufferEmpty",
    "CheckReport",
    "ContextKind",
    "ContextStackError",
    "DeviceDb",
    "DeviceDbError",
    "DeviceDescriptor",
    "DeviceError",
    "DuplicateSignalError",
    "Experiment",
    "ExperimentRunError",
    "InputBuffer",
    "InputUnset",
    "MachineUnitsOverflow",
    "Signal",
    "SignalError",
    "SignalKind",
    "SignalKindMismatch",
    "SignalManager",
    "SimConfig",
    "SimulationRun",
    "SyncMode",
    "TimeManager",
    "UNKNOWN",
    "UnknownDeviceError",
    "UnknownSignalError",
    "assert_events",
    "expect",
    "export_jsonl",
    "export_vcd",
    "load_ddb",
    "read_jsonl",
    "run_experiment",
    "seconds_to_mu",
    "set_input",
]
