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
from .testkit import CheckReport, assert_events, expect, set_input
from .timeline import (
    ContextKind,
    ContextStackError,
    MachineUnitsOverflow,
    SimConfig,
    SyncMode,
    TimeManager,
    seconds_to_mu,
)
from .trace import export_jsonl, export_vcd, read_jsonl

__version__ = "0.1.0"

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
