"""Device database loading and experiment execution.

An experiment body is an ordinary closure taking the simulation handle.
Kernels run in-process, so host and kernel state are shared naturally;
``SimulationRun.kernel`` records entry markers so traces can show kernel
boundaries.
"""

from __future__ import annotations

import contextlib
import json
import time as _time
from collections.abc import Callable

from .devices import DRIVER_CLASSES, DeviceDescriptor, DeviceError, SimDevice
from .signals import SignalManager
from .timeline import (MU_MAX, MU_MIN, ContextKind, Frame, MachineUnitsOverflow, Record, SimConfig,
                       TimeManager, short_repr)


class DeviceDbError(Exception):
    """Device database file is missing, malformed, or inconsistent."""


class UnknownDeviceError(KeyError):
    def __str__(self) -> str:
        return f"unknown device {short_repr(self.args[0])}"


class ExperimentRunError(RuntimeError):
    """Experiment body raised; the partial run is kept for post-mortem."""

    def __init__(self, message: str, run: "SimulationRun"):
        super().__init__(message)
        self.run = run


class DeviceDb(Record):
    """Validated list of simulated devices; exactly one core device."""

    __slots__ = ("devices",)

    def __init__(self, devices: tuple[DeviceDescriptor, ...]):
        object.__setattr__(self, "devices", devices)
        seen = set()
        cores = 0
        for desc in devices:
            if desc.name in seen:
                raise DeviceDbError(f"duplicate device name: {short_repr(desc.name)}")
            seen.add(desc.name)
            if desc.kind == "core":
                cores += 1
        if cores != 1:
            raise DeviceDbError(f"device database must contain exactly one core device, found {cores}")

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceDb":
        if not isinstance(data, dict) or "devices" not in data:
            raise DeviceDbError("device database must be an object with a 'devices' list")
        raw = data["devices"]
        if not isinstance(raw, list):
            raise DeviceDbError("'devices' must be a list")
        descs = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise DeviceDbError(f"devices[{i}]: entry must be an object")
            try:
                name = entry["name"]
                kind = entry["kind"]
            except KeyError as exc:
                raise DeviceDbError(f"devices[{i}]: missing required field {exc.args[0]!r}") from None
            extra = [key for key in entry if key not in ("name", "kind", "params")]
            if extra:
                raise DeviceDbError(f"devices[{i}]: device {short_repr(name)}: unknown field {short_repr(extra[0])}; "
                                    "allowed: name, kind, params")
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise DeviceDbError(f"devices[{i}] ({short_repr(name)}): params must be an object")
            try:
                descs.append(DeviceDescriptor(name, kind, params))
            except DeviceError as exc:
                raise DeviceDbError(f"devices[{i}]: {exc}") from None
        return cls(tuple(descs))

    def descriptor(self, name: str) -> DeviceDescriptor:
        for desc in self.devices:
            if desc.name == name:
                return desc
        raise UnknownDeviceError(name)

    @property
    def core_name(self) -> str:
        return next(d.name for d in self.devices if d.kind == "core")

    def __len__(self) -> int:
        return len(self.devices)


def load_ddb(path) -> DeviceDb:
    """Load and validate a device database JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DeviceDbError(f"cannot read device database {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise DeviceDbError(f"device database {path} is not valid JSON: {exc}") from exc
    except RecursionError:  # nested past the decoder's limit
        raise DeviceDbError(f"device database {path} is nested too deeply to decode") from None
    return DeviceDb.from_dict(data)


class Experiment(Record):
    """A named, deterministic program run against a fresh simulation."""

    __slots__ = ("name", "body")

    def __init__(self, name: str, body: Callable[["SimulationRun"], None]):
        self._set(locals())


class RunStats(Record):
    __slots__ = ("event_count", "sync_count", "start_cursor_after_first_sync", "final_cursor", "wall_clock_ns")

    def __init__(self, event_count: int, sync_count: int, start_cursor_after_first_sync: int | None,
                 final_cursor: int, wall_clock_ns: int):
        self._set(locals())

    @property
    def timeline_length_mu(self) -> int:
        """Final cursor minus the cursor right after the first sync (0 if none)."""
        start = self.start_cursor_after_first_sync
        return self.final_cursor - (start if start is not None else 0)


class SimulationRun:
    """One simulation instance: timeline, signals, drivers, and run stats.

    ``now_mu``, ``delay_mu``, ``delay`` and ``at_mu`` are the timeline's own bound methods.
    """

    def __init__(self, ddb: DeviceDb, config: SimConfig):
        self.ddb = ddb
        self.config = config
        # Share the signals' horizon cell and bind the timeline, not the run: a finished run needs no cyclic GC.
        self.signals = SignalManager()
        time = self.time = TimeManager(config, self.signals.event_top)
        self.now_mu, self.delay_mu, self.delay, self.at_mu = time.now_mu, time.delay_mu, time.delay, time.at_mu
        self._sequential = Frame(time, ContextKind.SEQUENTIAL)
        self._parallel = Frame(time, ContextKind.PARALLEL)
        self._drivers: dict[str, SimDevice] = {}
        self.stats: RunStats | None = None
        self.error: BaseException | None = None

    def get_device(self, name: str) -> SimDevice:
        """Memoized driver lookup; instantiation registers the device's signals."""
        if name not in self._drivers:
            desc = self.ddb.descriptor(name)
            self._drivers[name] = DRIVER_CLASSES[desc.kind](desc, self)
        return self._drivers[name]

    def sequential(self) -> Frame:
        return self._sequential

    def parallel(self) -> Frame:
        return self._parallel

    @contextlib.contextmanager
    def kernel(self, name: str):
        """Mark a kernel entry on the core device's kernel signal."""
        core = self.get_device(self.ddb.core_name)
        core.kernel_marker.push(name, self.time.now_mu())
        yield


def run_experiment(exp: Experiment, ddb: DeviceDb, config: SimConfig | None = None) -> SimulationRun:
    """Execute an experiment body inside a fresh simulation instance, and set the run's ``stats``.

    The stats are taken once, when the body returns or raises. A failing body, or a timeline length
    past signed 64 bits, raises ExperimentRunError carrying the partial run, whose ``error`` is the
    cause and whose stats and timeline remain readable for post-mortem assertions.
    """
    run = SimulationRun(ddb, config if config is not None else SimConfig())
    time = run.time
    t0 = _time.perf_counter_ns()
    try:
        exp.body(run)
    except Exception as exc:
        run.error = exc
        raise ExperimentRunError(f"experiment {short_repr(exp.name)} failed: {exc}", run) from exc
    finally:
        run.stats = RunStats(run.signals.event_count(), time.sync_count, time.first_sync_cursor, time.now_mu(),
                             _time.perf_counter_ns() - t0)
    if not MU_MIN <= run.stats.timeline_length_mu <= MU_MAX:
        run.error = MachineUnitsOverflow(f"timeline length {run.stats.timeline_length_mu} MU exceeds signed 64 bits")
        raise ExperimentRunError(f"experiment {short_repr(exp.name)} failed: {run.error}", run) from run.error
    return run
