"""Serializes a completed run's event timeline to VCD and JSON-lines files.

Identifier codes and scopes follow signal registration order so exports are
byte-stable and can be pinned as golden files. Negative-time events are
clamped into the VCD initial-values block; the JSONL dump keeps them as-is.
"""

from __future__ import annotations

import json
from itertools import repeat

from .environment import SimulationRun
from .signals import UNKNOWN, Signal, SignalKind

_VCD_ID_BASE = 94
_VCD_ID_FIRST = 33  # '!'

_VAR_DECLS = {
    SignalKind.BOOL: ("wire", 1),
    SignalKind.INT: ("reg", 64),
    SignalKind.REAL: ("real", 64),
    SignalKind.TEXT: ("string", 1),
}


def _vcd_id(index: int) -> str:
    chars = []
    while True:
        chars.append(chr(_VCD_ID_FIRST + index % _VCD_ID_BASE))
        index //= _VCD_ID_BASE
        if index == 0:
            return "".join(chars)
        index -= 1


def _render_real(value: float) -> str:
    return f"{value:.17g}"


def _vcd_change(kind: SignalKind, value, code: str) -> str:
    if kind is SignalKind.BOOL:
        return f"{int(value)}{code}"
    if kind is SignalKind.INT:
        return f"b{value & 0xFFFF_FFFF_FFFF_FFFF:b} {code}"
    if kind is SignalKind.REAL:
        return f"r{_render_real(value)} {code}"
    text = "".join("_" if ch.isspace() else ch for ch in value)
    return f"s{text} {code}"


def _vcd_unknown(kind: SignalKind, code: str) -> str | None:
    if kind is SignalKind.BOOL:
        return f"x{code}"
    if kind is SignalKind.INT:
        return f"bx {code}"
    return None  # reals and strings have no unknown representation


def records_of(run: SimulationRun) -> list[tuple[int, int, Signal, object]]:
    """All surviving events as (time, rank, signal, value), sorted by (time, device, signal).

    ``rank`` orders the signals by (device, signal) name. No two events share
    (time, rank), so the sort never compares signals or values, and each
    signal's events are already an ascending run that timsort only merges.
    """
    ranked = sorted(run.signals, key=lambda s: (s.device_name, s.signal_name))
    records = []
    for rank, sig in enumerate(ranked):
        records.extend(zip(sig._times, repeat(rank), repeat(sig), sig._values))
    records.sort()
    return records


def export_vcd(run: SimulationRun, path) -> None:
    """Write the run's timeline as a value-change-dump waveform."""
    signals = list(run.signals)
    codes: dict[Signal, str] = {}
    lines = ["$timescale 1 ns $end"]

    by_device: dict[str, list[Signal]] = {}
    for sig in signals:
        by_device.setdefault(sig.device_name, []).append(sig)
    for device, sigs in by_device.items():
        lines.append(f"$scope module {device} $end")
        for sig in sigs:
            code = _vcd_id(len(codes))
            codes[sig] = code
            var_type, width = _VAR_DECLS[sig.kind]
            lines.append(f"$var {var_type} {width} {code} {sig.signal_name} $end")
        lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    if signals:
        # Initial-values block: last pre-time-0 event wins, else unknown.
        lines.append("$dumpvars")
        for sig in signals:
            code = codes[sig]
            initial = sig.pull(-1)
            if initial is not UNKNOWN:
                lines.append(_vcd_change(sig.kind, initial, code))
            else:
                unknown = _vcd_unknown(sig.kind, code)
                if unknown is not None:
                    lines.append(unknown)
        lines.append("$end")

        current_time = None
        for time_mu, _, sig, value in records_of(run):
            if time_mu < 0:
                continue
            if time_mu != current_time:
                current_time = time_mu
                lines.append(f"#{current_time}")
            lines.append(_vcd_change(sig.kind, value, codes[sig]))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_of(run: SimulationRun) -> dict:
    stats = run.stats
    return {
        "event_count": stats.event_count,
        "sync_count": stats.sync_count,
        "timeline_length_mu": stats.timeline_length_mu,
        "config": {
            "mode": run.config.mode.value,
            "sync_slack_mu": run.config.sync_slack_mu,
            "ref_period_s": run.config.ref_period_s,
            "seed": run.config.seed,
        },
    }


def export_jsonl(run: SimulationRun, path) -> None:
    """Write one JSON object per event plus a final summary object.

    Wall-clock time is deliberately not exported, so two runs with the same
    seed and configuration produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for time_mu, _, sig, value in records_of(run):
            fh.write(json.dumps({
                "time_mu": time_mu,
                "device": sig.device_name,
                "signal": sig.signal_name,
                "kind": sig.kind.value,
                "value": value,
            }))
            fh.write("\n")
        fh.write(json.dumps({"summary": _summary_of(run)}))
        fh.write("\n")


def read_jsonl(path) -> tuple[list[dict], dict | None]:
    """Parse a JSONL dump into (event records, summary or None)."""
    records = []
    summary = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "summary" in obj:
                summary = obj["summary"]
            else:
                records.append(obj)
    return records, summary
