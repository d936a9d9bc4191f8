"""Serializes a completed run's event timeline to VCD and JSON-lines files.

VCD scopes follow the order of each device's first registered signal, and
identifier codes and the ``$dumpvars`` lines go device by device in
declaration order, so exports are byte-stable and can be pinned as golden
files. Negative-time events are clamped into the VCD initial-values block;
the JSONL dump keeps them as-is.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Callable
from itertools import repeat
from operator import attrgetter, itemgetter
from json.encoder import encode_basestring_ascii

from .environment import SimulationRun
from .signals import UNKNOWN, Signal, SignalKind
from .timeline import REF_PERIOD_S

_VCD_ID_BASE = 94
_VCD_ID_FIRST = 33  # '!'

@contextlib.contextmanager
def _overwrite(path):
    """Write text over path in place, then cut off what is left of a longer old file.

    Mode "w" truncates to zero first, and ext4 flushes a file rewritten that
    way on close, so each export waited on the disk.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        try:
            yield fh
        finally:  # also after an error, as mode "w" would leave no old tail either
            if fh.seekable() and fh.tell() < os.fstat(fd).st_size:
                fh.truncate()


def _vcd_id(index: int) -> str:
    chars = []
    while True:
        chars.append(chr(_VCD_ID_FIRST + index % _VCD_ID_BASE))
        index //= _VCD_ID_BASE
        if index == 0:
            return "".join(chars)
        index -= 1


_VCD_INT_MASK = 0xFFFF_FFFF_FFFF_FFFF  # two's complement of a signed 64-bit int


# Per kind, its export forms: the VCD ``$var`` type and width; a function from an identifier code to the
# value-change renderer (a bool indexes a pair; "%.17g" gives f"{value:.17g}", and a code may hold a "%");
# the VCD unknown line's text before the code (None for reals and strings, which have no unknown value);
# the JSONL line's text from "kind" up to the value; and the JSON text json.dumps gives a stored value
# (a REAL is always finite).
_FORMS = {kind: (decl, vcd, unknown, f'"kind": "{kind.value}", "value": ', json_render)
          for kind, decl, vcd, unknown, json_render in [
    (SignalKind.BOOL, "wire 1", lambda code: (f"0{code}", f"1{code}").__getitem__, "x", ("false", "true").__getitem__),
    (SignalKind.INT, "reg 64", lambda code: lambda value: f"b{value & _VCD_INT_MASK:b} {code}", "bx ", int.__repr__),
    (SignalKind.REAL, "real 64", lambda code: ("r%.17g " + code.replace("%", "%%")).__mod__, None, float.__repr__),
    (SignalKind.TEXT, "string 1",
     lambda code: lambda value: f"s{''.join('_' if ch.isspace() else ch for ch in value)} {code}",
     None, encode_basestring_ascii),
]}


_BY_NAME = attrgetter("device_name", "signal_name")  # the order of a record's rank


def records_of(run: SimulationRun, render: dict[Signal, Callable[[object], str]]) -> list[tuple[int, int, str]]:
    """All surviving events as (time, rank, text), sorted by (time, device, signal).

    ``rank`` indexes the signals sorted by ``_BY_NAME``; ``text`` is ``render[signal](value)``,
    one ``map`` a signal. Signals are extended in rank order and the sort is stable and keyed
    on the time alone, so events at one time keep that name order; each signal's events are
    already an ascending run that timsort only merges.
    """
    records = []
    for rank, sig in enumerate(sorted(run.signals, key=_BY_NAME)):
        records.extend(zip(sig._times, repeat(rank), map(render[sig], sig._values)))
    records.sort(key=itemgetter(0))
    return records


def export_vcd(run: SimulationRun, path) -> None:
    """Write the run's timeline as a value-change-dump waveform."""
    by_device: dict[str, list[Signal]] = {}
    for sig in run.signals:
        by_device.setdefault(sig.device_name, []).append(sig)

    render: dict[Signal, Callable[[object], str]] = {}
    lines = ["$timescale 1 ns $end"]
    initials = []  # the $dumpvars block: last pre-time-0 event wins, else unknown
    for device, sigs in by_device.items():
        lines.append(f"$scope module {device} $end")
        for sig in sigs:
            code = _vcd_id(len(render))
            decl, vcd, unknown, _, _ = _FORMS[sig.kind]
            render[sig] = vcd(code)
            lines.append(f"$var {decl} {code} {sig.signal_name} $end")
            initial = sig.pull(-1)
            if initial is not UNKNOWN:
                initials.append(render[sig](initial))
            elif unknown is not None:
                initials.append(unknown + code)
        lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    if render:
        lines += ["$dumpvars", *initials, "$end"]

    current_time = None
    for time_mu, _, text in records_of(run, render):
        if time_mu != current_time:
            if time_mu < 0:
                continue  # records are time-sorted: negatives come first
            current_time = time_mu
            lines.append(f"#{current_time}")
        lines.append(text)

    with _overwrite(path) as fh:
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
            "ref_period_s": REF_PERIOD_S,
            "seed": run.config.seed,
        },
    }


def export_jsonl(run: SimulationRun, path) -> None:
    """Write one JSON object per event plus a final summary object.

    Each line is the text ``json.dumps`` gives the record
    ``{"time_mu", "device", "signal", "kind", "value"}``; the part between
    the time and the value is built once per signal, and ``records_of``
    renders the values. Wall-clock time is deliberately not exported, so two
    runs with the same seed and configuration produce byte-identical files.
    """
    parts, render = [], {}
    for sig in sorted(run.signals, key=_BY_NAME):
        _, _, _, kind, render[sig] = _FORMS[sig.kind]
        parts.append(f', "device": {encode_basestring_ascii(sig.device_name)}'
                     f', "signal": {encode_basestring_ascii(sig.signal_name)}, {kind}')
    with _overwrite(path) as fh:
        for time_mu, rank, text in records_of(run, render):
            fh.write(f'{{"time_mu": {time_mu}{parts[rank]}{text}}}\n')
        fh.write(json.dumps({"summary": _summary_of(run)}) + "\n")


_DECODER = json.JSONDecoder()

# export_jsonl's own event line. A time has at most 19 digits, each value alternative is its own
# group, and a string has no escape and no control character (read_jsonl checks that of the names,
# once per distinct name part), so such a match reads exactly as json.loads would read the line.
_EXPORT_LINE = re.compile(
    r'\{"time_mu": (-?(?:0|[1-9][0-9]{0,18})), '
    r'("device": "[^"]*", "signal": "[^"]*", "kind": "[^"]*"), "value": '
    r'(?:(true)|(false)|(-?(?:0|[1-9][0-9]{0,18}))'
    r'|(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))'
    r'|"([^"\\\x00-\x1f]*)")\}\n?'
)


def read_jsonl(path) -> tuple[list[dict], dict | None]:
    """Parse a JSONL dump into (event records, summary or None).

    Blank lines are skipped; every other line must hold exactly one JSON
    object, else ``ValueError`` (``json.JSONDecodeError`` for bad JSON or
    anything after the value) is raised. JSON nested past the decoder's
    recursion limit is a ``ValueError`` too.

    A line in ``export_jsonl``'s own form is read directly: its keys are
    this module's constants, records with the same device, signal and kind
    share those three strings, and consecutive such lines with the same time
    text share one int. Every other line goes through the JSON decoder. Both
    give the same records, value types and key order.
    """
    records = []
    summary = None
    last_text = last_time = None  # the time text of the last line read directly, and its int
    names = {}  # each distinct device/signal/kind part of a line -> one shared tuple, or () if not plain
    match = _EXPORT_LINE.fullmatch
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = match(line)
            if m is not None:
                time_mu, part, true, false, integer, real, value = m.groups()
                shared = names.get(part)
                if shared is None:  # '"device": "D", "signal": "S", "kind": "K"' -> (D, S, K), or () if not plain
                    device, signal, kind = part[11:-1].split('", "')  # the names hold no '"'
                    plain = "\\" not in part and part.isprintable()  # no escape, no control character
                    shared = names[part] = (device, signal[10:], kind[8:]) if plain else ()
                if shared:
                    if value is None:
                        value = True if true else False if false else int(integer) if integer else float(real)
                    if time_mu != last_text:  # a dump is time-sorted, so lines at one time are adjacent
                        last_text, last_time = time_mu, int(time_mu)
                    records.append({"time_mu": last_time, "device": shared[0], "signal": shared[1],
                                    "kind": shared[2], "value": value})
                    continue
            line = line.strip(" \t\n\r")  # JSON's whitespace, as json.loads skips it
            if not line:
                continue
            try:
                obj, end = _DECODER.raw_decode(line)
            except RecursionError:
                raise ValueError(f"JSON nested too deeply in line {line[:40]!r}") from None
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if type(obj) is not dict:
                raise ValueError(f"expected a JSON object per line, got {line[:40]!r}")
            if "summary" in obj:
                summary = obj["summary"]
                if type(summary) is not dict:
                    raise ValueError(f"summary must be a JSON object, got {line[:40]!r}")
            else:
                records.append(obj)
    return records, summary
