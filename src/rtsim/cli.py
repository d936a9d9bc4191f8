"""Command-line front end: run experiments, benchmark, diff trace dumps.

Exit codes: 0 success (diff: files identical), 1 experiment failure or
diff divergence, 2 bad inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import zip_longest
from typing import Optional

from .environment import DeviceDbError, ExperimentRunError, load_ddb, run_experiment
from .timeline import SimConfig, SyncMode, short_repr
from .trace import export_jsonl, export_vcd, read_jsonl


@functools.cache  # built once, on first use: each parser is a web of cycles only the GC frees
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtsim",
        description="Functional simulator for real-time control software.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a bundled experiment in simulation")
    p_run.add_argument("experiment", help="bundled experiment name (e.g. demo)")
    p_run.add_argument("--ddb", default=None, help="device database JSON (default: bundled demo DDB)")
    p_run.add_argument("--config", choices=["regular", "optimistic"], default="regular")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--vcd", default=None, help="write waveform dump to this path")
    p_run.add_argument("--jsonl", default=None, help="write JSONL event dump to this path")

    p_bench = sub.add_parser("bench", help="benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_scan = bench_sub.add_parser("scan", help="run a scan scenario under both configurations")
    p_scan.add_argument("--points", type=int, default=20)
    p_scan.add_argument("--samples", type=int, default=100)
    p_scan.add_argument("--buffered", action="store_true", help="sync once per 16 samples")
    p_scan.add_argument("--delay-mu", type=int, default=10_000, help="fixed delay per sample")
    p_scan.add_argument("--pulses", type=int, default=3, help="TTL pulses per sample")
    p_scan.add_argument("--dds-sets", type=int, default=1, help="DDS writes per sample")
    p_scan.add_argument("--pulse-mu", type=int, default=1000)
    p_scan.add_argument("--csv", default=None, help="write result rows to this CSV file")
    p_scan.add_argument("--ref-csv", default=None,
                        help="CSV with columns scenario,t_ref_mu (hardware reference "
                             "timeline lengths); adds a relative_error column")

    p_diff = sub.add_parser("diff", help="compare two JSONL event dumps")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--max-diffs", type=int, default=10,
                        help="divergent records to print; the verdict always compares all")

    return parser


def _bad_input(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_summary(run) -> None:
    stats = run.stats
    start = stats.start_cursor_after_first_sync
    print(f"config:          {run.config.mode.value} (slack {run.config.sync_slack_mu} MU, seed {run.config.seed})")
    print(f"start cursor (after first sync): {start if start is not None else 'never synced'}")
    print(f"final cursor:    {stats.final_cursor}")
    print(f"timeline length: {stats.timeline_length_mu} MU")
    print(f"events:          {stats.event_count}")
    print(f"syncs:           {stats.sync_count}")
    print(f"wall clock:      {stats.wall_clock_ns} ns")


def _cmd_run(args) -> int:
    from . import experiments  # here, not at the top: a diff needs neither the bundled experiments nor testkit
    try:
        exp = experiments.get_experiment(args.experiment)
    except KeyError as exc:
        return _bad_input(exc.args[0])
    try:
        ddb = load_ddb(args.ddb) if args.ddb else experiments.load_demo_ddb()
        config = SimConfig(mode=SyncMode(args.config), seed=args.seed)
    except (DeviceDbError, ValueError) as exc:  # a bad DDB, or a --seed outside unsigned 64 bits
        return _bad_input(exc)
    print(f"experiment:      {exp.name}")
    try:
        run = run_experiment(exp, ddb, config)
    except ExperimentRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _print_summary(exc.run)
        return 1
    _print_summary(run)
    try:
        if args.vcd:
            export_vcd(run, args.vcd)
            print(f"wrote VCD:       {args.vcd}")
        if args.jsonl:
            export_jsonl(run, args.jsonl)
            print(f"wrote JSONL:     {args.jsonl}")
    except OSError as exc:  # e.g. an output path in a missing directory
        return _bad_input(exc)
    return 0


def _read_reference_mu(path: str, scenario_name: str) -> int:
    import csv
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("scenario") == scenario_name:
                raw = (row.get("t_ref_mu") or "").strip()
                if not raw.isdecimal() or int(raw) < 1:
                    raise ValueError(f"{path}: t_ref_mu of {short_repr(scenario_name)} must be a positive int")
                return int(raw)
    raise KeyError(f"no t_ref_mu row for scenario {short_repr(scenario_name)} in {path}")


def _cmd_bench_scan(args) -> int:
    import csv  # here, not at the top: a run or a diff needs neither csv nor bench
    from . import bench
    try:
        scenario = bench.BenchScenario(
            name="scan",
            points=args.points,
            samples_per_point=args.samples,
            delay_per_sample_mu=args.delay_mu,
            pulses_per_sample=args.pulses,
            dds_sets_per_sample=args.dds_sets,
            pulse_mu=args.pulse_mu,
            buffered=args.buffered,
        )
        t_ref_mu = _read_reference_mu(args.ref_csv, scenario.name) if args.ref_csv else None
    except (OSError, KeyError, ValueError, csv.Error) as exc:  # csv.Error: e.g. a field past the size limit
        return _bad_input(exc)
    report = bench.run_scenario_both(scenario)
    rows = bench.report_rows(report, t_ref_mu=t_ref_mu)
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))
    delta = report.sync_law_delta()
    print(f"regular - optimistic length: {delta} MU "
          f"({report.sync_count} syncs, slack applies to {report.sync_count - 1} in-window)")
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        except OSError as exc:
            return _bad_input(exc)
        print(f"wrote CSV: {args.csv}")
    return 0


def _summary_deltas(sa: Optional[dict], sb: Optional[dict]) -> list[str]:
    if sa == sb:
        return []
    if sa is None or sb is None:
        return [f"summary present only in {'B' if sa is None else 'A'}"]
    deltas = []
    for key in sorted(set(sa) | set(sb)):
        if sa.get(key) != sb.get(key):
            deltas.append(f"summary.{key}: {sa.get(key)!r} != {sb.get(key)!r}")
    return deltas


def _cmd_diff(args) -> int:
    if args.max_diffs < 0:
        return _bad_input(f"--max-diffs must be >= 0, got {args.max_diffs}")
    try:
        recs_a, sum_a = read_jsonl(args.a)
        recs_b, sum_b = read_jsonl(args.b)
    except (OSError, ValueError) as exc:
        return _bad_input(exc)

    # The verdict comes from every record; --max-diffs limits only the printout,
    # so the divergences past it are counted, not kept.
    divergent = 0
    for i, (a, b) in enumerate(zip_longest(recs_a, recs_b)):
        if a != b:
            if divergent < args.max_diffs:
                print(f"record {i}:")
                print(f"  A: {a}")
                print(f"  B: {b}")
            divergent += 1
    if divergent > args.max_diffs:
        print(f"{divergent - args.max_diffs} more divergent records not shown")
    if len(recs_a) != len(recs_b):
        print(f"record counts: A={len(recs_a)} B={len(recs_b)}")
    deltas = _summary_deltas(sum_a, sum_b)
    for line in deltas:
        print(line)

    identical = not divergent and len(recs_a) == len(recs_b) and not deltas
    if identical:
        print("identical")
        return 0
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bench":
        return _cmd_bench_scan(args)
    return _cmd_diff(args)
