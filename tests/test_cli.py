import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rtsim.cli import main


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv):
    return main(list(argv))


def child_env():
    """The current environment with the repo's src on PYTHONPATH."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestRun:
    def test_demo_regular_summary(self, capsys):
        assert run_cli("run", "demo", "--config", "regular") == 0
        out = capsys.readouterr().out
        assert "start cursor (after first sync): 125000" in out
        assert "syncs:           1" in out

    def test_demo_optimistic_starts_at_zero(self, capsys):
        assert run_cli("run", "demo", "--config", "optimistic") == 0
        out = capsys.readouterr().out
        assert "start cursor (after first sync): 0" in out

    def test_unknown_experiment(self, capsys):
        assert run_cli("run", "nope") == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_bad_ddb_path(self, capsys):
        assert run_cli("run", "demo", "--ddb", "/does/not/exist.json") == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("device, param, value", [
        ("in0", "sample_delay_mu", -5),
        ("counter0", "counter_mode", "bogus"),
        ("adc0", "channels", 0),
        ("dds0", "set_delay_mu", True),
        ("adc9", "channels", 0),  # an extra device the demo body never asks for
        ("ttl0", "kind", ["ttl_out"]),  # an entry field, not a param
        ("adc0", "prams", {"channels": 2}),  # a misspelt entry field
    ])
    def test_bad_ddb_param_exits_2(self, tmp_path, capsys, device, param, value):
        from rtsim.experiments import DEMO_DDB

        data = json.loads(json.dumps(DEMO_DDB))  # a deep copy: DEMO_DDB is shared
        if device == "adc9":
            data["devices"].append({"name": device, "kind": "adc"})
        entry = next(d for d in data["devices"] if d["name"] == device)
        if param in ("kind", "prams"):
            entry[param] = value
        else:
            entry.setdefault("params", {})[param] = value
        ddb = tmp_path / "bad.json"
        ddb.write_text(json.dumps(data))
        assert run_cli("run", "demo", "--ddb", str(ddb)) == 2
        captured = capsys.readouterr()
        expected = {"kind": "unknown kind", "prams": "unknown field 'prams'"}.get(param, f"{param} must be")
        assert f"device {device!r}: {expected}" in captured.err
        assert captured.out == ""  # refused before the experiment starts

    def test_exports_written(self, tmp_path, capsys):
        vcd = tmp_path / "demo.vcd"
        jsonl = tmp_path / "demo.jsonl"
        assert run_cli("run", "demo", "--vcd", str(vcd), "--jsonl", str(jsonl)) == 0
        assert vcd.read_text().startswith("$timescale 1 ns $end")
        assert jsonl.read_text().strip().endswith("}")

    def test_failing_experiment_exits_nonzero(self, tmp_path, capsys):
        # scan presets need ttl0..2 and dds0; a DDB without them makes the body fail.
        ddb = tmp_path / "thin.json"
        ddb.write_text(json.dumps({"devices": [{"name": "core", "kind": "core"}]}))
        assert run_cli("run", "scan_demo", "--ddb", str(ddb)) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_missing_device_is_named(self, tmp_path, capsys):
        ddb = tmp_path / "core_only.json"
        ddb.write_text(json.dumps({"devices": [{"name": "core", "kind": "core"}]}))
        assert run_cli("run", "demo", "--ddb", str(ddb)) == 1
        assert "error: experiment 'demo' failed: unknown device 'ttl0'\n" in capsys.readouterr().err


BENCH_1 = ["bench", "scan", "--points", "1", "--samples", "1"]
DEEP_JSON = "deep.json"  # 100 000 "[" then as many "]": nested past the JSON decoder's recursion limit


# Cases keep their places in the list, so each keeps its test id.
@pytest.mark.parametrize("argv, ref_row", [
    (["run", "demo", "--seed", "-1"], None),
    (["run", "demo", "--vcd", "missing/demo.vcd"], None),
    (["bench", "scan", "--points", "0"], None),
    (["bench", "scan", "--samples", "0"], None),
    (["bench", "scan", "--pulse-mu", "0"], None),
    (["bench", "scan", "--delay-mu", "-1"], None),
    (BENCH_1, "scan,0"),
    (BENCH_1, "scan"),  # no t_ref_mu cell at all
    (BENCH_1 + ["--pulses", "-1"], None),
    (BENCH_1 + ["--dds-sets", "-1"], None),
    (["run", "demo", "--jsonl", "missing/demo.jsonl"], None),
    (BENCH_1 + ["--csv", "missing/scan.csv"], None),
    (BENCH_1, "scan,-5"),
    (BENCH_1 + ["--delay-mu", "99999999999999999999"], None),
    (BENCH_1 + ["--pulse-mu", "99999999999999999999"], None),
    (BENCH_1 + ["--samples", "3", "--delay-mu", "4611686018427387904"], None),  # overflows at sample 2
    pytest.param(BENCH_1, "scan," + "9" * 200_000, id="ref_csv_field_past_csv_limit"),
    pytest.param(BENCH_1 + ["--dds-sets", "99999999999999999999"], None, id="dds_sets_past_call_bound"),
    pytest.param(["diff", DEEP_JSON, DEEP_JSON], None, id="diff_deeply_nested_json"),
    pytest.param(["run", "demo", "--ddb", DEEP_JSON], None, id="ddb_deeply_nested_json"),
])
def test_bad_inputs_exit_2(argv, ref_row, tmp_path, monkeypatch, capsys):
    """``ref_row``, if given, is the ``scan`` row of a ``--ref-csv`` table passed to the command."""
    monkeypatch.chdir(tmp_path)  # so "missing/" names a directory that does not exist
    if DEEP_JSON in argv:
        Path(DEEP_JSON).write_text("[" * 100_000 + "]" * 100_000 + "\n")
    if ref_row is not None:
        Path("ref.csv").write_text(f"scenario,t_ref_mu\n{ref_row}\n")
        argv = [*argv, "--ref-csv", "ref.csv"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestBench:
    def test_scan_has_no_seed_option(self, capsys):
        # A scan samples no input, so no seed could change its rows.
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "scan", "--seed", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_scan_emits_both_configs_and_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        assert run_cli(
            "bench", "scan", "--points", "2", "--samples", "5",
            "--csv", str(out_csv),
        ) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config"] for r in rows] == ["regular", "optimistic"]
        assert all(r["sync_count"] == "11" for r in rows)
        delta = int(rows[0]["timeline_length_mu"]) - int(rows[1]["timeline_length_mu"])
        assert delta == 125_000 * 10

    def test_scan_with_reference_lengths(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("scenario,t_ref_mu\nscan,1000000\n")
        assert run_cli(
            "bench", "scan", "--points", "1", "--samples", "2",
            "--ref-csv", str(ref),
        ) == 0
        assert "relative_error=" in capsys.readouterr().out

    def test_scan_reference_without_matching_row(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("scenario,t_ref_mu\nother,5\n")
        assert run_cli(
            "bench", "scan", "--points", "1", "--samples", "2",
            "--ref-csv", str(ref),
        ) == 2
        assert capsys.readouterr().err == f"error: no t_ref_mu row for scenario 'scan' in {ref}\n"


class TestDiff:
    def make_dump(self, tmp_path, name, tweak=False):
        from rtsim import Experiment, SimConfig, run_experiment
        from rtsim.experiments import load_demo_ddb
        from rtsim.trace import export_jsonl

        def body(run):
            run.get_device("ttl0").pulse(100 if not tweak else 150)

        run = run_experiment(Experiment("d", body), load_demo_ddb(), SimConfig())
        path = tmp_path / name
        export_jsonl(run, path)
        return path

    def test_identical_files(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        b = self.make_dump(tmp_path, "b.jsonl")
        assert run_cli("diff", str(a), str(b)) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_files(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        b = self.make_dump(tmp_path, "b.jsonl", tweak=True)
        assert run_cli("diff", str(a), str(b)) == 1
        out = capsys.readouterr().out
        assert "record" in out

    def test_signed_zero_differs(self, tmp_path, capsys):
        # 0.0 == -0.0, but the dumps differ byte for byte.
        from rtsim import Experiment, SimConfig, run_experiment
        from rtsim.experiments import load_demo_ddb
        from rtsim.trace import export_jsonl

        paths = []
        for name, phase in (("a.jsonl", 0.0), ("b.jsonl", -0.0)):
            run = run_experiment(Experiment("d", lambda run: run.get_device("dds0").set(1e6, phase, 1.0)),
                                 load_demo_ddb(), SimConfig())
            export_jsonl(run, tmp_path / name)
            paths.append(str(tmp_path / name))
        assert run_cli("diff", *paths) == 1
        assert capsys.readouterr().out.splitlines() == [
            "record 2:",
            "  A: {'time_mu': 0, 'device': 'dds0', 'signal': 'phase', 'kind': 'real', 'value': 0.0}",
            "  B: {'time_mu': 0, 'device': 'dds0', 'signal': 'phase', 'kind': 'real', 'value': -0.0}",
        ]
        assert run_cli("diff", paths[1], paths[1]) == 0  # -0.0 against itself
        assert capsys.readouterr().out == "identical\n"

    def test_bool_differs_from_int(self, tmp_path, capsys):
        # True == 1, but the dumps differ byte for byte.
        a = self.make_dump(tmp_path, "a.jsonl")
        b = tmp_path / "b.jsonl"
        lines = a.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.endswith('"value": true}'))
        lines[i] = lines[i].replace('"value": true}', '"value": 1}')
        b.write_text("\n".join(lines) + "\n")
        assert run_cli("diff", str(a), str(b)) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"record {i}:" and out[1].endswith("'value': True}") and out[2].endswith("'value': 1}")
        assert len(out) == 3

    def edited_golden(self, tmp_path, old, new):
        """The demo golden dump and a copy with its one ``old`` text replaced by ``new``."""
        golden = Path(__file__).parent / "golden" / "demo.jsonl"
        text = golden.read_text()
        assert text.count(old) == 1
        edited = tmp_path / "edited.jsonl"
        edited.write_text(text.replace(old, new))
        return str(golden), str(edited)

    # Each pair is ==, but the dumps differ byte for byte.
    @pytest.mark.parametrize("new", ["0.0", "-0.0", "false"])
    def test_record_time_of_another_type_differs(self, tmp_path, capsys, new):
        old = '{"time_mu": 0, "device": "adc0", "signal": "v0"'
        golden, edited = self.edited_golden(tmp_path, old, old.replace("0", new, 1))
        assert run_cli("diff", golden, edited) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "record 1:" and out[1].startswith("  A: {'time_mu': 0,")
        assert out[2].startswith(f"  B: {{'time_mu': {json.loads(new)!r},")
        assert len(out) == 3

    @pytest.mark.parametrize("old, new, key", [
        ('"event_count": 17', '"event_count": 17.0', "event_count"),
        ('"seed": 0', '"seed": false', "config"),
        ('"sync_slack_mu": 125000', '"sync_slack_mu": 125000.0', "config"),
    ], ids=["event_count_float", "seed_false", "slack_float"])
    def test_summary_value_of_another_type_differs(self, tmp_path, capsys, old, new, key):
        golden, edited = self.edited_golden(tmp_path, old, new)
        assert run_cli("diff", golden, edited) == 1
        sa, sb = (json.loads(Path(path).read_text().splitlines()[-1])["summary"][key] for path in (golden, edited))
        assert capsys.readouterr().out.splitlines() == [f"summary.{key}: {sa!r} != {sb!r}"]

    def test_key_order_is_ignored(self, tmp_path, capsys):
        old = '{"time_mu": 0, "device": "adc0", "signal": "v0", "kind": "real", "value": 1.25}'
        golden, edited = self.edited_golden(
            tmp_path, old, '{"value": 1.25, "kind": "real", "signal": "v0", "device": "adc0", "time_mu": 0}')
        Path(edited).write_text(Path(edited).read_text().replace(
            '{"mode": "regular", "sync_slack_mu": 125000, "ref_period_s": 1e-09, "seed": 0}',
            '{"seed": 0, "ref_period_s": 1e-09, "sync_slack_mu": 125000, "mode": "regular"}'))
        assert run_cli("diff", golden, edited) == 0
        assert capsys.readouterr().out == "identical\n"

    def test_summary_key_absent_is_not_null(self, tmp_path, capsys):
        golden, edited = self.edited_golden(tmp_path, '"event_count": 17, ', '"event_count": 17, "note": null, ')
        assert run_cli("diff", golden, edited) == 1
        assert capsys.readouterr().out.splitlines() == ["summary.note present only in B"]

    def test_value_nested_as_deep_as_read_jsonl_reads(self, tmp_path, capsys):
        depth = 850  # read_jsonl reads it; as many nested Python calls would pass the recursion limit
        paths = []
        for name, leaf in (("a", "0.0"), ("b", "0.0"), ("c", "-0.0")):
            paths.append(tmp_path / f"{name}.jsonl")
            paths[-1].write_text(f'{{"time_mu": 0, "value": {"[" * depth}{leaf}{"]" * depth}}}\n')
        assert run_cli("diff", str(paths[0]), str(paths[1])) == 0
        assert capsys.readouterr().out == "identical\n"
        assert run_cli("diff", str(paths[0]), str(paths[2])) == 1
        assert capsys.readouterr().out.startswith("record 0:\n")

    def test_summary_only_difference(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        b = tmp_path / "b.jsonl"
        lines = a.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["summary"]["sync_count"] = 99
        b.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        assert run_cli("diff", str(a), str(b)) == 1
        assert "summary.sync_count" in capsys.readouterr().out

    def test_record_count_difference(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        b = tmp_path / "b.jsonl"
        lines = a.read_text().splitlines()
        b.write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")  # the last record dropped
        n = len(lines) - 1
        assert run_cli("diff", str(a), str(b)) == 1
        out = capsys.readouterr().out
        assert f"record counts: A={n} B={n - 1}" in out
        assert f"record {n - 1}:" in out
        assert "identical" not in out

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_summary_present_in_one_dump_only(self, tmp_path, capsys, which):
        full = self.make_dump(tmp_path, "full.jsonl")
        bare = tmp_path / "bare.jsonl"
        bare.write_text("\n".join(full.read_text().splitlines()[:-1]) + "\n")  # the summary line dropped
        a, b = (full, bare) if which == "A" else (bare, full)
        assert run_cli("diff", str(a), str(b)) == 1
        assert capsys.readouterr().out.splitlines() == [f"summary present only in {which}"]

    def test_missing_file(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        assert run_cli("diff", str(a), str(tmp_path / "nope.jsonl")) == 2

    def test_max_diffs_limits_printout_not_verdict(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / "demo.jsonl"
        flipped = tmp_path / "flipped.jsonl"
        text = golden.read_text()
        assert text.count('"value": true}') >= 2
        flipped.write_text(text.replace('"value": true}', '"value": false}', 1))
        assert run_cli("diff", str(golden), str(flipped), "--max-diffs", "0") == 1
        out = capsys.readouterr().out
        assert "identical" not in out
        assert "record " not in out
        assert "1 more divergent records not shown" in out
        assert run_cli("diff", str(golden), str(flipped), "--max-diffs", "1") == 1
        assert "record 5:" in capsys.readouterr().out

    def test_every_record_divergent_counts_the_unshown(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(f'{{"time_mu": {i}, "value": true}}\n' for i in range(25)))
        b.write_text("".join(f'{{"time_mu": {i}, "value": false}}\n' for i in range(25)))
        assert run_cli("diff", str(a), str(b)) == 1
        out = capsys.readouterr().out
        assert out.count("record ") == 10
        assert "record 9:" in out and "record 10:" not in out
        assert out.splitlines()[-1] == "15 more divergent records not shown"

    def test_negative_max_diffs_rejected(self, tmp_path, capsys):
        a = self.make_dump(tmp_path, "a.jsonl")
        assert run_cli("diff", str(a), str(a), "--max-diffs", "-1") == 2
        assert "--max-diffs" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rtsim", "run", "demo"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "final cursor:    1126900" in proc.stdout

    def test_run_and_diff_leave_no_cyclic_garbage(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / "demo.jsonl"
        dump = tmp_path / "demo.jsonl"
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["run", "demo", "--jsonl", str(dump)]) == 0
            assert main(["diff", str(dump), str(golden)]) == 0
            gc.collect()
            assert len(gc.garbage) == 0
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
