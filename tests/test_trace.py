import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import DeviceDb, Experiment, SignalKind, SimConfig, SimulationRun, run_experiment, set_input
from rtsim import trace
from rtsim.cli import main as cli_main
from rtsim.signals import MAX_TEXT_BYTES, UNKNOWN
from rtsim.timeline import MU_MAX, MU_MIN
from rtsim.trace import export_jsonl, export_vcd, read_jsonl, records_of

from conftest import FULL_DDB
from vcd_check import check_vcd


def run_body(full_ddb, body, **config_kwargs):
    return run_experiment(Experiment("t", body), full_ddb, SimConfig(**config_kwargs))


@pytest.fixture
def pulse_run(full_ddb):
    def body(run):
        run.delay_mu(100)
        run.get_device("ttl0").pulse(1000)

    return run_body(full_ddb, body)


class TestVcd:
    def test_pulse_change_lines(self, pulse_run, tmp_path):
        path = tmp_path / "pulse.vcd"
        export_vcd(pulse_run, path)
        text = path.read_text()
        parsed = check_vcd(text)
        assert parsed["timescale"] == "1 ns"
        (code,) = [c for c, (dev, name, _) in parsed["ids"].items() if dev == "ttl0"]
        assert f"#100\n1{code}" in text
        assert f"#1100\n0{code}" in text

    def test_empty_run_is_header_only(self, full_ddb, tmp_path):
        run = run_body(full_ddb, lambda run: None)
        path = tmp_path / "empty.vcd"
        export_vcd(run, path)
        text = path.read_text()
        check_vcd(text)
        assert "$dumpvars" not in text
        assert "#" not in text

    def test_one_scope_per_device(self, full_ddb, tmp_path):
        def body(run):
            run.get_device("ttl0").pulse(10)
            run.get_device("ttl1").pulse(20)

        run = run_body(full_ddb, body)
        path = tmp_path / "two.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text())
        assert parsed["scopes"] == ["ttl0", "ttl1"]

    def test_negative_events_clamped_into_initials(self, full_ddb, tmp_path):
        def body(run):
            run.get_device("counter0")
            set_input(run, "counter0", "freq", -500, 1.0)
            set_input(run, "counter0", "freq", -200, 2.0)
            set_input(run, "counter0", "freq", 300, 3.0)

        run = run_body(full_ddb, body)
        path = tmp_path / "neg.vcd"
        export_vcd(run, path)
        text = path.read_text()
        parsed = check_vcd(text)
        initials = [line for t, _, line in parsed["changes"] if t is None]
        # Only the latest pre-zero value survives in the initial block.
        assert any(line.startswith("r2 ") for line in initials)
        assert not any(line.startswith("r1 ") for line in initials)
        assert "#300" in text
        assert "#-500" not in text

    def test_unset_bool_signals_start_unknown(self, full_ddb, tmp_path):
        def body(run):
            run.delay_mu(5)
            run.get_device("ttl0").on()

        run = run_body(full_ddb, body)
        path = tmp_path / "x.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text())
        initials = [line for t, _, line in parsed["changes"] if t is None]
        assert any(line.startswith("x") for line in initials)

    def test_int_and_text_rendering(self, full_ddb, tmp_path):
        def body(run):
            dev = run.get_device("in0")
            set_input(run, "in0", "prob", 0, 1.0)
            with run.kernel("warm up"):
                dev.sample_get()

        run = run_body(full_ddb, body)
        path = tmp_path / "kinds.vcd"
        export_vcd(run, path)
        text = path.read_text()
        check_vcd(text)
        assert "swarm_up" in text  # whitespace sanitized in string values
        assert "\nb1 " in text

    def test_interleaved_registration_dumps_in_var_order(self, full_ddb, tmp_path):
        def body(run):
            run.signals.register("a", "x", SignalKind.BOOL).push(True, -1)
            run.signals.register("b", "y", SignalKind.INT)
            run.signals.register("a", "z", SignalKind.BOOL)

        run = run_body(full_ddb, body)
        path = tmp_path / "interleaved.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text())
        assert [(dev, name) for dev, name, _ in parsed["ids"].values()] == [("a", "x"), ("a", "z"), ("b", "y")]
        initials = [line for t, _, line in parsed["changes"] if t is None]
        assert initials == ["1!", 'x"', "bx #"]

    def test_checker_rejects_scope_name_with_space(self):
        text = "$timescale 1 ns $end\n$scope module my ttl $end\n$upscope $end\n$enddefinitions $end\n"
        with pytest.raises(AssertionError, match="bad \\$scope"):
            check_vcd(text)
        check_vcd(text.replace("my ttl", "my_ttl"))

    @pytest.mark.parametrize(
        "decl,line", [("wire 1", "b1 !"), ("reg 64", "1!"), ("real 64", "s1 !"), ("string 1", "r1 !")]
    )
    def test_checker_rejects_change_of_another_var_type(self, decl, line):
        text = f"$timescale 1 ns $end\n$scope module d $end\n$var {decl} ! s $end\n$upscope $end\n$enddefinitions $end\n"
        with pytest.raises(AssertionError, match="change for a"):
            check_vcd(f"{text}#0\n{line}\n")
        fits = {"wire": "1!", "reg": "b1 !", "real": "r1 !", "string": "s1 !"}[decl.split()[0]]
        check_vcd(f"{text}#0\n{fits}\n")


class TestOverwrite:
    """Exports write over an existing file in place and cut off its old tail."""

    @pytest.mark.parametrize("export", [export_vcd, export_jsonl])
    @pytest.mark.parametrize("old", ["", "x\n", "x" * 20_000], ids=["empty", "shorter", "longer"])
    def test_existing_file_ends_as_a_fresh_export(self, pulse_run, tmp_path, export, old):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        export(pulse_run, fresh)
        reused.write_text(old)
        export(pulse_run, reused)
        assert reused.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("export", [export_vcd, export_jsonl])
    def test_device_and_pipe_are_written(self, pulse_run, tmp_path, export):
        export(pulse_run, tmp_path / "file")
        export(pulse_run, os.devnull)
        r, w = os.pipe()
        try:
            export(pulse_run, f"/dev/fd/{w}")  # a small export fits in the pipe's buffer
            assert os.read(r, 1 << 16) == (tmp_path / "file").read_bytes()
        finally:
            os.close(r)
            os.close(w)

    def test_failed_export_leaves_no_old_tail(self, pulse_run, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_text("old\n" * 5000)

        def one_record_then_fail(run):
            yield records_of(run)[0]
            raise RuntimeError("renderer failed")

        monkeypatch.setattr(trace, "records_of", one_record_then_fail)
        with pytest.raises(RuntimeError):
            export_jsonl(pulse_run, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["device"] == "ttl0"


class TestJsonl:
    def test_records_plus_summary(self, pulse_run, tmp_path):
        path = tmp_path / "pulse.jsonl"
        export_jsonl(pulse_run, path)
        records, summary = read_jsonl(path)
        assert len(records) == 2
        assert summary["event_count"] == 2
        assert summary["timeline_length_mu"] == pulse_run.stats.timeline_length_mu
        assert summary["config"]["mode"] == "regular"
        assert "wall_clock_ns" not in summary

    def test_byte_identical_across_runs(self, full_ddb, tmp_path):
        def body(run):
            dev = run.get_device("in0")
            set_input(run, "in0", "prob", 0, 0.5)
            run.get_device("core").reset()
            for _ in range(5):
                dev.sample_get()
                run.delay_mu(3)

        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            run = run_body(full_ddb, body, seed=77)
            path = tmp_path / name
            export_jsonl(run, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_round_trip_reproduces_stores(self, full_ddb, tmp_path):
        def body(run):
            core = run.get_device("core")
            dds = run.get_device("dds0")
            run.get_device("adc0")
            set_input(run, "adc0", "v0", -10, 0.125)
            core.reset()
            dds.set(1.25e8, 0.5, 0.75)
            run.get_device("ttl0").pulse(7)
            with run.kernel("k"):
                pass

        run = run_body(full_ddb, body)
        path = tmp_path / "rt.jsonl"
        export_jsonl(run, path)
        records, _ = read_jsonl(path)

        rebuilt = {}
        for rec in records:
            rebuilt.setdefault((rec["device"], rec["signal"]), []).append(
                (rec["time_mu"], rec["value"])
            )
        for sig in run.signals:
            key = (sig.device_name, sig.signal_name)
            events = sig.events()
            assert rebuilt.get(key, []) == events
            for (_, rebuilt_v), (_, orig_v) in zip(rebuilt.get(key, []), events):
                assert type(rebuilt_v) is type(orig_v)

    def test_records_globally_sorted(self, full_ddb, tmp_path):
        def body(run):
            a = run.get_device("ttl1")
            b = run.get_device("ttl0")
            a.on()
            b.on()
            run.delay_mu(10)
            b.off()
            a.off()

        run = run_body(full_ddb, body)
        path = tmp_path / "sorted.jsonl"
        export_jsonl(run, path)
        records, _ = read_jsonl(path)
        keys = [(r["time_mu"], r["device"], r["signal"]) for r in records]
        assert keys == sorted(keys)
        assert records_of(run)[0][2].device_name == "ttl0"


# Every kind, from devices whose registration order the property permutes.
_RECORD_SIGNALS = [
    ("ttl0", "state"), ("ttl1", "state"), ("dds0", "freq"), ("dds0", "amp"),
    ("core", "kernel"), ("in0", "sample"),
]
_AS_KIND = {SignalKind.BOOL: lambda n: n % 2 == 0, SignalKind.INT: int,
            SignalKind.REAL: float, SignalKind.TEXT: str}


class TestRecordsOf:
    @given(
        order=st.permutations(["ttl1", "ttl0", "in0", "dds0", "core"]),
        pushes=st.lists(
            st.tuples(
                st.integers(0, len(_RECORD_SIGNALS) - 1),
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_global_sort_by_time_device_signal(self, order, pushes):
        run = SimulationRun(DeviceDb.from_dict(FULL_DDB), SimConfig())
        for name in order:
            run.get_device(name)
        for idx, t, n in pushes:
            sig = run.signals.signal(*_RECORD_SIGNALS[idx])
            sig.push(_AS_KIND[sig.kind](n), t)

        expected = sorted(
            ((t, s.device_name, s.signal_name, v) for s in run.signals for t, v in s.events()),
            key=lambda r: r[:3],
        )
        got = [(t, s.device_name, s.signal_name, v) for t, _, s, v in records_of(run)]
        assert got == expected


# Values of each kind, with the edges of what json.dumps and the VCD renderers
# must agree on drawn often.
_VALUES = {
    SignalKind.BOOL: st.booleans(),
    SignalKind.INT: st.integers(MU_MIN, MU_MAX) | st.sampled_from([MU_MAX, -MU_MAX, MU_MIN, 0]),
    SignalKind.REAL: (
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.0, 5e-324, 1e16, 0.1, -1.5e300])
    ),
    SignalKind.TEXT: st.text(
        st.sampled_from('"\\\x00\x1f\x7f\n\r\t /\u00e9\u2028\U0001f600') | st.characters(codec="utf-8"),
        max_size=MAX_TEXT_BYTES,
    ).filter(lambda text: len(text.encode("utf-8")) <= MAX_TEXT_BYTES),
}


# (index into _RECORD_SIGNALS, time, value) pushes of every kind.
_RECORD_KINDS = [SignalKind.BOOL, SignalKind.BOOL, SignalKind.REAL, SignalKind.REAL,
                 SignalKind.TEXT, SignalKind.INT]
_PUSHES = st.lists(
    st.integers(0, len(_RECORD_SIGNALS) - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.integers(MU_MIN, MU_MAX) | st.integers(-3, 3), _VALUES[_RECORD_KINDS[i]],
    )),
    max_size=40,
)


def _run_with(pushes):
    def body(run):
        for name in ("ttl1", "ttl0", "in0", "dds0", "core"):  # not in name order
            run.get_device(name)
        for idx, t, value in pushes:
            run.signals.signal(*_RECORD_SIGNALS[idx]).push(value, t)

    return run_experiment(Experiment("pushes", body), DeviceDb.from_dict(FULL_DDB), SimConfig())


def _sorted_events(run):
    return sorted(
        ((t, s.device_name, s.signal_name, s, v) for s in run.signals for t, v in s.events()),
        key=lambda e: e[:3],
    )


_EDGE_PUSHES = [
    (0, 0, True), (1, 0, False),
    (5, MU_MIN, MU_MIN), (5, -1, -MU_MAX), (5, MU_MAX, MU_MAX),
    (2, 1, -0.0), (2, 2, 5e-324), (2, 3, 1e16), (3, 3, 0.1),
    (4, 4, 'say "hi" \\ \x00\x1f\x7f\u00e9\u2028\U0001f600'), (4, 5, ""), (4, 6, "\u00e9" * 32),
]


class TestJsonlLines:
    @given(pushes=_PUSHES)
    @example(pushes=_EDGE_PUSHES)
    @settings(max_examples=200, deadline=None)
    def test_each_line_is_json_dumps_of_its_record(self, pushes, tmp_path_factory):
        run = _run_with(pushes)
        path = tmp_path_factory.mktemp("jsonl") / "p.jsonl"
        export_jsonl(run, path)

        expected = [
            {"time_mu": t, "device": dev, "signal": name, "kind": sig.kind.value, "value": v}
            for t, dev, name, sig, v in _sorted_events(run)
        ]
        lines = path.read_bytes().decode("ascii").split("\n")
        assert lines[-1] == ""
        assert lines[:-2] == [json.dumps(rec) for rec in expected]

        records, summary = read_jsonl(path)
        assert records == expected
        assert [(type(r["value"]), repr(r["value"])) for r in records] == [
            (type(r["value"]), repr(r["value"])) for r in expected
        ]
        assert summary["event_count"] == run.stats.event_count


def _vcd_line(kind, value, code):
    """The VCD change line of one value, written out longhand."""
    if kind is SignalKind.BOOL:
        return ("1" if value else "0") + code
    if kind is SignalKind.INT:
        return f"b{value % 2**64:b} {code}"
    if kind is SignalKind.REAL:
        return f"r{value:.17g} {code}"
    return "s" + "".join("_" if ch.isspace() else ch for ch in value) + " " + code


class TestVcdProperty:
    @given(pushes=_PUSHES)
    @example(pushes=_EDGE_PUSHES)
    @settings(max_examples=200, deadline=None)
    def test_changes_match_events(self, pushes, tmp_path_factory):
        run = _run_with(pushes)
        path = tmp_path_factory.mktemp("vcd") / "p.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text(encoding="utf-8"))

        code_of = {(dev, name): code for code, (dev, name, _) in parsed["ids"].items()}
        initials = []
        for sig in run.signals:
            code = code_of[(sig.device_name, sig.signal_name)]
            value = sig.pull(-1)
            if value is not UNKNOWN:
                initials.append((None, code, _vcd_line(sig.kind, value, code)))
            elif sig.kind in (SignalKind.BOOL, SignalKind.INT):
                initials.append((None, code, ("x" if sig.kind is SignalKind.BOOL else "bx ") + code))
        timed = [
            (t, code_of[(dev, name)], _vcd_line(sig.kind, v, code_of[(dev, name)]))
            for t, dev, name, sig, v in _sorted_events(run) if t >= 0
        ]
        assert parsed["changes"] == initials + timed


class TestReadJsonlStrict:
    @pytest.mark.parametrize("line", ['{"a": 1} {"b": 2}', '{"a": 1}]', '{"a": 1}}', "1 2"])
    def test_more_than_one_value_on_a_line_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time_mu": 0}\n' + line + "\n")
        with pytest.raises(ValueError, match="Extra data"):
            read_jsonl(path)

    @pytest.mark.parametrize("line", ["5", '"summary"', '["summary"]', "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="expected a JSON object"):
            read_jsonl(path)

    @pytest.mark.parametrize("summary", ["[1, 2]", "5", '"x"', "null"])
    def test_non_object_summary_rejected(self, tmp_path, capsys, summary):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time_mu": 0}\n{"summary": %s}\n' % summary)
        with pytest.raises(ValueError, match="summary must be a JSON object"):
            read_jsonl(path)
        good = tmp_path / "good.jsonl"
        good.write_text('{"time_mu": 0}\n{"summary": {"event_count": 1}}\n')
        assert cli_main(["diff", str(good), str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: summary must be a JSON object")

    def test_blank_lines_skipped_and_crlf_accepted(self, tmp_path):
        path = tmp_path / "loose.jsonl"
        path.write_bytes(b'\r\n  {"time_mu": 1}  \r\n \t \n\n{"summary": {"event_count": 1}}\r\n')
        assert read_jsonl(path) == ([{"time_mu": 1}], {"event_count": 1})

    @pytest.mark.parametrize("line, message", [
        ('{"time_mu": 0} {"time_mu": 1}', "error: Extra data"),
        ("5", "error: expected a JSON object"),
    ])
    def test_diff_exits_2_on_bad_line(self, tmp_path, capsys, line, message):
        good = tmp_path / "good.jsonl"
        good.write_text('{"time_mu": 0}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_text(line + "\n")
        assert cli_main(["diff", str(good), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(message)
