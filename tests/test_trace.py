import json
import os
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import DeviceDb, Experiment, SignalKind, SimConfig, run_experiment, set_input
from rtsim import trace
from rtsim.cli import main as cli_main
from rtsim.signals import MAX_TEXT_BYTES, UNKNOWN
from rtsim.timeline import MU_MAX, MU_MIN
from rtsim.trace import export_jsonl, export_vcd, read_jsonl, records_of

from conftest import FULL_DDB
from digests import GOLDEN, digests
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

    def test_multi_character_id_codes(self, full_ddb, tmp_path):
        # 94 one-character codes exist, so the signals past them need two characters.
        def body(run):
            for i in range(200):
                run.signals.register("many", f"s{i:03}", SignalKind.BOOL).push(True, i)

        run = run_body(full_ddb, body)
        path = tmp_path / "many.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text())
        assert len(parsed["ids"]) == len(list(run.signals)) >= 200
        assert {len(code) for code in parsed["ids"]} == {1, 2}
        code_of = {name: code for code, (dev, name, _) in parsed["ids"].items() if dev == "many"}
        assert [(t, line) for t, _, line in parsed["changes"] if t is not None and line[1:] in code_of.values()] == [
            (i, f"1{code_of[f's{i:03}']}") for i in range(200)
        ]

    def test_real_changes_of_codes_with_percent_sign(self, full_ddb, tmp_path):
        # A REAL change is rendered by a "%" format with its code in it, and codes can hold "%".
        def body(run):
            for i in range(200):
                run.signals.register("many", f"r{i:03}", SignalKind.REAL).push(i + 0.1, i)

        run = run_body(full_ddb, body)
        path = tmp_path / "reals.vcd"
        export_vcd(run, path)
        parsed = check_vcd(path.read_text())
        code_of = {name: code for code, (dev, name, _) in parsed["ids"].items() if dev == "many"}
        assert sum("%" in code for code in code_of.values()) >= 3
        assert [(t, line) for t, _, line in parsed["changes"] if t is not None] == [
            (i, f"r{i + 0.1:.17g} {code_of[f'r{i:03}']}") for i in range(200)
        ]

    @pytest.mark.parametrize("code", ["\u00e9", "a\x7f", "\x01"])
    def test_checker_rejects_id_code_past_printable_ascii(self, code):
        text = f"$timescale 1 ns $end\n$scope module d $end\n$var wire 1 {code} s $end\n$upscope $end\n$enddefinitions $end\n"
        with pytest.raises(AssertionError, match="not printable ASCII"):
            check_vcd(text)
        check_vcd(text.replace(code, "!"))

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

        def one_record_then_fail(run, render):
            yield records_of(run, render)[0]
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
        assert records_of(run, {sig: _tagged(sig) for sig in run.signals})[0][2][0] == "ttl0"

    def test_ties_dump_in_name_order(self, full_ddb, tmp_path):
        # Signals registered in reverse name order, all written at the same times: the sort is keyed on
        # the time alone, so both dumps must keep each time's events in (device, signal) order.
        names = [("c", "x"), ("b", "y"), ("b", "x"), ("a", "z")]
        times = [5, 10, 20]

        def body(run):
            for i, (device, signal) in enumerate(names):
                sig = run.signals.register(device, signal, SignalKind.INT)
                for t in times:
                    sig.push(i * t, t)

        run = run_body(full_ddb, body)
        expected = [(t, device, signal) for t in times for device, signal in sorted(names)]
        export_jsonl(run, tmp_path / "ties.jsonl")
        records, _ = read_jsonl(tmp_path / "ties.jsonl")
        assert [(r["time_mu"], r["device"], r["signal"]) for r in records] == expected
        export_vcd(run, tmp_path / "ties.vcd")
        parsed = check_vcd((tmp_path / "ties.vcd").read_text())
        assert [(t, *parsed["ids"][code][:2]) for t, code, _ in parsed["changes"] if t is not None] == expected


def _tagged(sig):
    """A renderer that gives each value as (device, signal, value), so a record names its signal."""
    return lambda value: (sig.device_name, sig.signal_name, value)


# Every kind, from devices whose registration order the property permutes.
_RECORD_SIGNALS = [
    ("ttl0", "state"), ("ttl1", "state"), ("dds0", "freq"), ("dds0", "amp"),
    ("core", "kernel"), ("in0", "sample"),
]


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
    st.one_of([st.tuples(st.just(i), st.integers(MU_MIN, MU_MAX) | st.integers(-3, 3), _VALUES[kind])
               for i, kind in enumerate(_RECORD_KINDS)]),
    max_size=40,
)


def _run_with(order, pushes):
    def body(run):
        for name in order:
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


def _vcd_line(kind, value, code):
    """The VCD change line of one value, written out longhand."""
    if kind is SignalKind.BOOL:
        return ("1" if value else "0") + code
    if kind is SignalKind.INT:
        return f"b{value % 2**64:b} {code}"
    if kind is SignalKind.REAL:
        return f"r{value:.17g} {code}"
    return "s" + "".join("_" if ch.isspace() else ch for ch in value) + " " + code


# Records of any JSON values, built in export_jsonl's key order, so that json.dumps gives many of them its line form.
_DUMPED = st.lists(st.tuples(
    st.integers(MU_MIN, MU_MAX) | st.integers() | st.floats(),
    st.text(max_size=8) | st.sampled_from(["ttl0", "core", 'a"b', "a\\b", "dév"]),
    st.text(max_size=8) | st.sampled_from(["state", "kernel"]),
    st.sampled_from(["bool", "int", "real", "text", ""]) | st.text(max_size=4),
    st.booleans() | st.none() | st.integers() | st.integers(-10, 10)
    | st.floats() | st.sampled_from([-0.0, 1e5, 5e-324, 1e300]) | st.text(max_size=12),
).map(lambda record: dict(zip(("time_mu", "device", "signal", "kind", "value"), record))), max_size=12)


@pytest.fixture(scope="module")
def dump_dir(tmp_path_factory):
    """One directory for every example of a property test; each export overwrites the file it writes."""
    return tmp_path_factory.mktemp("dumps")


class TestExportProperty:
    @given(order=st.permutations(["ttl1", "ttl0", "in0", "dds0", "core"]), pushes=_PUSHES, dumped=_DUMPED,
           ensure_ascii=st.booleans())
    @example(order=["ttl1", "ttl0", "in0", "dds0", "core"], pushes=_EDGE_PUSHES, dumped=[], ensure_ascii=True)
    @settings(max_examples=200, deadline=None)
    def test_dumps_match_events(self, order, pushes, dumped, ensure_ascii, dump_dir):
        run = _run_with(order, pushes)
        events = _sorted_events(run)

        # JSONL: each line is json.dumps of its record, and reads back as the same typed values.
        path = dump_dir / "p.jsonl"
        export_jsonl(run, path)
        expected = [
            {"time_mu": t, "device": dev, "signal": name, "kind": sig.kind.value, "value": v}
            for t, dev, name, sig, v in events
        ]
        lines = path.read_bytes().decode("ascii").split("\n")
        assert lines[-1] == ""
        assert lines[:-2] == [json.dumps(rec) for rec in expected]
        # Records json.dumps wrote, after the summary: one read mixes the line form, the JSON decoder and the
        # read's cache of name parts, and must read every record as json.loads does.
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(rec, ensure_ascii=ensure_ascii) + "\n" for rec in dumped)
        records, summary = read_jsonl(path)
        assert _shape(records) == _shape(expected + dumped)
        assert summary["event_count"] == run.stats.event_count
        assert _shape((records, summary)) == _shape(_oracle_read(path))

        # VCD: a valid file whose changes are each signal's initial value, then every event at a time >= 0.
        path = dump_dir / "p.vcd"
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
            for t, dev, name, sig, v in events if t >= 0
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


def _oracle_read(path):
    """read_jsonl's contract, written plainly: json.loads on each non-blank line, stripped of JSON whitespace.

    ``raw_decode`` plus the end check is json.loads, except that the "Extra
    data" position is the end of the value, as read_jsonl reports it.
    """
    records, summary = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip(" \t\n\r")
            if not line:
                continue
            try:
                obj, end = json.JSONDecoder().raw_decode(line)
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


def _shape(value):
    """``value`` with the type and repr of every leaf and the key order of every dict."""
    if type(value) is dict:
        return [(key, _shape(item)) for key, item in value.items()]
    if type(value) in (list, tuple):
        return [_shape(item) for item in value]
    return type(value).__name__, repr(value)


def _outcome(read, path):
    try:
        return "ok", _shape(read(path))
    except ValueError as err:  # json.JSONDecodeError included
        return "raised", type(err), str(err)


def _line(time="1", device='"ttl0"', signal='"state"', kind='"bool"', value="true"):
    return f'{{"time_mu": {time}, "device": {device}, "signal": {signal}, "kind": {kind}, "value": {value}}}'


# Lines that are, or nearly are, export_jsonl's own line form.
_NEAR_MISSES = {
    "export_form": _line(),
    "false": _line(value="false"),
    "int": _line(value="-42"),
    "minus_zero_int": _line(value="-0"),
    "minus_zero_float": _line(value="-0.0"),
    "exponent": _line(value="1e5"),
    "exponent_upper_plus": _line(value="1E+5"),
    "exponent_minus": _line(value="-2.5e-3"),
    "float_past_range": _line(value="1e400"),
    "leading_zero": _line(value="01"),
    "leading_zero_time": _line(time="007"),
    "trailing_dot": _line(value="1."),
    "leading_dot": _line(value=".5"),
    "plus_sign": _line(value="+1"),
    "nan": _line(value="NaN"),
    "infinity": _line(value="Infinity"),
    "minus_infinity": _line(value="-Infinity"),
    "null": _line(value="null"),
    "capital_true": _line(value="True"),
    "int_of_19_digits": _line(value="-9999999999999999999"),
    "int_of_20_digits": _line(value="12345678901234567890"),
    "int_past_digit_limit": _line(value="9" * 5000),
    "time_of_19_digits": _line(time="9999999999999999999"),
    "time_of_20_digits": _line(time="12345678901234567890"),
    "negative_time": _line(time="-9223372036854775808"),
    "float_time": _line(time="1.5"),
    "exponent_time": _line(time="1e3"),
    "unicode_digit_time": _line(time="1١"),
    "text": _line(kind='"text"', value='"point 7"'),
    "empty_text": _line(kind='"text"', value='""'),
    "escaped_quote_in_value": _line(kind='"text"', value=r'"say \"hi\""'),
    "escaped_backslash_in_value": _line(kind='"text"', value=r'"a\\b"'),
    "escaped_e_acute_in_value": _line(kind='"text"', value=r'"caf\u00e9"'),
    "escaped_quote_in_device": _line(device=r'"tt\"l0"'),
    "escaped_backslash_in_signal": _line(signal=r'"st\\ate"'),
    "escaped_e_acute_in_kind": _line(kind=r'"b\u00e9ol"'),
    "raw_non_ascii_value": _line(kind='"text"', value='"café \U0001f600"'),
    "raw_non_ascii_device": _line(device='"dév"'),
    "raw_control_in_value": _line(kind='"text"', value='"a\x01b"'),
    "raw_control_in_signal": _line(signal='"st\x1fate"'),
    # A name part that fails the plain rule, seen twice and then followed by a plain line.
    "raw_control_in_signal_twice_then_plain": "\n".join([_line(signal='"st\x1fate"')] * 2 + [_line()]),
    "escaped_backslash_in_device_twice_then_plain": "\n".join([_line(device=r'"tt\\l0"')] * 2 + [_line()]),
    "raw_del_in_value": _line(kind='"text"', value='"a\x7fb"'),
    "unterminated_value": _line(kind='"text"', value='"abc'),
    "reordered_keys": '{"device": "ttl0", "time_mu": 1, "signal": "state", "kind": "bool", "value": true}',
    "duplicate_key": _line(value='true, "value": 5'),
    "missing_key": '{"time_mu": 1, "device": "ttl0", "signal": "state", "value": true}',
    "extra_key": _line(value='true, "note": 1'),
    "no_space_after_colon": _line().replace('"time_mu": ', '"time_mu":'),
    "leading_space": " " + _line(),
    "trailing_space": _line() + " ",
    "trailing_tab": _line() + "\t",
    "crlf": _line() + "\r",
    "leading_no_break_space": "\xa0" + _line(),
    "trailing_unit_separator": _line() + "\x1f",
    "trailing_next_line": _line() + "\x85",
    "trailing_line_separator": _line() + "\u2028",
    "only_no_break_space": "\xa0",
    "trailing_object": _line() + ' {"b": 2}',
    "trailing_bracket": _line() + "]",
    "trailing_junk": _line() + "x",
    "summary": '{"summary": {"event_count": 1}}',
    "non_object": "[1, 2]",
}


class TestReadJsonlOracle:
    """read_jsonl reads export_jsonl's own lines directly; it must read every line as json.loads does."""

    @pytest.mark.parametrize("line", list(_NEAR_MISSES.values()), ids=list(_NEAR_MISSES))
    @pytest.mark.parametrize("last", [False, True], ids=["newline", "last_line"])
    def test_near_miss_line_reads_as_json_loads(self, tmp_path, line, last):
        path = tmp_path / "near.jsonl"
        text = _line(time="0") + "\n" + line + ("" if last else "\n")
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_jsonl, path) == _outcome(_oracle_read, path)


def _generated_dump(path, n, per_time=1):
    """Export a run of ``n`` events of all four kinds, one signal of each per device, ``per_time`` at a time."""
    kinds = {("ttl0", "state"): lambda i: i % 3 == 0, ("in0", "sample"): lambda i: i % 2,
             ("dds0", "freq"): lambda i: i * 0.5, ("core", "kernel"): lambda i: f"point{i}"}

    def body(run):
        for device, _ in kinds:
            run.get_device(device)
        signals = [(run.signals.signal(*key), make) for key, make in kinds.items()]
        for i in range(n):
            sig, make = signals[i % len(signals)]
            sig.push(make(i), i - i % per_time)

    run = run_experiment(Experiment("dump", body), DeviceDb.from_dict(FULL_DDB), SimConfig())
    export_jsonl(run, path)


class TestReadJsonlSharing:
    """Records share their key strings, one signal's records share its three name strings, and
    consecutive records at one time share its int."""

    @pytest.mark.parametrize("source", ["golden", "generated"])
    def test_records_share_keys_and_names(self, tmp_path, source):
        if source == "golden":  # six records at 126 000
            path = os.path.join(os.path.dirname(__file__), "golden", "demo.jsonl")
        else:
            path = tmp_path / "gen.jsonl"
            _generated_dump(path, 400, per_time=3)
        records, _ = read_jsonl(path)
        assert len(records) > 10
        first = list(records[0])
        names = {}
        for rec in records:
            assert all(key is key0 for key, key0 in zip(rec, first, strict=True))
            shared = names.setdefault((rec["device"], rec["signal"]), (rec["device"], rec["signal"], rec["kind"]))
            assert all(a is b for a, b in zip((rec["device"], rec["signal"], rec["kind"]), shared))
        assert len(names) >= 4
        times = [rec["time_mu"] for rec in records]
        lines = Path(path).read_text().splitlines()
        assert times == [obj["time_mu"] for obj in map(json.loads, lines) if "summary" not in obj]
        pairs = [(a, b) for a, b in zip(times, times[1:]) if a == b > 256]  # past CPython's cached small ints
        assert len(pairs) >= 5
        assert all(a is b for a, b in pairs)

    def test_time_shared_across_blank_and_decoder_lines(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        lines = [_line(time="1000"), "", _line(time="2000", value='true, "note": 1'), _line(time="1000"),
                 _line(time="1000", signal=r'"st\\ate"'), "  ", _line(time="1000"), _line(time="3000")]
        path.write_text("\n".join(lines) + "\n")
        assert _outcome(read_jsonl, path) == _outcome(_oracle_read, path)
        records, _ = read_jsonl(path)
        assert [rec["time_mu"] for rec in records] == [1000, 2000, 1000, 1000, 1000, 3000]

    def test_read_peak_per_record_is_bounded(self, tmp_path):
        path = tmp_path / "big.jsonl"
        _generated_dump(path, 10_000)
        read_jsonl(path)  # warm up: first-call allocations are not per record
        tracemalloc.start()
        try:
            records, _ = read_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 10_000
        assert peak / len(records) <= 350


def test_bundled_runs_match_pinned_digests():
    # Both exports of demo, of each bench preset and of a body that draws from each random stream, in both
    # sync modes. tests/digests.py prints and checks the same table without pytest.
    assert digests() == json.loads(GOLDEN.read_text())
