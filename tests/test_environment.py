import gc
import json
import re
import weakref

import pytest

from rtsim import (
    DeviceDb,
    DeviceDbError,
    Experiment,
    ExperimentRunError,
    SimConfig,
    SyncMode,
    TimeManager,
    UnknownDeviceError,
    load_ddb,
    run_experiment,
)

MINIMAL = {"devices": [{"name": "core", "kind": "core"}, {"name": "ttl0", "kind": "ttl_out"}]}


def write_ddb(tmp_path, data, name="ddb.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoadDdb:
    def test_minimal_file(self, tmp_path):
        ddb = load_ddb(write_ddb(tmp_path, MINIMAL))
        assert len(ddb) == 2
        assert ddb.core_name == "core"

    def test_duplicate_name_is_named_in_error(self, tmp_path):
        data = {"devices": [{"name": "core", "kind": "core"},
                            {"name": "x", "kind": "ttl_out"},
                            {"name": "x", "kind": "ttl_out"}]}
        with pytest.raises(DeviceDbError, match="'x'"):
            load_ddb(write_ddb(tmp_path, data))

    def test_unknown_kind_lists_allowed_and_position(self, tmp_path):
        data = {"devices": [{"name": "core", "kind": "core"},
                            {"name": "f", "kind": "flux_capacitor"}]}
        with pytest.raises(DeviceDbError, match=r"devices\[1\].*allowed kinds"):
            load_ddb(write_ddb(tmp_path, data))

    def test_missing_core(self, tmp_path):
        data = {"devices": [{"name": "ttl0", "kind": "ttl_out"}]}
        with pytest.raises(DeviceDbError, match="exactly one core"):
            load_ddb(write_ddb(tmp_path, data))

    def test_two_cores(self, tmp_path):
        data = {"devices": [{"name": "a", "kind": "core"}, {"name": "b", "kind": "core"}]}
        with pytest.raises(DeviceDbError, match="found 2"):
            load_ddb(write_ddb(tmp_path, data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DeviceDbError, match="cannot read"):
            load_ddb(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(DeviceDbError, match="not valid JSON"):
            load_ddb(path)

    def test_int_past_digit_limit_is_invalid_json(self, tmp_path):
        # json raises a bare ValueError for an int of more than 4 300 digits.
        path = tmp_path / "big.json"
        path.write_text('{"devices": [' + "1" * 5000 + "]}")
        with pytest.raises(DeviceDbError, match="not valid JSON"):
            load_ddb(path)

    def test_missing_field(self, tmp_path):
        data = {"devices": [{"name": "core"}]}
        with pytest.raises(DeviceDbError, match=r"devices\[0\].*'kind'"):
            load_ddb(write_ddb(tmp_path, data))

    @pytest.mark.parametrize("name", ["my ttl", "ttl\t0", "ttl\u00a0", "", 7, None, ["ttl0"]])
    def test_name_must_be_nonblank_str_without_whitespace(self, name):
        data = {"devices": [{"name": "core", "kind": "core"}, {"name": name, "kind": "ttl_out"}]}
        with pytest.raises(DeviceDbError, match=r"devices\[1\].*device name"):
            DeviceDb.from_dict(data)

    @pytest.mark.parametrize(
        "kind,params,message",
        [
            ("ttl_in", {"sample_delay_mu": -5}, "sample_delay_mu must be a non-negative integer"),
            ("edge_counter", {"counter_mode": "bogus"},
             "counter_mode must be 'deterministic' or 'poisson', got 'bogus'"),
            ("adc", {"channels": 0}, "channels must be a positive integer"),
            ("adc", {"channels": 2.0}, "channels must be a positive integer"),
            ("dds", {"set_delay_mu": True}, "set_delay_mu must be a non-negative integer"),
            ("dds", {"init_delay_mu": None}, "init_delay_mu must be a non-negative integer"),
            ("dds", {"set_delay_mu": 2**64 - 1}, "set_delay_mu must be at most 2**63 - 1"),
            ("dds", {"init_delay_mu": 2**100}, "init_delay_mu must be at most 2**63 - 1"),
            ("ttl_in", {"sample_delay_mu": 2**63}, "sample_delay_mu must be at most 2**63 - 1"),
            ("adc", {"sample_delay_mu": 2**63}, "sample_delay_mu must be at most 2**63 - 1"),
        ],
    )
    def test_bad_param_value_rejected_at_load(self, tmp_path, kind, params, message):
        # No body ever asks for the device: the file itself is refused.
        data = {"devices": [{"name": "core", "kind": "core"},
                            {"name": "dev", "kind": kind, "params": params}]}
        with pytest.raises(DeviceDbError, match=re.escape(f"devices[1]: device 'dev': {message}")):
            load_ddb(write_ddb(tmp_path, data))

    @pytest.mark.parametrize("kind", [["ttl_out"], {"ttl_out": 1}, 7, None])
    def test_kind_must_be_str(self, tmp_path, kind):
        data = {"devices": [{"name": "core", "kind": "core"}, {"name": "x", "kind": kind}]}
        with pytest.raises(DeviceDbError, match=r"devices\[1\].*unknown kind.*allowed kinds"):
            load_ddb(write_ddb(tmp_path, data))

    def test_unknown_entry_field_rejected(self, tmp_path):
        # A misspelt "params" must not load the device with its default params.
        data = {"devices": [{"name": "core", "kind": "core"},
                            {"name": "adc0", "kind": "adc", "prams": {"channels": 2}}]}
        with pytest.raises(DeviceDbError,
                           match=re.escape("devices[1]: device 'adc0': unknown field 'prams'; allowed: name, kind, params")):
            load_ddb(write_ddb(tmp_path, data))

    def test_devices_must_be_list(self, tmp_path):
        with pytest.raises(DeviceDbError):
            load_ddb(write_ddb(tmp_path, {"devices": {}}))


class TestGetDevice:
    def test_memoized(self, make_run):
        run = make_run()
        assert run.get_device("ttl0") is run.get_device("ttl0")

    def test_unknown_name(self, make_run):
        run = make_run()
        with pytest.raises(UnknownDeviceError):
            run.get_device("nope")

    def test_instantiation_registers_signals(self, make_run):
        run = make_run()
        assert ("ttl0", "state") not in run.signals
        run.get_device("ttl0")
        assert ("ttl0", "state") in run.signals


class TestRunExperiment:
    def test_empty_body(self, full_ddb):
        run = run_experiment(Experiment("empty", lambda run: None), full_ddb)
        assert run.stats.timeline_length_mu == 0
        assert run.stats.event_count == 0
        assert run.stats.sync_count == 0
        assert run.stats.final_cursor == 0

    def test_cursor_methods_are_the_timelines_own(self, make_run):
        # No wrapper between an experiment body and its timeline.
        run = make_run()
        for name in ("now_mu", "delay_mu", "delay", "at_mu"):
            method = getattr(run, name)
            assert method.__self__ is run.time and method.__func__ is getattr(TimeManager, name)

    def test_finished_run_freed_without_cyclic_gc(self, full_ddb):
        # Every driver kind is built, and one draws, so none may keep the run that holds it.
        def body(run):
            for desc in full_ddb.devices:
                run.get_device(desc.name)
            with run.kernel("k"), run.parallel():
                run.get_device("core").reset()
                run.get_device("ttl0").pulse(1000)
            in0 = run.get_device("in0")
            in0.prob.push(0.5, run.now_mu())
            in0.sample_get()

        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(run_experiment(Experiment("free", body), full_ddb))
            assert ref() is None
        finally:
            gc.enable()

    def test_config_is_used_as_given(self, full_ddb, monkeypatch):
        # The run takes its seed from the config alone, whatever the environment holds.
        def body(run):
            dev = run.get_device("in0")
            dev.prob.push(0.5, 0)
            run.draws = [dev.sample_get() for _ in range(8)]

        given = run_experiment(Experiment("seed", body), full_ddb, SimConfig(seed=1))
        monkeypatch.setenv("RTSIM_SEED", "12345")
        with_env = run_experiment(Experiment("seed", body), full_ddb, SimConfig(seed=1))
        assert with_env.config.seed == 1
        assert with_env.draws == given.draws

    def body_reset_pulse(self, run):
        run.get_device("core").reset()
        run.get_device("ttl0").pulse(1000)

    def test_reset_pulse_regular(self, full_ddb):
        run = run_experiment(
            Experiment("rp", self.body_reset_pulse), full_ddb, SimConfig(mode=SyncMode.REGULAR)
        )
        assert run.stats.event_count == 2
        assert run.stats.final_cursor == 126_000
        assert run.stats.start_cursor_after_first_sync == 125_000
        assert run.stats.timeline_length_mu == 1000

    def test_reset_pulse_optimistic(self, full_ddb):
        run = run_experiment(
            Experiment("rp", self.body_reset_pulse), full_ddb, SimConfig(mode=SyncMode.OPTIMISTIC)
        )
        assert run.stats.final_cursor == 1000
        assert run.stats.timeline_length_mu == 1000

    def test_runs_are_isolated(self, full_ddb):
        def body(run):
            run.get_device("ttl0").pulse(10)

        a = run_experiment(Experiment("x", body), full_ddb)
        b = run_experiment(Experiment("x", body), full_ddb)
        assert a.signals is not b.signals
        assert a.signals.signal("ttl0", "state") is not b.signals.signal("ttl0", "state")

    def test_stats_consistency(self, full_ddb):
        def body(run):
            core = run.get_device("core")
            core.reset()
            run.get_device("ttl0").pulse(5)
            core.reset()
            run.get_device("dds0").set(1e6)

        run = run_experiment(Experiment("s", body), full_ddb)
        assert run.stats.sync_count == 2
        assert run.stats.event_count == run.signals.event_count() == 5

    def test_error_keeps_partial_timeline(self, full_ddb):
        def body(run):
            run.get_device("ttl0").pulse(100)
            raise RuntimeError("boom")

        with pytest.raises(ExperimentRunError) as excinfo:
            run_experiment(Experiment("err", body), full_ddb)
        partial = excinfo.value.run
        assert partial.signals.signal("ttl0", "state").events() == [(0, True), (100, False)]
        assert isinstance(partial.error, RuntimeError)
        assert partial.stats is not None

    def test_wall_clock_recorded(self, full_ddb):
        run = run_experiment(Experiment("empty", lambda run: None), full_ddb)
        assert run.stats.wall_clock_ns >= 0


class TestRunHandle:
    def test_context_managers_drive_the_stack(self, make_run):
        run = make_run()
        with run.parallel():
            with run.sequential():
                run.delay_mu(10)
                run.delay_mu(20)
            run.delay_mu(5)
        assert run.now_mu() == 30

    @pytest.mark.parametrize("kind", ["sequential", "parallel"])
    def test_exception_in_frame_propagates_and_pops(self, make_run, kind):
        run = make_run()
        run.delay_mu(7)
        error = ValueError("boom")
        with pytest.raises(ValueError) as excinfo:
            with getattr(run, kind)():
                run.delay_mu(3)
                raise error
        assert excinfo.value is error
        assert run.time.depth == 1
        assert run.now_mu() == 10

    @pytest.mark.parametrize("kind", ["sequential", "parallel"])
    def test_frame_binds_none(self, make_run, kind):
        run = make_run()
        with getattr(run, kind)() as frame:
            assert frame is None
            assert run.time.depth == 2

    def test_frames_reused_and_nested_match_demo_layout(self, make_run):
        # The demo's parallel{sequential{pulse 500}; sequential{pulse 800}}, with
        # each frame object entered again, nested in itself and after an error.
        run = make_run()
        seq, par = run.sequential(), run.parallel()
        ttl0, ttl1 = run.get_device("ttl0"), run.get_device("ttl1")
        for start in (1000, 3000):
            run.at_mu(start)
            with par:
                with seq:
                    ttl0.pulse(500)
                with seq:
                    with seq:
                        ttl1.pulse(800)
            assert run.now_mu() == start + 800
            with pytest.raises(RuntimeError), par:
                raise RuntimeError
            assert run.time.depth == 1
        assert ttl0.state.events() == [(1000, True), (1500, False), (3000, True), (3500, False)]
        assert ttl1.state.events() == [(1000, True), (1800, False), (3000, True), (3800, False)]

    def test_kernel_marker_event(self, full_ddb):
        def body(run):
            run.delay_mu(50)
            with run.kernel("flash"):
                run.get_device("ttl0").pulse(10)

        run = run_experiment(Experiment("k", body), full_ddb)
        assert run.signals.signal("core", "kernel").events() == [(50, "flash")]

    def test_delay_seconds_uses_config_period(self, make_run):
        run = make_run()
        run.delay(2e-6)
        assert run.now_mu() == 2000
