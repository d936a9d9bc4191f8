import copy
import math
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtsim import (
    UNKNOWN,
    DuplicateSignalError,
    SignalError,
    SignalKind,
    SignalKindMismatch,
    SignalManager,
    SimConfig,
    TimeManager,
    UnknownSignalError,
)

from rtsim.signals import _VALIDATORS
from rtsim.timeline import MU_MAX, MU_MIN

from oracles import PushLogOracle


class TestRegistry:
    def test_register_returns_empty_signal(self):
        sm = SignalManager()
        sig = sm.register("ttl0", "state", SignalKind.BOOL)
        assert len(sig) == 0
        assert sig.kind is SignalKind.BOOL

    def test_duplicate_registration_rejected(self):
        sm = SignalManager()
        sm.register("ttl0", "state", SignalKind.BOOL)
        with pytest.raises(DuplicateSignalError):
            sm.register("ttl0", "state", SignalKind.BOOL)

    def test_list_contains_all_registered(self):
        sm = SignalManager()
        sm.register("ttl0", "state", SignalKind.BOOL)
        sm.register("dds0", "freq", SignalKind.REAL)
        assert {(s.device_name, s.signal_name) for s in sm} == {("ttl0", "state"), ("dds0", "freq")}

    @pytest.mark.parametrize("kind", ["bool", "BOOL", None, 1, SignalKind])
    def test_kind_must_be_a_signal_kind(self, kind):
        sm = SignalManager()
        with pytest.raises(TypeError, match="signal kind must be a SignalKind"):
            sm.register("d", "s", kind)
        assert ("d", "s") not in sm
        assert list(sm) == []

    @pytest.mark.parametrize("name", ["my sig", "sig\t0", "sig\u00a0", " ", "", 7, None, ("sig",),
                                      "$end", "$scope", "a\x00b", "a\x7f", "\u00e9"])
    @pytest.mark.parametrize("part", ["device", "signal"])
    def test_name_must_be_nonblank_str_without_whitespace(self, part, name):
        # Both names are written as they stand into the VCD's scope and $var lines, where a reader takes
        # a token that starts with "$" as a keyword, and a VCD is an ASCII file.
        sm = SignalManager()
        names = {"device": "ttl0", "signal": "state", part: name}
        message = ("device and signal names must be non-empty strings of printable ASCII '!' to '~' "
                   "that do not start with '$', got device ")
        with pytest.raises(SignalError, match="^" + re.escape(message)):
            sm.register(names["device"], names["signal"], SignalKind.BOOL)
        assert list(sm) == []

    @pytest.mark.parametrize("name", ["!", "~", "#0", "%", "a$", "a$end", "x" * 300])
    def test_printable_ascii_name_not_starting_with_dollar_registers(self, name):
        sm = SignalManager()
        sig = sm.register(name, name, SignalKind.BOOL)
        assert (sig.device_name, sig.signal_name) == (name, name) and list(sm) == [sig]

    def test_lookup_unknown_signal(self):
        with pytest.raises(UnknownSignalError):
            SignalManager().signal("nope", "state")

    def test_unknown_signal_message_is_not_quoted(self):
        with pytest.raises(UnknownSignalError) as excinfo:
            SignalManager().signal("nope", "state")
        assert str(excinfo.value) == "no such signal: 'nope'.'state'"


class TestPushPull:
    def make(self, kind=SignalKind.INT):
        return SignalManager().register("dev", "sig", kind)

    def test_same_timestamp_overwrites(self):
        sig = self.make()
        sig.push(0, 100)
        sig.push(1, 100)
        assert sig.events() == [(100, 1)]
        sig.push(2, 200)
        sig.push(3, 100)  # below the last event
        assert sig.events() == [(100, 3), (200, 2)]

    def test_out_of_order_push(self):
        sig = self.make()
        sig.push(20, 200)
        sig.push(15, 150)
        assert sig.pull(175) == 15

    def test_kind_mismatch_rejected(self):
        sig = self.make(SignalKind.REAL)
        with pytest.raises(SignalKindMismatch):
            sig.push(True, 0)

    def test_unknown_cannot_be_pushed(self):
        with pytest.raises(SignalKindMismatch):
            self.make().push(UNKNOWN, 0)

    def test_pull_before_first_event_is_unknown(self):
        sig = self.make()
        sig.push(1, 100)
        assert sig.pull(99) is UNKNOWN

    def test_unknown_has_no_truth_value(self):
        with pytest.raises(TypeError, match="UNKNOWN has no truth value"):
            bool(self.make().pull(0))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unknown_survives_pickle(self, protocol):
        assert pickle.loads(pickle.dumps(UNKNOWN, protocol)) is UNKNOWN

    def test_unknown_survives_copy(self):
        assert copy.copy(UNKNOWN) is UNKNOWN and copy.deepcopy(UNKNOWN) is UNKNOWN

    def test_repr_names_signal_and_kind(self):
        assert repr(self.make(SignalKind.REAL)) == "Signal(dev.sig, real)"

    def test_pull_at_event_time_is_inclusive(self):
        sig = self.make()
        sig.push(1, 100)
        assert sig.pull(100) == 1

    def test_last_value_holds_forever(self):
        sig = self.make()
        sig.push(1, 100)
        assert sig.pull(10**9) == 1

    def test_idempotent_overwrite(self):
        sig = self.make()
        sig.push(5, 10)
        before = sig.events()
        sig.push(5, 10)
        assert sig.events() == before


class TestValueKinds:
    def test_bool_accepts_only_bool(self):
        sig = SignalManager().register("d", "b", SignalKind.BOOL)
        with pytest.raises(SignalKindMismatch):
            sig.push(1, 0)
        sig.push(True, 0)
        assert sig.pull(0) is True

    def test_int_rejects_bool_and_out_of_range(self):
        sig = SignalManager().register("d", "i", SignalKind.INT)
        with pytest.raises(SignalKindMismatch):
            sig.push(True, 0)
        for bad in (2**63, 10**5000):
            with pytest.raises(SignalKindMismatch, match="out of signed 64-bit range"):
                sig.push(bad, 0)
            with pytest.raises(SignalError, match="signed 64-bit int"):
                sig.push(0, bad)
        sig.push(-(2**63), 0)
        assert sig.pull(0) == -(2**63)

    def test_real_stores_floats(self):
        sig = SignalManager().register("d", "r", SignalKind.REAL)
        sig.push(2, 0)
        assert sig.pull(0) == 2.0
        assert type(sig.pull(0)) is float

    def test_text_bounded_to_64_bytes(self):
        sig = SignalManager().register("d", "t", SignalKind.TEXT)
        sig.push("x" * 64, 0)
        sig.push("é" * 32, 1)  # 64 bytes in 32 code points
        with pytest.raises(SignalKindMismatch):
            sig.push("x" * 65, 0)

    def test_text_rejects_non_str(self):
        sig = SignalManager().register("d", "t", SignalKind.TEXT)
        with pytest.raises(SignalKindMismatch):
            sig.push(3, 0)


class _Real(float):
    pass


# (kind, rejected value, error text), the texts as the validators raise them.
REJECTED = [
    *[(kind, UNKNOWN, "UNKNOWN cannot be pushed onto a signal") for kind in SignalKind],
    (SignalKind.BOOL, None, "expected bool, got None"),
    (SignalKind.BOOL, 1, "expected bool, got 1"),
    pytest.param(SignalKind.BOOL, 10**5000, "expected bool, got <16610-bit int>", id="BOOL-10**5000"),
    (SignalKind.INT, None, "expected int, got None"),
    (SignalKind.INT, True, "expected int, got True"),
    (SignalKind.INT, 1.0, "expected int, got 1.0"),
    (SignalKind.INT, 2**63, "int value out of signed 64-bit range: 9223372036854775808"),
    (SignalKind.INT, -(2**63) - 1, "int value out of signed 64-bit range: -9223372036854775809"),
    (SignalKind.INT, 2**1100, "int value out of signed 64-bit range: <1101-bit int>"),
    (SignalKind.REAL, None, "expected real, got None"),
    (SignalKind.REAL, True, "expected real, got True"),
    (SignalKind.REAL, "1.0", "expected real, got '1.0'"),
    (SignalKind.REAL, 2**1100, "int value too large for a finite real"),
    (SignalKind.REAL, math.nan, "expected finite real, got nan"),
    (SignalKind.REAL, math.inf, "expected finite real, got inf"),
    (SignalKind.REAL, -math.inf, "expected finite real, got -inf"),
    (SignalKind.REAL, _Real("nan"), "expected finite real, got nan"),
    (SignalKind.TEXT, None, "expected text, got None"),
    (SignalKind.TEXT, 3, "expected text, got 3"),
    pytest.param(SignalKind.TEXT, 10**5000, "expected text, got <16610-bit int>", id="TEXT-10**5000"),
    (SignalKind.TEXT, "x" * 65, "text value exceeds 64 bytes"),
    pytest.param(SignalKind.TEXT, "é" * 32 + "x", "text value exceeds 64 bytes", id="TEXT-65-bytes-in-33-code-points"),
    (SignalKind.TEXT, "\ud800", "text value cannot be encoded as UTF-8: surrogates not allowed"),
]


def kind_rule(kind, value):
    """What a push of ``value`` must store, each kind's contract written plainly, or None if it must raise."""
    try:
        if kind is SignalKind.BOOL:
            ok = isinstance(value, bool)
        elif kind is SignalKind.INT:
            ok = isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63
        elif kind is SignalKind.REAL:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value := float(value)))
        else:
            ok = isinstance(value, str) and len(value.encode("utf-8")) <= 64
    except (OverflowError, UnicodeEncodeError):  # an int past the float range, or a lone surrogate
        ok = False
    return value if ok else None


def outcome(validate, value):
    """What one validation gives: ("stored", type, repr) or ("raised", type, text)."""
    try:
        stored = validate(value)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "stored", type(stored), repr(stored)


values = st.one_of(
    st.just(UNKNOWN),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**62, max_value=2**1100),
    st.floats(),
    st.floats().map(_Real),
    st.text(
        alphabet=st.one_of(st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)),
        max_size=70,
    ),
    # Code points of 1 to 4 UTF-8 bytes, so that the size often lands near the 64-byte bound.
    st.text(alphabet=st.sampled_from("xé€\U0001f600"), min_size=16, max_size=64),
)


class TestValidators:
    """Each kind's accepted values and exact rejections, through push and the validator table alike."""

    @pytest.mark.parametrize("kind,value,text", REJECTED)
    def test_rejection_type_and_text(self, kind, value, text):
        sig = SignalManager().register("d", "s", kind)
        with pytest.raises(SignalKindMismatch) as via_push:
            sig.push(value, 0)
        assert str(via_push.value) == text
        assert len(sig) == 0
        with pytest.raises(SignalKindMismatch) as via_coerce:
            _VALIDATORS[kind](value)
        assert str(via_coerce.value) == text

    def test_real_keeps_the_sign_of_zero(self):
        sig = SignalManager().register("d", "r", SignalKind.REAL)
        sig.push(-0.0, 0)
        assert math.copysign(1.0, sig.pull(0)) == -1.0

    def test_real_stores_a_float_subclass_as_float(self):
        sig = SignalManager().register("d", "r", SignalKind.REAL)
        sig.push(_Real(2.5), 0)
        assert type(sig.pull(0)) is float
        assert sig.pull(0) == 2.5

    @pytest.mark.parametrize("value", [0, -7, 2**53 + 1, 2**1000])
    def test_real_stores_a_finite_int_as_float(self, value):
        sig = SignalManager().register("d", "r", SignalKind.REAL)
        sig.push(value, 0)
        assert type(sig.pull(0)) is float
        assert sig.pull(0) == float(value)

    @given(kind=st.sampled_from(SignalKind), value=values)
    @example(kind=SignalKind.REAL, value=-0.0)
    @example(kind=SignalKind.REAL, value=_Real(-0.0))
    @example(kind=SignalKind.INT, value=-(2**63))
    @example(kind=SignalKind.TEXT, value="\ud800")
    @example(kind=SignalKind.TEXT, value="x" * 63 + "\udfff")
    @example(kind=SignalKind.TEXT, value="\U0001f600" * 16)
    @example(kind=SignalKind.TEXT, value="é" * 32)
    @example(kind=SignalKind.TEXT, value="é" * 32 + "x")
    @settings(max_examples=300, deadline=None)
    def test_push_stores_what_coerce_returns(self, kind, value):
        # push stores what the kind's validator returns, both as the kind's rule says; a refused push stores nothing.
        sig = SignalManager().register("d", "s", kind)

        def push_then_pull(v):
            sig.push(v, 0)
            return sig.pull(0)

        got = outcome(push_then_pull, value)
        assert got == outcome(_VALIDATORS[kind], value)
        rule = kind_rule(kind, value)
        if rule is None:
            assert got[:2] == ("raised", SignalKindMismatch) and len(sig) == 0
        else:
            assert got == ("stored", type(rule), repr(rule))

    def test_push_does_not_go_through_coerce(self, monkeypatch):
        # Each signal binds its validator when it is built; a push never looks it up again.
        signals = {kind: SignalManager().register("d", "s", kind) for kind in SignalKind}

        def refuse(value):
            raise AssertionError("validator table read after the signal was built")

        for kind in SignalKind:
            monkeypatch.setitem(_VALIDATORS, kind, refuse)
        for kind, value in [(SignalKind.BOOL, True), (SignalKind.INT, 5),
                            (SignalKind.REAL, 0.5), (SignalKind.TEXT, "k")]:
            signals[kind].push(value, 1)
            assert signals[kind].pull(1) == value
        with pytest.raises(SignalKindMismatch, match="expected int"):
            signals[SignalKind.INT].push("5", 2)


class TestEventsIn:
    def test_inclusive_range(self):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        for t in (10, 20, 30):
            sig.push(t, t)
        assert sig.events_in(15, 30) == [(20, 20), (30, 30)]

    def test_empty_signal(self):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        assert sig.events_in(0, 100) == []

    def test_full_range_equals_event_list(self):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        for t in (3, 1, 2, 1):
            sig.push(t, t * 10)
        assert sig.events_in(-(2**63), 2**63 - 1) == sig.events()

    def test_reversed_range_rejected(self):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        with pytest.raises(ValueError):
            sig.events_in(10, 5)

    @pytest.mark.parametrize(("t0", "t1"), [(MU_MIN - 1, 0), (0, MU_MAX + 1), (MU_MIN - 1, MU_MAX + 1),
                                            (MU_MAX + 1, MU_MAX + 2), (-(2**80), 2**80)])
    def test_bound_outside_64_bits_rejected(self, t0, t1):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        sig.push(1, 0)
        with pytest.raises(SignalError, match="signed 64-bit ints"):
            sig.events_in(t0, t1)

    def test_bounds_at_64_bit_limits_accepted(self):
        sig = SignalManager().register("d", "s", SignalKind.INT)
        sig.push(1, MU_MIN)
        sig.push(2, MU_MAX)
        assert sig.events_in(MU_MIN, MU_MIN) == [(MU_MIN, 1)]
        assert sig.events_in(MU_MAX, MU_MAX) == [(MU_MAX, 2)]


class TestManagerCoupling:
    def test_max_event_time_tracks_pushes(self):
        sm = SignalManager()
        sig = sm.register("d", "s", SignalKind.INT)
        other = sm.register("d", "t", SignalKind.INT)
        assert sm.event_top == [MU_MIN]
        sig.push(1, 500)
        sig.push(2, 100)
        assert sm.event_top == [500]
        other.push(3, 800)
        other.push(4, 200)  # out of order: below the maximum
        assert sm.event_top == [800]
        other.push(5, 800)  # overwrite at the maximum
        assert sm.event_top == [800]
        sig.push(6, 600)  # an append to one signal below another's maximum
        assert sm.event_top == [800]
        assert SignalManager().event_top == [MU_MIN]  # each manager has its own cell

    def test_horizon_covers_any_push(self):
        sm = SignalManager()
        tm = TimeManager(SimConfig(), sm.event_top)
        sig = sm.register("d", "s", SignalKind.INT)
        sig.push(1, 700)
        assert tm.horizon() == 700
        sig.push(2, -50)
        assert tm.horizon() == 700

    def test_event_count_sums_signals(self):
        sm = SignalManager()
        a = sm.register("d", "a", SignalKind.INT)
        b = sm.register("d", "b", SignalKind.INT)
        a.push(1, 1)
        a.push(2, 2)
        b.push(3, 3)
        assert sm.event_count() == 3


def pushed(pushes):
    """A registered signal, its manager's horizon cell and the oracle, all fed the same push script."""
    sm = SignalManager()
    sig = sm.register("d", "s", SignalKind.INT)
    oracle = PushLogOracle()
    for t, v in pushes:
        sig.push(v, t)
        oracle.push(t, v)
    return sig, oracle, sm.event_top


def unknown_if_none(value):
    return UNKNOWN if value is None else value


# The store harness's signals: (kind, the value it stores for a drawn int, a value of another kind).
STORE_SIGNALS = [(SignalKind.INT, int, True), (SignalKind.BOOL, lambda n: n % 2 == 0, 1),
                 (SignalKind.REAL, lambda n: n / 4, "0.25")]
# Often near 0, so that pushes overwrite and insert, and on both ends of the signed 64-bit range.
store_times = st.one_of(st.integers(-8, 8), st.integers(-(10**6), 10**6), st.sampled_from([MU_MIN, MU_MAX]))
non_int_times = st.one_of(st.floats(allow_nan=True), st.booleans(), st.none())
store_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 2), store_times, st.integers(-(10**4), 10**4)),
    # A push that must raise and change nothing: a value of another kind, or a time that is not a signed 64-bit int.
    st.tuples(st.just("wrong_kind"), st.integers(0, 2), store_times),
    st.tuples(st.just("bad_time"), st.integers(0, 2), non_int_times | st.sampled_from([MU_MIN - 1, MU_MAX + 1, 2**70])),
    st.tuples(st.just("at_mu"), st.integers(-60, 60) | st.integers(-(10**6), 10**6)),
), max_size=80)


class TestStore:
    """The signals' event stores against the linear-scan oracle, and the horizon a timeline reads from them."""

    @given(
        ops=store_ops,
        pulls=st.lists(store_times | st.sampled_from([MU_MIN - 1, MU_MAX + 1]), max_size=20),
        t0=st.integers(-(10**6), 10**6),
        span=st.integers(0, 10**6),
        cuts=st.tuples(st.integers(0, 100), st.integers(0, 100)),
        bad=non_int_times,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_push_log_oracle(self, ops, pulls, t0, span, cuts, bad):
        # Three signals of one manager, each with its own oracle, and a timeline on the manager's horizon cell.
        sm = SignalManager()
        tm = TimeManager(SimConfig(), sm.event_top)
        signals = [(sm.register("d", f"s{i}", kind), PushLogOracle(), value_of, wrong)
                   for i, (kind, value_of, wrong) in enumerate(STORE_SIGNALS)]
        highest = MU_MIN  # the largest time stored, or MU_MIN before the first event
        for op, *args in ops:
            if op == "at_mu":
                tm.at_mu(args[0])
            else:
                (sig, oracle, value_of, wrong), time = signals[args[0]], args[1]
                if op == "push":
                    sig.push(value_of(args[2]), time)
                    oracle.push(time, value_of(args[2]))
                    highest = max(highest, time)
                else:
                    before = sig.events()
                    with pytest.raises(SignalKindMismatch if op == "wrong_kind" else SignalError):
                        sig.push(wrong if op == "wrong_kind" else value_of(0), time)
                    assert sig.events() == before
            assert tm.horizon() == max(tm.now_mu(), highest)
        assert sm.event_top == [highest]
        for sig, oracle, _, _ in signals:
            pushed_times = [t for t, _ in oracle.log]
            for t in pulls + pushed_times + [t - 1 for t in pushed_times]:
                assert sig.pull(t) == unknown_if_none(oracle.pull(t))
            items = sig.events()
            assert items == oracle.items()
            times = [t for t, _ in items]
            assert times == sorted(set(times))
            assert len(sig) == len(times)
            assert sig.events_in(t0, t0 + span) == oracle.range_items(t0, t0 + span)
            if times:  # both ends on stored events
                lo, hi = sorted(times[cut % len(times)] for cut in cuts)
                assert sig.events_in(lo, hi) == oracle.range_items(lo, hi)
            for call in (lambda: sig.pull(bad), lambda: sig.events_in(bad, 10), lambda: sig.events_in(-10, bad)):
                with pytest.raises(SignalError):
                    call()

    def test_empty_store_behaviour(self):
        sig, _, top = pushed([])
        assert len(sig) == 0
        assert sig.pull(0) is UNKNOWN
        assert top == [MU_MIN]
        assert sig.events() == []
        assert sig.events_in(-10, 10) == []

    def test_max_time(self):
        sig, _, top = pushed([(5, 1), (-3, 2)])
        assert top == [5]
        assert len(sig) == 2

    def test_pull_outside_64_bit_range(self):
        sig, _, _ = pushed([(MU_MIN, 1), (MU_MAX, 2)])
        assert sig.pull(MU_MIN - 1) is UNKNOWN
        assert sig.pull(MU_MAX + 1) == 2
        assert sig.events_in(MU_MIN, MU_MAX) == [(MU_MIN, 1), (MU_MAX, 2)]
        with pytest.raises(SignalError):
            sig.events_in(MU_MIN - 10, MU_MAX + 10)
