import math

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

    @pytest.mark.parametrize("name", ["my sig", "sig\t0", "sig\u00a0", " ", "", 7, None, ("sig",)])
    @pytest.mark.parametrize("part", ["device", "signal"])
    def test_name_must_be_nonblank_str_without_whitespace(self, part, name):
        # Both names are written as they stand into the VCD's scope and $var lines.
        sm = SignalManager()
        names = {"device": "ttl0", "signal": "state", part: name}
        with pytest.raises(SignalError, match="names must be non-empty strings without whitespace"):
            sm.register(names["device"], names["signal"], SignalKind.BOOL)
        assert list(sm) == []

    def test_lookup_unknown_signal(self):
        with pytest.raises(UnknownSignalError):
            SignalManager().signal("nope", "state")


class TestPushPull:
    def make(self, kind=SignalKind.INT):
        return SignalManager().register("dev", "sig", kind)

    def test_same_timestamp_overwrites(self):
        sig = self.make()
        sig.push(0, 100)
        sig.push(1, 100)
        assert sig.events() == [(100, 1)]

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
        with pytest.raises(SignalKindMismatch):
            sig.push("x" * 65, 0)

    def test_text_rejects_non_str(self):
        sig = SignalManager().register("d", "t", SignalKind.TEXT)
        with pytest.raises(SignalKindMismatch):
            sig.push(3, 0)

    @given(
        st.text(
            alphabet=st.one_of(
                st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
            ),
            max_size=70,
        )
    )
    @example("\ud800")
    @example("x" * 63 + "\udfff")
    @example("\U0001f600" * 16)
    def test_any_str_is_stored_or_raises_kind_mismatch(self, text):
        sig = SignalManager().register("d", "t", SignalKind.TEXT)
        try:
            fits = len(text.encode("utf-8")) <= 64
        except UnicodeEncodeError:
            fits = False
        if fits:
            sig.push(text, 0)
            assert sig.pull(0) == text
        else:
            with pytest.raises(SignalKindMismatch):
                sig.push(text, 0)
            assert len(sig) == 0


class _Real(float):
    pass


# (kind, rejected value, error text), the texts as the validators raise them.
REJECTED = [
    *[(kind, UNKNOWN, "UNKNOWN cannot be pushed onto a signal") for kind in SignalKind],
    (SignalKind.BOOL, None, "expected bool, got None"),
    (SignalKind.BOOL, 1, "expected bool, got 1"),
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
    (SignalKind.TEXT, "x" * 65, "text value exceeds 64 bytes"),
    (SignalKind.TEXT, "\ud800", "text value cannot be encoded as UTF-8: surrogates not allowed"),
]


def stored_or_error(kind, value, via_push):
    """What one validation gives: ("stored", type, repr) or ("raised", type, text)."""
    try:
        if via_push:
            sig = SignalManager().register("d", "s", kind)
            sig.push(value, 0)
            stored = sig.pull(0)
        else:
            stored = kind.coerce(value)
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
)


class TestValidators:
    """Each kind's accepted values and exact rejections, through push and coerce alike."""

    @pytest.mark.parametrize("kind,value,text", REJECTED)
    def test_rejection_type_and_text(self, kind, value, text):
        sig = SignalManager().register("d", "s", kind)
        with pytest.raises(SignalKindMismatch) as via_push:
            sig.push(value, 0)
        assert str(via_push.value) == text
        assert len(sig) == 0
        with pytest.raises(SignalKindMismatch) as via_coerce:
            kind.coerce(value)
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
    @settings(max_examples=300, deadline=None)
    def test_push_stores_what_coerce_returns(self, kind, value):
        assert stored_or_error(kind, value, True) == stored_or_error(kind, value, False)

    def test_push_does_not_go_through_coerce(self, monkeypatch):
        # Each signal binds its validator when it is built; a push never looks it up again.
        signals = {kind: SignalManager().register("d", "s", kind) for kind in SignalKind}

        def refuse(self, value):
            raise AssertionError("SignalKind.coerce called")

        monkeypatch.setattr(SignalKind, "coerce", refuse)
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

    @given(st.lists(st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 2),
            st.one_of(st.integers(-50, 50), st.sampled_from([MU_MIN, MU_MAX, MU_MIN - 1, MU_MAX + 1, 2**70, 1.5])),
            st.booleans(),
        ),
        st.tuples(st.just("at_mu"), st.integers(-60, 60)),
    ), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_horizon_is_max_of_cursor_and_stored_times(self, script):
        # Several signals, out-of-order inserts, overwrites, and pushes that raise for
        # a value of the wrong kind or a time outside the signed 64-bit range.
        sm = SignalManager()
        tm = TimeManager(SimConfig(), sm.event_top)
        kinds = [(SignalKind.INT, 7), (SignalKind.BOOL, True), (SignalKind.REAL, 0.5)]
        signals = [(sm.register("d", f"s{i}", kind), good) for i, (kind, good) in enumerate(kinds)]
        stored = set()
        for op, *args in script:
            if op == "at_mu":
                tm.at_mu(args[0])
            else:
                index, time, valid = args
                sig, good = signals[index]
                try:
                    sig.push(good if valid else "x", time)
                except SignalError:
                    assert not valid or type(time) is not int or not MU_MIN <= time <= MU_MAX
                else:
                    stored.add(time)
            assert tm.horizon() == max([tm.now_mu(), *stored])
            assert stored == {t for sig, _ in signals for t in sig._times}

    def test_event_count_sums_signals(self):
        sm = SignalManager()
        a = sm.register("d", "a", SignalKind.INT)
        b = sm.register("d", "b", SignalKind.INT)
        a.push(1, 1)
        a.push(2, 2)
        b.push(3, 3)
        assert sm.event_count() == 3


script = st.lists(
    st.tuples(
        st.integers(min_value=-(10**4), max_value=10**4),
        st.integers(min_value=-(10**6), max_value=10**6),
    ),
    max_size=120,
)


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


class TestStoreBackends:
    """The signal's event store against the linear-scan oracle."""

    @given(pushes=script, pulls=st.lists(st.integers(-(10**4) - 5, 10**4 + 5), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_pull_matches_linear_scan_oracle(self, pushes, pulls):
        sig, oracle, _ = pushed(pushes)
        for t in pulls + [t for t, _ in pushes]:
            assert sig.pull(t) == unknown_if_none(oracle.pull(t))

    @given(pushes=script)
    @settings(max_examples=200, deadline=None)
    def test_items_sorted_and_deduplicated(self, pushes):
        sig, oracle, top = pushed(pushes)
        items = sig.events()
        assert items == oracle.items()
        times = [t for t, _ in items]
        assert times == sorted(set(times))
        assert len(sig) == len(times)
        assert top == [times[-1] if times else MU_MIN]

    @given(
        pushes=script,
        t0=st.integers(min_value=-(10**4), max_value=10**4),
        span=st.integers(min_value=0, max_value=10**4),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_items_match_oracle(self, pushes, t0, span):
        sig, oracle, _ = pushed(pushes)
        assert sig.events_in(t0, t0 + span) == oracle.range_items(t0, t0 + span)

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
        assert sig.events_in(MU_MIN - 10, MU_MAX + 10) == [(MU_MIN, 1), (MU_MAX, 2)]


class TestIntegerTimes:
    @given(pushes=script, bad=st.one_of(st.floats(allow_nan=True), st.booleans()))
    @settings(max_examples=100, deadline=None)
    def test_non_int_times_raise_and_leave_store(self, pushes, bad):
        sig, oracle, _ = pushed(pushes)
        with pytest.raises(SignalError):
            sig.push(1, bad)
        with pytest.raises(SignalError):
            sig.pull(bad)
        with pytest.raises(SignalError):
            sig.events_in(bad, 10)
        with pytest.raises(SignalError):
            sig.events_in(-10, bad)
        assert sig.events() == oracle.items()
