"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.backend import BACKENDS, BatchBackend, HeapBackend, make_backend
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, SchedulingError
from repro.util.rng import RngStream


def test_runs_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule(3.0, lambda: fired.append(3))
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: fired.append(2))
    eng.run()
    assert fired == [1, 2, 3]
    assert eng.now == 3.0


def test_equal_times_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule(1.0, lambda i=i: fired.append(i))
    eng.run()
    assert fired == list(range(10))


def test_schedule_after_is_relative():
    eng = Engine()
    times = []
    eng.schedule(5.0, lambda: eng.schedule_after(2.5, lambda: times.append(eng.now)))
    eng.run()
    assert times == [7.5]


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule(0.5, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(SchedulingError):
        eng.schedule_after(-1.0, lambda: None)


def test_cancel_skips_event():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, lambda: fired.append("a"))
    eng.schedule(2.0, lambda: fired.append("b"))
    ev.cancel()
    eng.run()
    assert fired == ["b"]


def test_events_can_schedule_at_current_time():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: eng.schedule(1.0, lambda: fired.append("nested")))
    eng.run()
    assert fired == ["nested"]
    assert eng.now == 1.0


def test_run_until_horizon_inclusive():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: fired.append(2))
    eng.schedule(3.0, lambda: fired.append(3))
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.now == 2.0
    eng.run()
    assert fired == [1, 2, 3]


def test_run_max_events_budget():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule(float(i), lambda i=i: fired.append(i))
    eng.run(max_events=2)
    assert fired == [0, 1]
    eng.run()
    assert fired == [0, 1, 2, 3, 4]


def test_step_returns_false_when_drained():
    eng = Engine()
    assert eng.step() is False
    eng.schedule(1.0, lambda: None)
    assert eng.step() is True
    assert eng.step() is False


def test_events_fired_counter():
    eng = Engine()
    for i in range(7):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_fired == 7


def test_pending_excludes_cancelled():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev1.cancel()
    assert eng.pending == 1


def test_run_not_reentrant():
    eng = Engine()
    errors = []

    def reenter():
        try:
            eng.run()
        except SchedulingError as exc:
            errors.append(exc)

    eng.schedule(1.0, reenter)
    eng.run()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=60))
def test_property_fires_in_nondecreasing_time(times):
    eng = Engine()
    observed = []
    for t in times:
        eng.schedule(t, lambda: observed.append(eng.now))
    eng.run()
    assert observed == sorted(observed)
    assert len(observed) == len(times)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_property_chained_relative_delays_accumulate(pairs):
    eng = Engine()
    hits = []
    for base, delta in pairs:
        eng.schedule(
            base,
            lambda base=base, delta=delta: eng.schedule_after(
                delta, lambda: hits.append(eng.now)
            ),
        )
    eng.run()
    assert len(hits) == len(pairs)
    assert hits == sorted(hits)


# ------------------------------------------------- backends (repro.sim.backend)
# The kernel runs on HeapBackend only; BatchBackend stays as a standalone
# engine (the performance ledger's sim.batch_events_per_s probe builds it),
# so its queue semantics and its drive() parity with the heap are pinned
# here at engine level.
def test_make_backend_registry():
    assert BACKENDS == ("batch", "heap")
    assert isinstance(make_backend("heap"), HeapBackend)
    assert isinstance(make_backend("batch"), BatchBackend)
    with pytest.raises(ConfigurationError):
        make_backend("wheel")


def test_batch_fires_in_time_then_seq_order():
    eng = BatchBackend()
    order = []
    eng.schedule_call(2.0, order.append, "c")
    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(2.0, order.append, "d")
    eng.schedule(1.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c", "d"]
    assert eng.now == 2.0
    assert eng.events_fired == 4
    assert eng.pending == 0


def test_batch_same_time_events_scheduled_mid_cohort_join_in_seq_order():
    eng = BatchBackend()
    order = []

    def first(_):
        order.append("first")
        # Same-time events appended while the t=1 cohort is draining must
        # fire within this cohort, after already-queued entries.
        eng.schedule_call(1.0, order.append, "late")

    eng.schedule_call(1.0, first, None)
    eng.schedule_call(1.0, order.append, "second")
    eng.run()
    assert order == ["first", "second", "late"]


def test_batch_cancel_skips_and_counts():
    eng = BatchBackend()
    fired = []
    ev = eng.schedule(1.0, lambda: fired.append("dead"))
    eng.schedule_call(1.0, fired.append, "live")
    assert eng.pending == 2
    ev.cancel()
    assert ev.cancelled
    assert eng.pending == 1
    ev.cancel()  # idempotent
    assert eng.pending == 1
    eng.run()
    assert fired == ["live"]
    assert eng.events_fired == 1


def test_batch_schedule_past_raises():
    eng = BatchBackend()
    eng.schedule_call(1.0, lambda _: None, None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule_call(0.5, lambda _: None, None)
    with pytest.raises(SchedulingError):
        eng.schedule(0.5, lambda: None)
    with pytest.raises(SchedulingError):
        eng.schedule_after(-1.0, lambda: None)


def test_batch_schedule_calls_bulk_order_and_interleave():
    eng = BatchBackend()
    order = []
    eng.schedule_call(1.0, order.append, 0)
    eng.schedule_calls(1.0, order.append, [1, 2, 3])
    eng.schedule_call(1.0, order.append, 4)
    eng.schedule_calls(1.0, order.append, [5])
    eng.schedule_calls(2.0, order.append, [7, 8])
    eng.schedule_call(1.0, order.append, 6)
    eng.run()
    assert order == list(range(9))
    assert eng.events_fired == 9


def test_batch_step_and_run_interleave_with_suspended_cohort():
    eng = BatchBackend()
    order = []
    for tag in ("a", "b", "c"):
        eng.schedule_call(1.0, order.append, tag)
    eng.schedule_call(3.0, order.append, "z")
    # Drain one event, leaving the t=1 cohort suspended mid-bucket.
    eng.run(max_events=1)
    assert order == ["a"]
    # More same-time work arrives while suspended; it must queue behind
    # the existing cohort entries, not jump them.
    eng.schedule_call(1.0, order.append, "d")
    assert eng.step() is True
    eng.run()
    assert order == ["a", "b", "c", "d", "z"]
    assert eng.pending == 0


def test_batch_run_until_is_inclusive_and_advances_clock():
    eng = BatchBackend()
    order = []
    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(2.0, order.append, "b")
    eng.schedule_call(5.0, order.append, "c")
    eng.run(until=2.0)
    assert order == ["a", "b"]
    # Clock parks exactly at the horizon when the next event lies beyond.
    eng.run(until=3.0)
    assert eng.now == 3.0
    assert order == ["a", "b"]
    eng.run()
    assert order == ["a", "b", "c"]


def test_batch_exception_leaves_queue_consistent():
    eng = BatchBackend()
    order = []

    def boom(_):
        raise RuntimeError("boom")

    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(1.0, boom, None)
    eng.schedule_call(1.0, order.append, "b")
    with pytest.raises(RuntimeError):
        eng.run()
    # The raising event is consumed (like the heap engine's pop-then-fire)
    # and counters/cursor stay exact, so the drain can resume.
    assert order == ["a"]
    assert eng.events_fired == 2
    assert eng.pending == 1
    eng.run()
    assert order == ["a", "b"]
    assert eng.pending == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_drive_budget_and_truncation(backend):
    eng = make_backend(backend)
    order = []
    for i in range(5):
        eng.schedule_call(float(i // 2), order.append, i)
    fired, truncated = eng.drive(max_events=3)
    assert (fired, truncated) == (3, True)
    assert order == [0, 1, 2]
    fired, truncated = eng.drive()
    assert (fired, truncated) == (2, False)
    assert order == [0, 1, 2, 3, 4]
    # Budget landing exactly on the drain still reports truncation (the
    # historical kernel loop checked the budget before discovering the
    # queue was empty).
    eng2 = make_backend(backend)
    eng2.schedule_call(0.0, order.append, 9)
    assert eng2.drive(max_events=1) == (1, True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_drive_request_stop_wins_over_budget(backend):
    eng = make_backend(backend)
    order = []

    def stopper(tag):
        order.append(tag)
        eng.request_stop()

    eng.schedule_call(0.0, order.append, "a")
    eng.schedule_call(1.0, stopper, "stop")
    eng.schedule_call(2.0, order.append, "never")
    fired, truncated = eng.drive(max_events=2)
    assert order == ["a", "stop"]
    assert (fired, truncated) == (2, False)  # stop, not truncation
    assert eng.pending == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_drive_truncation_at_cohort_boundary_keeps_clock(backend):
    # Regression: the batch path used to advance ``now`` to the *next*
    # cohort's timestamp when the budget expired exactly at a cohort
    # boundary (the outer bucket loop set the clock before checking the
    # budget), so a truncated run's final time depended on the backend.
    eng = make_backend(backend)
    order = []
    for i in range(3):
        eng.schedule_call(1.0, order.append, i)
    for i in range(3, 5):
        eng.schedule_call(2.0, order.append, i)
    fired, truncated = eng.drive(max_events=3)
    assert (fired, truncated) == (3, True)
    assert order == [0, 1, 2]
    assert eng.now == 1.0  # must not leak into the unfired cohort
    fired, truncated = eng.drive()
    assert (fired, truncated) == (2, False)
    assert order == [0, 1, 2, 3, 4]
    assert eng.now == 2.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_request_stop_mid_cohort_preserves_remainder(backend):
    # A stop requested while a timestamp cohort is partially drained must
    # not lose or reorder the cohort's remaining events.
    eng = make_backend(backend)
    order = []

    def stopper(tag):
        order.append(tag)
        eng.request_stop()

    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(1.0, stopper, "stop")
    eng.schedule_call(1.0, order.append, "b")
    eng.schedule_call(1.0, order.append, "c")
    eng.schedule_call(2.0, order.append, "d")
    fired, truncated = eng.drive()
    assert (fired, truncated) == (2, False)
    assert order == ["a", "stop"]
    assert eng.now == 1.0
    assert eng.pending == 3
    # Resume: the remainder fires exactly once, in schedule order.
    fired, truncated = eng.drive()
    assert (fired, truncated) == (3, False)
    assert order == ["a", "stop", "b", "c", "d"]
    assert eng.now == 2.0
    assert eng.pending == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_budgeted_stop_then_boundary_truncation(backend):
    # Stop mid-cohort under a budget, then resume with a budget that runs
    # out exactly at the cohort boundary — the two edge cases composed.
    eng = make_backend(backend)
    order = []

    def stopper(tag):
        order.append(tag)
        eng.request_stop()

    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(1.0, stopper, "stop")
    eng.schedule_call(1.0, order.append, "b")
    eng.schedule_call(1.0, order.append, "c")
    eng.schedule_call(2.0, order.append, "d")
    assert eng.drive(max_events=4) == (2, False)  # stop wins over budget
    assert order == ["a", "stop"]
    assert eng.drive(max_events=2) == (2, True)
    assert order == ["a", "stop", "b", "c"]
    assert eng.now == 1.0  # boundary truncation: clock stays on the cohort
    assert eng.drive() == (1, False)
    assert order == ["a", "stop", "b", "c", "d"]
    assert eng.now == 2.0


def test_drive_parity_on_random_schedule():
    rng = RngStream(77, "drive-parity")
    times = [float(rng.randint(0, 9)) for _ in range(200)]
    logs = {}
    for backend in BACKENDS:
        eng = make_backend(backend)
        log = []
        for i, t in enumerate(times):
            eng.schedule_call(t, log.append, i)
        out = [eng.drive(max_events=37)]
        while eng.pending:
            out.append(eng.drive(max_events=37))
        logs[backend] = (log, out, eng.now, eng.events_fired)
    assert logs["heap"] == logs["batch"]
