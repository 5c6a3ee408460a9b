"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.backend import BatchBackend, make_backend
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, SchedulingError


def test_runs_in_time_order():
    eng = Engine()
    fired = []
    eng.schedule_call(3.0, fired.append, 3)
    eng.schedule_call(1.0, fired.append, 1)
    eng.schedule_call(2.0, fired.append, 2)
    assert eng.run() == (3, False)
    assert fired == [1, 2, 3]
    assert eng.now == 3.0


def test_equal_times_fire_in_schedule_order():
    eng = Engine()
    fired = []
    for i in range(10):
        eng.schedule_call(1.0, fired.append, i)
    eng.run()
    assert fired == list(range(10))


def test_schedule_in_past_raises():
    eng = Engine()
    eng.schedule_call(1.0, lambda _: None, None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule_call(0.5, lambda _: None, None)


def test_events_can_schedule_at_current_time():
    eng = Engine()
    fired = []
    eng.schedule_call(1.0, lambda _: eng.schedule_call(1.0, fired.append, "nested"),
                      None)
    eng.run()
    assert fired == ["nested"]
    assert eng.now == 1.0


def test_run_max_events_budget():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule_call(float(i), fired.append, i)
    assert eng.run(max_events=2) == (2, True)
    assert fired == [0, 1]
    assert len(eng._heap) == 3
    assert eng.run() == (3, False)
    assert fired == [0, 1, 2, 3, 4]


# The budget and stop semantics of run(), pinned on the engine the ledger's
# heap probe builds through make_backend("heap").
@pytest.mark.parametrize("backend", ["heap"])
def test_drive_budget_and_truncation(backend):
    eng = make_backend(backend)
    order = []
    for i in range(5):
        eng.schedule_call(float(i // 2), order.append, i)
    fired, truncated = eng.run(max_events=3)
    assert (fired, truncated) == (3, True)
    assert order == [0, 1, 2]
    fired, truncated = eng.run()
    assert (fired, truncated) == (2, False)
    assert order == [0, 1, 2, 3, 4]
    # Budget landing exactly on the drain still reports truncation (the
    # budget is checked before the heap is found empty).
    eng2 = make_backend(backend)
    eng2.schedule_call(0.0, order.append, 9)
    assert eng2.run(max_events=1) == (1, True)


@pytest.mark.parametrize("backend", ["heap"])
def test_drive_request_stop_wins_over_budget(backend):
    eng = make_backend(backend)
    order = []

    def stopper(tag):
        order.append(tag)
        eng.request_stop()

    eng.schedule_call(0.0, order.append, "a")
    eng.schedule_call(1.0, stopper, "stop")
    eng.schedule_call(2.0, order.append, "never")
    fired, truncated = eng.run(max_events=2)
    assert order == ["a", "stop"]
    assert (fired, truncated) == (2, False)  # stop, not truncation
    assert len(eng._heap) == 1


@pytest.mark.parametrize("backend", ["heap"])
def test_drive_truncation_at_cohort_boundary_keeps_clock(backend):
    # A budget expiring exactly at a timestamp boundary leaves the clock at
    # the last fired event, not at the unfired one after it.
    eng = make_backend(backend)
    order = []
    for i in range(3):
        eng.schedule_call(1.0, order.append, i)
    for i in range(3, 5):
        eng.schedule_call(2.0, order.append, i)
    fired, truncated = eng.run(max_events=3)
    assert (fired, truncated) == (3, True)
    assert order == [0, 1, 2]
    assert eng.now == 1.0  # must not leak into the unfired cohort
    fired, truncated = eng.run()
    assert (fired, truncated) == (2, False)
    assert order == [0, 1, 2, 3, 4]
    assert eng.now == 2.0


@pytest.mark.parametrize("backend", ["heap"])
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
    fired, truncated = eng.run()
    assert (fired, truncated) == (2, False)
    assert order == ["a", "stop"]
    assert eng.now == 1.0
    assert len(eng._heap) == 3
    # Resume: the remainder fires exactly once, in schedule order.
    fired, truncated = eng.run()
    assert (fired, truncated) == (3, False)
    assert order == ["a", "stop", "b", "c", "d"]
    assert eng.now == 2.0
    assert len(eng._heap) == 0


@pytest.mark.parametrize("backend", ["heap"])
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
    assert eng.run(max_events=4) == (2, False)  # stop wins over budget
    assert order == ["a", "stop"]
    assert eng.run(max_events=2) == (2, True)
    assert order == ["a", "stop", "b", "c"]
    assert eng.now == 1.0  # boundary truncation: clock stays on the cohort
    assert eng.run() == (1, False)
    assert order == ["a", "stop", "b", "c", "d"]
    assert eng.now == 2.0


def test_events_fired_counter():
    eng = Engine()
    seen = []
    for i in range(7):
        eng.schedule_call(float(i), lambda _: seen.append(eng.events_fired), None)
    eng.run()
    assert eng.events_fired == 7
    # Current mid-run: telemetry snapshots read it from inside callbacks.
    assert seen == [1, 2, 3, 4, 5, 6, 7]


def test_run_not_reentrant():
    eng = Engine()
    errors = []

    def reenter(_):
        try:
            eng.run()
        except SchedulingError as exc:
            errors.append(exc)

    eng.schedule_call(1.0, reenter, None)
    eng.run()
    assert len(errors) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=60))
def test_property_fires_in_nondecreasing_time(times):
    eng = Engine()
    observed = []
    for t in times:
        eng.schedule_call(t, lambda _: observed.append(eng.now), None)
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
        eng.schedule_call(
            base,
            lambda delta: eng.schedule_call(
                eng.now + delta, lambda _: hits.append(eng.now), None
            ),
            delta,
        )
    eng.run()
    assert len(hits) == len(pairs)
    assert hits == sorted(hits)


# ------------------------------------------------- backends (repro.sim.backend)
# The kernel runs on Engine; BatchBackend stays only for the performance
# ledger's frozen sim.batch_events_per_s probe, so its firing order is
# pinned here against the engine's.
def test_make_backend_registry():
    assert type(make_backend("heap")) is Engine
    assert type(make_backend("batch")) is BatchBackend
    with pytest.raises(ConfigurationError):
        make_backend("wheel")


def test_batch_fires_in_time_then_seq_order():
    eng = BatchBackend()
    order = []
    eng.schedule_call(2.0, order.append, "c")
    eng.schedule_call(1.0, order.append, "a")
    eng.schedule_call(2.0, order.append, "d")
    eng.schedule_call(1.0, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c", "d"]
    assert eng.events_fired == 4


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


def test_batch_schedule_past_raises():
    eng = BatchBackend()
    eng.schedule_call(1.0, lambda _: None, None)
    eng.run()
    with pytest.raises(SchedulingError):
        eng.schedule_call(0.5, lambda _: None, None)


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2)), max_size=80))
def test_parity_with_batch_backend(schedule):
    """Same firing order on any schedule.  A drawn event may schedule one
    more from inside its callback: at its own time (``spawn`` 1, joining
    the timestamp being drained) or half a second later (``spawn`` 2)."""

    def fire(eng):
        log = []

        def callback(arg):
            tag, time, spawn = arg
            log.append(tag)
            if spawn:
                eng.schedule_call(time + (spawn - 1) * 0.5, callback,
                                  (-1 - tag, time, 0))

        for i, (t, spawn) in enumerate(schedule):
            eng.schedule_call(float(t), callback, (i, float(t), spawn))
        eng.run()
        return log, eng.events_fired

    heap, batch = fire(Engine()), fire(BatchBackend())
    assert heap == batch
    assert heap[1] == len(schedule) + sum(1 for _, s in schedule if s)
