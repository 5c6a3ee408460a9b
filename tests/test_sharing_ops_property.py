"""Property tests for the sharing operators and accumulator algebra."""

from hypothesis import given, strategies as st

from repro.sharing.ops import combine, improves

ints = st.integers(min_value=-10**6, max_value=10**6)
named_ops = st.sampled_from(["sum", "prod", "max", "min"])
small_ints = st.integers(min_value=-50, max_value=50)


@given(named_ops, ints, ints)
def test_named_ops_commutative(op, a, b):
    assert combine(op, a, b) == combine(op, b, a)


@given(named_ops, small_ints, small_ints, small_ints)
def test_named_ops_associative(op, a, b, c):
    assert combine(op, combine(op, a, b), c) == combine(op, a, combine(op, b, c))


@given(st.sampled_from(["min", "max"]), ints, ints)
def test_improves_is_strict(order, a, b):
    # Never both directions, never improves over itself.
    assert not (improves(order, a, b) and improves(order, b, a))
    assert not improves(order, a, a)


@given(st.sampled_from(["min", "max"]), ints, ints, ints)
def test_improves_transitive(order, a, b, c):
    if improves(order, a, b) and improves(order, b, c):
        assert improves(order, a, c)


@given(st.lists(ints, min_size=1, max_size=30), st.integers(0, 7))
def test_accumulator_equals_fold_any_distribution(values, seed):
    """Distributing updates across PEs never changes the collected total."""
    from repro import Chare, Kernel, entry, make_machine

    class Worker(Chare):
        def __init__(self, v):
            self.accumulate("acc", v)

    class Main(Chare):
        def __init__(self, vals):
            self.new_accumulator("acc", 0, "sum")
            for v in vals:
                self.create(Worker, v)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.collect_accumulator("acc", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.exit(total)

    kernel = Kernel(make_machine("ideal", 4), seed=seed, balancer="random")
    assert kernel.run(Main, tuple(values)).result == sum(values)


def _xor(a, b):
    return a ^ b


@given(
    st.sampled_from(["sum", "prod", "max", "min", _xor]),
    small_ints,
    st.lists(st.tuples(st.integers(0, 5), small_ints), min_size=1, max_size=30),
)
def test_flat_accumulate_equals_fold_through_combine(op, initial, contributions):
    """``accumulate`` folds in one frame; the reference is the same fold
    spelled through ``combine``: per PE over that PE's contributions, and
    collected over all of them with the declared initial counted once."""
    from functools import reduce

    from repro import Chare, Kernel, entry, make_machine

    class Worker(Chare):
        def __init__(self, v):
            self.accumulate("acc", v)

    class Main(Chare):
        def __init__(self, contribs):
            self.new_accumulator("acc", initial, op)
            for pe, v in contribs:
                self.create(Worker, v, pe=pe)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.collect_accumulator("acc", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.exit(total)

    def fold(values, start):
        return reduce(lambda a, b: combine(op, a, b), values, start)

    result = Kernel(make_machine("symmetry", 6)).run(Main, tuple(contributions))
    assert result.result == fold([v for _pe, v in contributions], initial)
    sharing = result.kernel.sharing
    for pe in range(6):
        mine = [v for p, v in contributions if p == pe]
        if pe == 0:
            expected = fold(mine, initial)
        else:
            # Untouched PEs hold no partial of their own; the accessor
            # then answers with the declared initial.
            expected = fold(mine[1:], mine[0]) if mine else initial
        assert sharing.accumulator_partial("acc", pe) == expected


@given(st.lists(ints, min_size=1, max_size=25), st.integers(0, 3))
def test_monotonic_converges_to_global_min(values, seed):
    from repro import Chare, Kernel, entry, make_machine

    class Worker(Chare):
        def __init__(self, v):
            self.update_monotonic("m", v)

    class Main(Chare):
        def __init__(self, vals):
            self.new_monotonic("m", 10**9, "min", "eager")
            for v in vals:
                self.create(Worker, v)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.exit(self.read_monotonic("m"))

    kernel = Kernel(make_machine("ideal", 4), seed=seed)
    assert kernel.run(Main, tuple(values)).result == min(values)
