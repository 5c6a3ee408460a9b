"""Unit tests for envelopes, the rank tree, and per-PE scheduler state."""

from repro.core.handles import BocHandle, ChareHandle
from repro.core.messages import Envelope, HEADER_BYTES, Kind
from repro.core.pe import PEState
from repro.core.tree import subtree_size, tree_children, tree_parent


# ---------------------------------------------------------------- envelopes
def test_envelope_size_includes_header_and_payload():
    env = Envelope(kind=Kind.APP, src_pe=0, dst_pe=1, entry="go", args=(1, 2.0))
    assert env.nbytes == HEADER_BYTES + 4 + 16


def test_envelope_size_cached():
    env = Envelope(kind=Kind.APP, src_pe=0, dst_pe=1, entry="go", args=("x",))
    first = env.nbytes
    assert env.nbytes == first


def test_seed_size_includes_class_name():
    class Worker:
        pass

    env = Envelope(
        kind=Kind.SEED, src_pe=0, dst_pe=1, entry="__init__", chare_cls=Worker
    )
    assert env.nbytes == HEADER_BYTES + 4 + len("Worker")


def test_forwarded_seed_bumps_hops_and_suppresses_count():
    env = Envelope(
        kind=Kind.SEED, src_pe=0, dst_pe=3, entry="__init__",
        handle=ChareHandle(5), hops=1,
    )
    env.uid = 7  # pretend a kernel already stamped the first leg
    fwd = env.forwarded(6)
    assert (fwd.src_pe, fwd.dst_pe, fwd.hops) == (3, 6, 2)
    assert fwd.suppress_sent_count
    assert fwd.uid is None  # fresh leg: the kernel stamps it at delivery
    assert fwd.handle == env.handle
    assert not env.suppress_sent_count


def test_forwarded_slot_copy_equals_dataclass_replace():
    """``forwarded`` writes every slot by hand; ``dataclasses.replace`` is
    the reference it must match on all 18, for envelopes of every kind."""
    import dataclasses

    from repro.util.rng import RngStream

    class Worker:
        pass

    slots = [f.name for f in dataclasses.fields(Envelope)]
    assert len(slots) == 18 and set(slots) == set(Envelope.__slots__)
    rng = RngStream(15, "forwarded")
    for kind in (Kind.APP, Kind.SEED, Kind.BOC, Kind.SVC):
        for _ in range(25):
            prio = rng.choice((None, rng.randint(0, 99)))
            env = Envelope(
                kind=kind,
                src_pe=rng.randint(0, 63),
                dst_pe=rng.randint(0, 63),
                entry=rng.choice(("__init__", "go", "reply")),
                args=tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 4))),
                handle=rng.choice((None, ChareHandle(rng.randint(0, 99)))),
                chare_cls=rng.choice((None, Worker)),
                hops=rng.randint(0, 5),
                boc=rng.choice((None, BocHandle(rng.randint(0, 9)))),
                service=rng.choice((None, "qd", "lb")),
                priority=prio,
                system=rng.choice((False, True)),
                counted=rng.choice((False, True)),
                fixed=rng.choice((False, True)),
                suppress_sent_count=rng.choice((False, True)),
                carried_load=rng.randint(0, 7),
                uid=rng.choice((None, rng.randint(0, 10 ** 6))),
            )
            if rng.random() < 0.5:
                env.nbytes  # populate the cached wire size
            new_dst = rng.randint(0, 63)
            expected = dataclasses.replace(
                env, src_pe=env.dst_pe, dst_pe=new_dst, hops=env.hops + 1,
                suppress_sent_count=True, uid=None, _size=env._size)
            fwd = env.forwarded(new_dst)
            for name in slots:
                assert getattr(fwd, name) == getattr(expected, name), name
            assert fwd.args is env.args and fwd is not env


def test_envelope_uid_is_kernel_assigned_not_global():
    """Construction must not draw from any global counter; the owning
    kernel allocates uids, so uid streams are reproducible run-to-run and
    unaffected by other kernels in the same process."""
    from repro import Kernel, entry, make_machine
    from repro.core.chare import Chare

    assert Envelope(kind=Kind.APP, src_pe=0, dst_pe=1, entry="go").uid is None

    class Main(Chare):
        def __init__(self):
            self.send(self.thishandle, "step", 0)

        @entry
        def step(self, i):
            if i >= 3:
                self.exit(i)
            else:
                self.send(self.thishandle, "step", i + 1)

    def uid_high_water():
        # Traced: uids are stamped only for an observer or a fault layer.
        kernel = Kernel(make_machine("ideal", 2), trace_events="all")
        kernel.run(Main)
        return kernel._next_uid, [row[4] for row in kernel.events.rows]

    first = uid_high_water()
    assert first[0] > 1 and any(uid is not None for uid in first[1])
    # A second kernel in the same process sees the identical uid stream.
    assert uid_high_water() == first


def test_untraced_fault_free_run_stamps_no_uid():
    """With no observer and no fault layer nothing reads a uid or a
    piggybacked load, so no envelope carries either."""
    from repro import Kernel, make_machine
    from repro.apps.fib import FibMain

    seen = []
    kernel = Kernel(make_machine("ipsc2", 8), balancer="random")
    deliver = kernel._deliver

    def spy(env, departure):
        deliver(env, departure)
        seen.append((env.uid, env.carried_load))

    kernel._deliver = spy
    result = kernel.run(FibMain, 12, 4)
    assert result.result == 144 and len(seen) > 100
    assert kernel._next_uid == 1
    assert set(seen) == {(None, 0)}


def test_envelope_repr_mentions_kind():
    env = Envelope(kind=Kind.BOC, src_pe=0, dst_pe=1, entry="e", boc=BocHandle(2))
    assert "boc" in repr(env)


def test_handles_have_fixed_wire_size():
    assert ChareHandle(1).__wire_size__() == 12
    assert BocHandle(1).__wire_size__() == 12


def test_handles_are_slotted_and_pickle_round_trip():
    import pickle

    from repro.core.handles import mint_chare_handle

    for handle in (ChareHandle(7), mint_chare_handle(7), BocHandle(3)):
        assert not hasattr(handle, "__dict__")
        back = pickle.loads(pickle.dumps(handle))
        assert back == handle and hash(back) == hash(handle)
        assert type(back) is type(handle) and back is not handle
    assert mint_chare_handle(7) == ChareHandle(7)


# ---------------------------------------------------------------- rank tree
def test_tree_parent_child_inverse():
    n = 23
    for rank in range(1, n):
        assert rank in tree_children(tree_parent(rank), n)
    for rank in range(n):
        for child in tree_children(rank, n):
            assert tree_parent(child) == rank


def test_tree_root_has_no_parent():
    assert tree_parent(0) is None


def test_subtree_sizes_sum():
    n = 17
    kids = tree_children(0, n)
    assert 1 + sum(subtree_size(k, n) for k in kids) == n
    assert subtree_size(0, n) == n


# ----------------------------------------------------------------- PE state
def _env(kind=Kind.APP, system=False, priority=None, fixed=False):
    return Envelope(
        kind=kind, src_pe=0, dst_pe=0, entry="e",
        handle=ChareHandle(0), system=system, priority=priority, fixed=fixed,
    )


def test_pe_service_order_system_msgs_seeds():
    pe = PEState(0)
    pe.gated = False
    seed = _env(Kind.SEED)
    app = _env(Kind.APP)
    svc = _env(Kind.SVC, system=True)
    pe.enqueue(seed)
    pe.enqueue(app)
    pe.enqueue(svc)
    assert pe.next_envelope() is svc
    assert pe.next_envelope() is app
    assert pe.next_envelope() is seed
    assert pe.next_envelope() is None


def test_pe_gated_serves_only_system():
    pe = PEState(0)
    assert pe.gated
    pe.enqueue(_env(Kind.APP))
    assert pe.next_envelope() is None
    svc = _env(Kind.SVC, system=True)
    pe.enqueue(svc)
    assert pe.next_envelope() is svc
    assert pe.next_envelope() is None
    pe.gated = False
    assert pe.next_envelope() is not None


def test_pe_priority_strategy_orders_both_lanes():
    pe = PEState(0, strategy_name="prio")
    pe.gated = False
    lo = _env(Kind.SEED, priority=10)
    hi = _env(Kind.SEED, priority=1)
    pe.enqueue(lo)
    pe.enqueue(hi)
    assert pe.next_envelope() is hi
    assert pe.next_envelope() is lo


def test_pe_steal_seed_only_touches_seed_pool():
    pe = PEState(0)
    pe.gated = False
    app = _env(Kind.APP)
    seed = _env(Kind.SEED)
    pe.enqueue(app)
    assert pe.steal_seed() is None
    pe.enqueue(seed)
    assert pe.steal_seed() is seed
    assert pe.next_envelope() is app


def test_pe_load_counts_queues_and_busy():
    pe = PEState(0)
    pe.gated = False
    assert pe.load == 0
    pe.enqueue(_env(Kind.APP))
    pe.enqueue(_env(Kind.SEED))
    pe.enqueue(_env(Kind.SVC, system=True))  # system lane not load
    assert pe.load == 2
    pe.busy = True
    assert pe.load == 3
    assert pe.has_work()


# ------------------------------------------------- sized when built (PR 16)
class _Record:
    def __wire_size__(self):
        return 40


def _draw_payload(rng, depth=0):
    """One drawn value from the payload vocabulary the runtime allows."""
    import numpy as np

    kinds = ["int", "bigint", "float", "ascii", "text", "none", "bool",
             "handle", "array", "npscalar", "record"]
    if depth < 3:
        kinds += ["tuple", "list", "dict", "tuple", "list"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-10 ** 6, 10 ** 6)
    if kind == "bigint":
        return (1 << rng.randint(64, 200)) + rng.randint(0, 99)
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "ascii":
        return "".join(rng.choice("abc:_09 ") for _ in range(rng.randint(0, 12)))
    if kind == "text":
        return "".join(rng.choice("aé∑𝄞z") for _ in range(rng.randint(1, 8)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.choice((False, True))
    if kind == "handle":
        return rng.choice((ChareHandle(rng.randint(0, 99)),
                           BocHandle(rng.randint(0, 9))))
    if kind == "array":
        return np.zeros(rng.randint(0, 9), dtype=rng.choice((np.float64, np.int32)))
    if kind == "npscalar":
        return rng.choice((np.float32(1.5), np.int64(7), np.bool_(True)))
    if kind == "record":
        return _Record()
    items = [_draw_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == "tuple":
        return tuple(items)
    if kind == "list":
        return items
    return {f"k{i}": v for i, v in enumerate(items)}


def test_factory_envelopes_are_sized_when_built():
    """Every factory fills ``_size`` with exactly what the dataclass
    constructor's lazy ``nbytes`` computes, and the fast paths of
    ``payload_nbytes`` agree with the full isinstance chain."""
    from repro.util.rng import RngStream
    from repro.util.sizing import _general_nbytes, payload_nbytes

    class Worker:
        pass

    rng = RngStream(16, "sized-when-built")
    h = ChareHandle(3)
    for _ in range(240):
        args = tuple(_draw_payload(rng) for _ in range(rng.randint(0, 5)))
        for x in args + (args, list(args)):
            assert payload_nbytes(x) == _general_nbytes(x)
        size = HEADER_BYTES + payload_nbytes(args)
        app = Envelope.make_app(0, 1, "go", args, h)
        seed = Envelope.make_seed(0, 1, args, h, Worker)
        svc = Envelope.make_svc(0, 1, "op", args, "share", counted=True)
        assert app._size == svc._size == size
        assert seed._size == size + len("Worker")
        assert seed.forwarded(2)._size == seed._size
        lazy = [
            Envelope(kind=Kind.APP, src_pe=0, dst_pe=1, entry="go", args=args,
                     handle=h),
            Envelope(kind=Kind.SEED, src_pe=0, dst_pe=1, entry="__init__",
                     args=args, handle=h, chare_cls=Worker),
            Envelope(kind=Kind.SVC, src_pe=0, dst_pe=1, entry="op", args=args,
                     service="share", system=True),
        ]
        assert all(env._size is None for env in lazy)
        assert [env.nbytes for env in lazy] == [app._size, seed._size, svc._size]
        assert [env.nbytes for env in (app, seed, svc)] == [
            app._size, seed._size, svc._size]


def test_payload_is_charged_at_its_size_when_sent():
    """The contract: a payload is marshalled when it is sent.  Growing a
    list after ``send`` (still inside the sending entry) does not change
    what the network is charged; growing it before does."""
    from repro import Chare, Kernel, entry, make_machine

    class Main(Chare):
        def __init__(self, grow):
            buf = [1, 2, 3]
            if grow == "before":
                buf.extend(range(100))
            self.send(self.thishandle, "got", buf)
            if grow == "after":
                buf.extend(range(100))

        @entry
        def got(self, buf):
            self.exit(len(buf))

    def run(grow):
        result = Kernel(make_machine("ipsc2", 2)).run(Main, grow)
        return result.result, result.stats.total_bytes_sent

    n_never, bytes_never = run("never")
    n_after, bytes_after = run("after")
    n_before, bytes_before = run("before")
    # The simulation shares host memory, so the receiver sees the grown
    # list either way; only the charge is fixed at send time.
    assert (n_never, n_after, n_before) == (3, 103, 103)
    assert bytes_after == bytes_never
    assert bytes_before == bytes_never + 100 * 8
