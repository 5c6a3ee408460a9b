"""The sharing service: the paper's "specific modes of information sharing".

One :class:`SharingService` per kernel owns the state and the protocol of
every sharing abstraction and implements them with real (cost-bearing,
simulated) messages:

* the **init broadcast** that replicates read-only variables and shared
  abstraction declarations and opens the per-PE startup gates,
* **read-only** variables (set in the main chare's constructor) and
  **write-once** variables (one broadcast each),
* **accumulators** — per-PE local partials (zero messages on update) with a
  tree gather on collection,
* **monotonic variables** — per-PE cached best value, with *eager* (tree
  flood on improvement), *lazy* (batched, interval-delayed tree flood) or
  *off* propagation (experiment T7's knob),
* **distributed tables** — hash-partitioned shards with insert/find/delete
  ops and reply-to-entry continuations,
* BOC **reductions and barriers** — the tree fold an accumulator collect
  shares — and the BOC plumbing: branch construction and spanning-tree
  broadcast.

The kernel keeps scheduling, placement and routing; ``Chare`` calls this
service directly.  Naming: all ops are small strings routed via SVC
envelopes; see :class:`repro.core.services.Service`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.handles import BocHandle, ChareHandle
from repro.core.services import Service
from repro.core.tree import Span
from repro.sharing.ops import check_better, combine, combiner, improves
from repro.util.errors import SharingError
from repro.util.hashing import stable_hash

__all__ = ["SharingService"]

#: Sentinel for "this PE has no contributions yet".  The accumulator's
#: initial value lives on PE 0 only, so it participates in the collected
#: result exactly once regardless of PE count (Charm semantics).
_EMPTY = object()


def _skip_empty(fn):
    """``fn`` lifted over the _EMPTY sentinel (a collect's tree fold).

    Built once per declaration; ``accumulate`` folds without it.
    """

    def fold(a, b):
        if a is _EMPTY:
            return b
        if b is _EMPTY:
            return a
        return fn(a, b)

    return fold


# Work units charged by service handlers (bookkeeping costs, roughly a few
# dozen instructions each on the reference node).
_HANDLER_WORK = 5.0
_TABLE_WORK = 20.0


class SharingService(Service):
    """Per-PE state and message handlers for the sharing abstractions."""

    name = "share"

    def bind(self, kernel) -> None:
        super().bind(kernel)
        # Read-only and write-once values: one host copy each (the
        # simulation shares host memory); the broadcasts model the
        # replication cost and sequencing.
        self._readonly: Dict[str, Any] = {}
        self._writeonce: Dict[str, Any] = {}
        self._writeonce_avail: Dict[Tuple[str, int], bool] = {}
        # name -> the span its one broadcast runs over (taken at the root).
        self._writeonce_spans: Dict[str, Span] = {}
        # (boc_id, tag, pe) -> the fold state of that PE's subtree, for BOC
        # reductions and barriers (boc_id >= 0) and accumulator collects
        # (boc_id -1); dropped as the subtree completes.
        self._reductions: Dict[Tuple[int, str, int], dict] = {}
        # (boc_id, tag, pe) of every branch contribution so far: a branch
        # contributes once per tag.
        self._contributed: set[Tuple[int, str, int]] = set()
        # Declarations (global specs, distributed by the init broadcast).
        self._acc_spec: Dict[str, Tuple[Any, Any]] = {}          # name -> (initial, op)
        self._mono_spec: Dict[str, Tuple[Any, Any, str]] = {}    # name -> (initial, better, prop)
        self._tables: set[str] = set()
        # name -> (combiner, combiner lifted over _EMPTY), resolved once at
        # declaration.  Kept apart from _acc_spec, which is what the init
        # broadcast carries (and is sized by).
        self._acc_fn: Dict[str, Tuple[Any, Any]] = {}
        # Per-PE state.
        self._acc: Dict[Tuple[str, int], Any] = {}
        self._mono: Dict[Tuple[str, int], Any] = {}
        self._mono_dirty: Dict[Tuple[str, int], bool] = {}
        self._shards: Dict[Tuple[str, int], dict] = {}
        self._collect_id = 0
        # Accumulator collects: the span each gather runs over, keyed by
        # its reduction tag.  Taken when the request reaches PE 0, dropped
        # when the fold completes.
        self._collect_snap: Dict[str, Span] = {}
        self.mono_updates_sent = 0
        self.mono_updates_applied = 0

    # ------------------------------------------------------------ declarations
    def _require_main_ctor(self, what: str) -> None:
        if not self.kernel.in_main_ctor:
            raise SharingError(
                f"{what} must be declared in the main chare's constructor"
            )

    def broadcast_init(self) -> None:
        """Start the init broadcast at PE 0: every read-only value and
        declaration, down the machine's tree (see ``handle("init")``)."""
        decls = (dict(self._acc_spec), dict(self._mono_spec),
                 tuple(self._tables))
        self.send(0, 0, "init", (dict(self._readonly), decls))

    def declare_accumulator(self, name: str, initial: Any, op) -> None:
        self._require_main_ctor("accumulators")
        if name in self._acc_spec:
            raise SharingError(f"accumulator {name!r} already declared")
        fn = combiner(op)
        self._acc_fn[name] = (fn, _skip_empty(fn))
        self._acc_spec[name] = (initial, op)
        # Per-PE partials materialize on first touch (_acc_get); the
        # declared initial lives on PE 0 only, exactly once.
        self._acc[(name, 0)] = initial

    def declare_monotonic(self, name: str, initial: Any, better, propagation: str) -> None:
        self._require_main_ctor("monotonic variables")
        if name in self._mono_spec:
            raise SharingError(f"monotonic variable {name!r} already declared")
        if propagation not in ("eager", "lazy", "off"):
            raise SharingError(
                f"propagation must be eager/lazy/off, got {propagation!r}"
            )
        check_better(better)
        # Untouched PEs read the spec initial via _mono_get — no O(P) fill.
        self._mono_spec[name] = (initial, better, propagation)

    def declare_table(self, name: str) -> None:
        self._require_main_ctor("distributed tables")
        if name in self._tables:
            raise SharingError(f"table {name!r} already declared")
        self._tables.add(name)

    # ----------------------------------------------------- read-only / write-once
    def set_readonly(self, name: str, value: Any) -> None:
        self._require_main_ctor("read-only variables")
        if name in self._readonly:
            raise SharingError(f"read-only variable {name!r} already set")
        self._readonly[name] = value

    def readonly(self, name: str, pe: int) -> Any:
        # No per-PE availability check: the startup gate holds a PE's
        # application work until the init broadcast has reached it.
        try:
            return self._readonly[name]
        except KeyError:
            raise SharingError(f"unknown read-only variable {name!r}") from None

    def write_once(self, name: str, value: Any, pe: int) -> None:
        if name in self._writeonce:
            raise SharingError(f"write-once variable {name!r} written twice")
        self._writeonce[name] = value
        self._writeonce_avail[(name, pe)] = True
        self.send(pe, 0, "wonce_bcast", (name, value), counted=True)

    def get_writeonce(self, name: str, pe: int) -> Any:
        if not self._writeonce_avail.get((name, pe)):
            # A rank outside the broadcast's span holds the value as it
            # does read-only variables: replication is modeled free there.
            span = self._writeonce_spans.get(name)
            if span is None or pe in span:
                raise SharingError(
                    f"write-once variable {name!r} not yet replicated to "
                    f"PE {pe}"
                )
        return self._writeonce[name]

    # ------------------------------------------------------- lazy per-PE state
    def _acc_get(self, name: str, pe: int) -> Any:
        """A PE's accumulator partial (_EMPTY default; initial on PE 0)."""
        value = self._acc.get((name, pe), _EMPTY)
        if value is _EMPTY and pe == 0:
            return self._acc_spec[name][0]
        return value

    def _mono_get(self, name: str, pe: int) -> Any:
        """A PE's cached monotonic value (spec initial until touched)."""
        key = (name, pe)
        value = self._mono.get(key, _EMPTY)
        return self._mono_spec[name][0] if value is _EMPTY else value

    # ------------------------------------------------------------- accumulator
    def accumulate(self, name: str, value: Any, pe: int) -> None:
        # One frame per fold: this runs once or twice per entry method in
        # the tree and search apps.  A PE's first contribution replaces
        # _EMPTY; PE 0 is never _EMPTY (its slot holds the declared initial
        # from declaration on), so the initial is folded in exactly once.
        fns = self._acc_fn.get(name)
        if fns is None:
            raise SharingError(f"unknown accumulator {name!r}")
        key = (name, pe)
        acc = self._acc
        partial = acc.get(key, _EMPTY)
        acc[key] = value if partial is _EMPTY else fns[0](partial, value)

    def accumulator_partial(self, name: str, pe: int) -> Any:
        """This PE's partial, or the declared initial if it has none."""
        value = self._acc_get(name, pe)
        return self._acc_spec[name][0] if value is _EMPTY else value

    def collect_accumulator(
        self, name: str, target: ChareHandle, entry: str, from_pe: int
    ) -> None:
        if name not in self._acc_spec:
            raise SharingError(f"unknown accumulator {name!r}")
        self._collect_id += 1
        self.send(
            from_pe, 0, "acc_req", (name, self._collect_id, target, entry), counted=True
        )

    # --------------------------------------------------------------- monotonic
    def update_monotonic(self, name: str, value: Any, pe: int) -> None:
        spec = self._mono_spec.get(name)
        if spec is None:
            raise SharingError(f"unknown monotonic variable {name!r}")
        _, better, propagation = spec
        if not improves(better, value, self._mono_get(name, pe)):
            return
        self._mono[(name, pe)] = value
        self.mono_updates_applied += 1
        if propagation == "eager":
            self._flood(name, pe, exclude=None)
        elif propagation == "lazy":
            self._mark_dirty(name, pe)
        # "off": local only (the T7 ablation's broken-sharing arm).

    def read_monotonic(self, name: str, pe: int) -> Any:
        # _mono_get, inlined: the search apps read the bound once or twice
        # per entry method.
        if name not in self._mono_spec:
            raise SharingError(f"unknown monotonic variable {name!r}")
        value = self._mono.get((name, pe), _EMPTY)
        return self._mono_spec[name][0] if value is _EMPTY else value

    def _neighbors_in_tree(self, pe: int):
        # Each hop floods over the span as it is *now*.  The improves()
        # guard makes relaying idempotent, so floods terminate even as a
        # sparse machine's touched set grows; PEs materialized after a
        # flood pick the value up from later improvements (same sampling
        # caveat as sparse quiescence).
        span = self.kernel.span()
        out = span.children(pe)
        parent = span.parent(pe)
        if parent is not None:
            out.append(parent)
        return out

    def _flood(self, name: str, pe: int, exclude: Optional[int]) -> None:
        value = self._mono_get(name, pe)
        for nb in self._neighbors_in_tree(pe):
            if nb != exclude:
                self.mono_updates_sent += 1
                self.send(pe, nb, "mono_update", (name, value, pe), counted=True)

    def _mark_dirty(self, name: str, pe: int) -> None:
        key = (name, pe)
        if self._mono_dirty.get(key):
            return
        self._mono_dirty[key] = True
        engine = self.kernel.engine
        engine.schedule_call(engine._now + self.kernel.lazy_interval,
                             self._lazy_flush, key)

    def _lazy_flush(self, key: Tuple[str, int]) -> None:
        self._mono_dirty[key] = False
        name, pe = key
        self._flood(name, pe, exclude=None)

    # ------------------------------------------------------------------ tables
    def table_home(self, table: str, key: Any) -> int:
        if table not in self._tables:
            raise SharingError(f"unknown table {table!r}")
        return stable_hash((table, key)) % self.kernel.num_pes

    def table_insert(self, table, key, value, reply_to, reply_entry, pe) -> None:
        home = self.table_home(table, key)
        self.send(
            pe, home, "tbl_insert", (table, key, value, reply_to, reply_entry),
            counted=True,
        )

    def table_find(self, table, key, reply_to, reply_entry, pe) -> None:
        home = self.table_home(table, key)
        self.send(
            pe, home, "tbl_find", (table, key, reply_to, reply_entry), counted=True
        )

    def table_delete(self, table, key, pe) -> None:
        home = self.table_home(table, key)
        self.send(pe, home, "tbl_delete", (table, key), counted=True)

    def shard(self, table: str, pe: int) -> dict:
        """Direct (test/diagnostic) view of a table shard."""
        if table not in self._tables:
            raise KeyError((table, pe))
        return self._shards.setdefault((table, pe), {})

    # -------------------------------------------------- reductions and barriers
    def contribute(
        self,
        boc: BocHandle,
        tag: str,
        value: Any,
        op,
        target: Optional[ChareHandle],
        entry: str,
        pe: int,
        mode: str = "deliver",
    ) -> None:
        """Fold the branch on ``pe``'s one contribution to reduction ``tag``.

        The root delivers ``entry(tag, total)`` to ``target``; in
        ``"barrier"`` mode it broadcasts ``entry(tag, count)`` to every
        branch instead.
        """
        boc_id = boc.boc_id
        key = (boc_id, tag, pe)
        if key in self._contributed:
            raise SharingError(
                f"the branch of {boc} on PE {pe} contributed to {tag!r} twice"
            )
        self._contributed.add(key)
        self._reduce_fold(boc_id, tag, pe, value, op, target, entry, mode,
                          span=self.kernel.boc_span(boc_id))

    def _reduce_fold(
        self,
        boc_id: int,
        tag: str,
        pe: int,
        value: Any,
        op,
        target: Optional[ChareHandle],
        entry: str,
        mode: str = "deliver",
        *,
        span: Span,
    ) -> bool:
        """Fold one contribution up ``span``; True when its root completed.

        ``span`` is the BOC's write-once span, or the per-collect snapshot
        of an accumulator gather.  A PE's state wants its own contribution
        plus one partial per span child.
        """
        key = (boc_id, tag, pe)
        st = self._reductions.get(key)
        if st is None:
            st = self._reductions[key] = {
                "value": None,
                "have": 0,
                "need": 1 + len(span.children(pe)),
                "op": None,
                "target": None,
                "entry": None,
                "mode": "deliver",
            }
        if op is not None:
            st["op"] = op
        if target is not None:
            st["target"] = target
        if entry:
            st["entry"] = entry
        if mode != "deliver":
            st["mode"] = mode
        st["value"] = value if st["have"] == 0 else combine(st["op"], st["value"], value)
        st["have"] += 1
        if st["have"] < st["need"]:
            return False
        # Subtree complete: push up, or complete at the root.
        del self._reductions[key]
        parent = span.parent(pe)
        if parent is not None:
            self.send(
                pe, parent, "red_up",
                (boc_id, tag, st["value"], st["op"], st["target"], st["entry"],
                 st["mode"]),
                counted=True,
            )
            return False
        if st["mode"] == "barrier":
            # Release: every branch gets entry(tag, count) via the tree.
            self.send(pe, 0, "boc_bcast",
                      (boc_id, st["entry"], (tag, st["value"])), counted=True)
            return True
        self.kernel.send_app_from_service(pe, st["target"], st["entry"],
                                          (tag, st["value"]))
        return True

    # ----------------------------------------------------------------- handlers
    def handle(self, pe: int, op: str, args: tuple) -> None:
        kernel = self.kernel
        kernel.api_charge(_HANDLER_WORK)

        if op == "init":
            # Values are already in our dicts (the simulation shares host
            # memory); the broadcast models the replication *cost* and
            # sequencing.
            for child in kernel.tree.children(pe):
                self.send(pe, child, "init", args, counted=False)
            # Work queued behind the gate becomes servable as this (system)
            # execution finishes: Kernel._finish serves it.
            kernel.pes[pe].gated = False

        elif op == "boc_create":
            boc_id, boc_cls, cargs = args
            # First arrival is at the tree root (PE 0), which takes the
            # BOC's write-once span: branches materialize on exactly these
            # ranks, and every later broadcast/reduction for the BOC walks
            # the same tree.
            for child in kernel.boc_span(boc_id).children(pe):
                self.send(pe, child, "boc_create", args, counted=True)
            kernel.construct_branch(boc_id, boc_cls, cargs, pe)

        elif op in ("boc_bcast", "bcast_down"):
            boc_id, entry, bargs = args
            for child in kernel.boc_span(boc_id).children(pe):
                self.send(pe, child, "bcast_down", args, counted=True)
            kernel.deliver_local_boc(boc_id, pe, entry, bargs)

        elif op == "red_up":
            boc_id, tag, value, rop, target, entry, mode = args
            # boc_id -1 marks accumulator collects (per-collect span);
            # real BOC reductions fold over the BOC's write-once span.
            span = (self._collect_snap[tag] if boc_id == -1
                    else kernel.boc_span(boc_id))
            done = self._reduce_fold(boc_id, tag, pe, value, rop, target,
                                     entry, mode, span=span)
            if done and boc_id == -1:
                del self._collect_snap[tag]

        elif op == "wonce_bcast":
            name, value = args
            # One broadcast per name (it is write-once), over the span
            # taken as the message reaches the root.
            span = self._writeonce_spans.get(name)
            if span is None:
                span = self._writeonce_spans[name] = kernel.span()
            self._writeonce.setdefault(name, value)
            self._writeonce_avail[(name, pe)] = True
            for child in span.children(pe):
                self.send(pe, child, "wonce_bcast", args, counted=True)

        elif op == "acc_req":
            name, cid, target, entry = args
            tag = f"acc:{name}:{cid}"
            # The request reaches PE 0 first, which takes the gather's
            # span; ranks outside it (untouched, on a sparse machine) hold
            # _EMPTY and contribute nothing by construction.
            span = self._collect_snap.get(tag)
            if span is None:
                span = self._collect_snap[tag] = kernel.span()
            for child in span.children(pe):
                self.send(pe, child, "acc_req", args, counted=True)
            done = self._reduce_fold(
                -1, tag, pe, self._acc_get(name, pe),
                self._acc_fn[name][1], target, entry, span=span,
            )
            if done:
                del self._collect_snap[tag]

        elif op == "mono_update":
            name, value, src = args
            _, better, _prop = self._mono_spec[name]
            if improves(better, value, self._mono_get(name, pe)):
                self._mono[(name, pe)] = value
                self.mono_updates_applied += 1
                self._flood(name, pe, exclude=src)

        elif op == "tbl_insert":
            kernel.api_charge(_TABLE_WORK)
            table, key, value, reply_to, reply_entry = args
            self._shards.setdefault((table, pe), {})[key] = value
            if reply_to is not None:
                kernel.send_app_from_service(pe, reply_to, reply_entry, (key,))

        elif op == "tbl_find":
            kernel.api_charge(_TABLE_WORK)
            table, key, reply_to, reply_entry = args
            value = self._shards.get((table, pe), {}).get(key)
            kernel.send_app_from_service(pe, reply_to, reply_entry, (key, value))

        elif op == "tbl_delete":
            kernel.api_charge(_TABLE_WORK)
            table, key = args
            shard = self._shards.get((table, pe))
            if shard is not None:
                shard.pop(key, None)

        else:  # pragma: no cover - defensive
            raise SharingError(f"unknown sharing op {op!r}")
