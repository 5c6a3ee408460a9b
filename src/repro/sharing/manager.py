"""The sharing service: the paper's "specific modes of information sharing".

One :class:`SharingService` per kernel implements, with real (cost-bearing,
simulated) messages:

* the **init broadcast** that replicates read-only variables and shared
  abstraction declarations and opens the per-PE startup gates,
* **write-once** replication,
* **accumulators** — per-PE local partials (zero messages on update) with a
  tree gather on collection,
* **monotonic variables** — per-PE cached best value, with *eager* (tree
  flood on improvement), *lazy* (batched, interval-delayed tree flood) or
  *off* propagation (experiment T7's knob),
* **distributed tables** — hash-partitioned shards with insert/find/delete
  ops and reply-to-entry continuations,
* BOC plumbing: branch construction, spanning-tree broadcast, and the
  upward legs of BOC reductions (the fold itself lives in the kernel).

Naming: all ops are small strings routed via SVC envelopes; see
:class:`repro.core.services.Service`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.handles import ChareHandle
from repro.core.services import Service
from repro.core.tree import Span
from repro.sharing.ops import check_better, combiner, improves
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
        n = kernel.num_pes
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
    def declarations(self) -> tuple:
        """Payload describing all declared abstractions (init broadcast)."""
        return (dict(self._acc_spec), dict(self._mono_spec), tuple(self._tables))

    def declare_accumulator(self, name: str, initial: Any, op) -> None:
        if name in self._acc_spec:
            raise SharingError(f"accumulator {name!r} already declared")
        fn = combiner(op)
        self._acc_fn[name] = (fn, _skip_empty(fn))
        self._acc_spec[name] = (initial, op)
        # Per-PE partials materialize on first touch (_acc_get); the
        # declared initial lives on PE 0 only, exactly once.
        self._acc[(name, 0)] = initial

    def declare_monotonic(self, name: str, initial: Any, better, propagation: str) -> None:
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
        if name in self._tables:
            raise SharingError(f"table {name!r} already declared")
        self._tables.add(name)

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
        if name not in self._mono_spec:
            raise SharingError(f"unknown monotonic variable {name!r}")
        return self._mono_get(name, pe)

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
        self.kernel.engine.schedule_after(
            self.kernel.lazy_interval, lambda: self._lazy_flush(name, pe)
        )

    def _lazy_flush(self, name: str, pe: int) -> None:
        self._mono_dirty[(name, pe)] = False
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

    # ----------------------------------------------------------------- handlers
    def handle(self, pe: int, op: str, args: tuple) -> None:
        kernel = self.kernel
        kernel.api_charge(_HANDLER_WORK)

        if op == "init":
            readonly, decls = args
            # Values are already in kernel.readonly_vars / our spec dicts
            # (the simulation shares host memory); the broadcast models the
            # replication *cost* and sequencing.
            for child in kernel.tree.children(pe):
                self.send(pe, child, "init", args, counted=False)
            kernel.open_gate(pe)

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
            done = kernel._reduce_fold(boc_id, tag, pe, value, rop, target,
                                       entry, mode=mode, span=span)
            if done and boc_id == -1:
                del self._collect_snap[tag]

        elif op == "wonce_bcast":
            name, value = args
            # One broadcast per name (it is write-once), over the span
            # taken as the message reaches the root.
            span = kernel._writeonce_spans.get(name)
            if span is None:
                span = kernel._writeonce_spans[name] = kernel.span()
            kernel.writeonce_vars.setdefault(name, value)
            kernel._writeonce_avail[(name, pe)] = True
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
            done = kernel._reduce_fold(
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
