"""Concrete seed load-balancing strategies (experiment T5's subjects)."""

from __future__ import annotations

import inspect
from collections import defaultdict
from heapq import heappop, heappush
from typing import Dict, Optional

from repro.balance.base import Balancer
from repro.core.messages import Envelope
from repro.util.errors import ConfigurationError, need_int, need_real

__all__ = [
    "LocalBalancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "CentralBalancer",
    "TokenBalancer",
    "AcwnBalancer",
    "BALANCERS",
    "make_balancer",
]


class LocalBalancer(Balancer):
    """No balancing: seeds execute where they are created (baseline)."""

    strategy_name = "local"
    uses_known_table = False


class RandomBalancer(Balancer):
    """Uniform random placement at creation time.

    The paper's observation: surprisingly strong for homogeneous tree
    computations because expectation alone flattens the load, at the price
    of many remote seeds even when the machine is already saturated.
    """

    strategy_name = "random"
    uses_known_table = False

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._num_pes = kernel.num_pes
        # on_new_seed runs once per created chare, and a single numpy
        # integers() call per draw dominates its cost.  PCG64 produces the
        # identical value stream whether drawn one at a time or as a block
        # (each element consumes the bit stream the same way), so draws are
        # buffered in blocks: same placements, ~10x cheaper per seed.
        self._block: list = []
        self._block_next = 0

    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        i = self._block_next
        if i >= len(self._block):
            self._block = self.rng._gen.integers(
                0, self._num_pes, size=256
            ).tolist()
            i = 0
        self._block_next = i + 1
        target = self._block[i]
        if target != src_pe:
            self.seeds_placed_remote += 1
        return target


class RoundRobinBalancer(Balancer):
    """Deterministic cyclic placement (per-creator cursor)."""

    strategy_name = "roundrobin"
    uses_known_table = False

    def bind(self, kernel) -> None:
        super().bind(kernel)
        # Cursor defaults to the creator's own rank on first touch — the
        # same start point the old P-sized prefill gave every PE.
        self._cursor: Dict[int, int] = {}

    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        nxt = (self._cursor.get(src_pe, src_pe) + 1) % self.kernel.num_pes
        self._cursor[src_pe] = nxt
        if nxt != src_pe:
            self.seeds_placed_remote += 1
        return nxt


class CentralBalancer(Balancer):
    """Manager-based placement: all seeds route through PE 0.

    The manager assigns each seed to the least-loaded PE it knows of
    (piggybacked loads plus an optimistic count of its own outstanding
    assignments).  Centralization gives the best information but every seed
    pays a trip through PE 0 — the bottleneck experiment T5 exhibits as P
    grows.

    Placement is O(log P), not the O(P) scan it once was: *touched*
    candidates (any rank the manager has assigned to or heard from) sit in
    a lazy min-heap of ``(estimate, rank)`` entries, every never-touched
    rank has estimate 0 by construction and is represented by the single
    lowest such rank (``_frontier``), and PE 0's own estimate is computed
    live.  The minimum over those three ``(estimate, rank)`` tuples
    reproduces the historical scan's result exactly, including its
    lowest-index tie-break.
    """

    strategy_name = "central"

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._outstanding: Dict[int, int] = defaultdict(int)
        # (est, cand) entries for touched cands >= 1; entries go stale when
        # a cand's estimate changes and are popped lazily on inspection.
        self._heap: list = []
        self._est: Dict[int, int] = {}  # authoritative estimate per cand
        self._frontier = 1  # lowest never-touched rank (touched only grows)

    def _touch(self, cand: int) -> None:
        """Refresh a candidate's estimate after it changed."""
        est = self.known_load(0, cand) + self._outstanding[cand]
        self._est[cand] = est
        heappush(self._heap, (est, cand))

    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        return 0

    def note_load(self, observer: int, subject: int, load: int) -> None:
        super().note_load(observer, subject, load)
        if observer == 0:
            # Fresh truth from `subject` supersedes optimistic bookkeeping.
            self._outstanding[subject] = 0
            if subject != 0:
                self._touch(subject)

    def on_seed_arrival(self, pe: int, env: Envelope) -> Optional[int]:
        if pe != 0 or env.hops > 0:
            return None  # already assigned
        n = self.kernel.num_pes
        est = self._est
        f = self._frontier
        while f < n and f in est:
            f += 1
        self._frontier = f
        heap = self._heap
        while heap and est.get(heap[0][1]) != heap[0][0]:
            heappop(heap)  # stale entry: estimate has since changed
        # Lowest (estimate, rank) among: the manager itself, the best
        # touched candidate, and the frontier (every untouched rank has
        # estimate exactly 0 — no piggybacked load, no assignments).
        choices = [(self.local_load(0) + self._outstanding[0], 0)]
        if heap:
            choices.append(heap[0])
        if f < n:
            choices.append((0, f))
        _, best = min(choices)
        self._outstanding[best] += 1
        if best == 0:
            return None
        self._touch(best)
        self.seeds_placed_remote += 1
        return best


class TokenBalancer(Balancer):
    """Receiver-initiated work stealing.

    Seeds stay local; an idle PE sends a steal request to a random victim,
    which donates up to half of its queued (non-fixed) seeds, capped at
    ``max_grab`` — steal-half is what makes the ramp-up phase work when all
    seeds start on one PE.  Failed steals retry with linear backoff up to
    ``max_attempts``, so an idle PE eventually goes quiet instead of
    flooding the machine with probes.  Steal traffic is uncounted control
    traffic.
    """

    strategy_name = "token"

    def __init__(
        self,
        max_attempts: int = 16,
        backoff: float = 150e-6,
        max_grab: int = 8,
    ) -> None:
        super().__init__()
        self.max_attempts = need_int("token max_attempts", max_attempts)
        need_real("token backoff", backoff, strict=False)
        self.backoff = backoff
        self.max_grab = need_int("token max_grab", max_grab, 1)

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._attempts: Dict[int, int] = defaultdict(int)

    def on_seed_arrival(self, pe: int, env: Envelope) -> Optional[int]:
        self._attempts[pe] = 0  # fresh work: reset the probe budget
        return None

    def on_idle(self, pe: int) -> None:
        self._try_steal(pe)

    def _try_steal(self, pe: int) -> None:
        n = self.kernel.num_pes
        if n < 2 or self._attempts[pe] >= self.max_attempts:
            return
        victim = self.rng.randint(0, n - 1)
        if victim >= pe:
            victim += 1
        self._attempts[pe] += 1
        self.control_msgs += 1
        self.kernel.pes[pe].steal_attempts += 1
        if self.traced:
            self.trace_decision(pe, "steal_req", {"victim": victim})
        self.send(pe, victim, "steal_req", (pe,))

    def handle(self, pe: int, op: str, args: tuple) -> None:
        kernel = self.kernel
        kernel.api_charge(5.0)
        if op == "steal_req":
            (thief,) = args
            state = kernel.pes[pe]
            budget = min(self.max_grab, max(1, len(state.seed_pool) // 2))
            donated = 0
            pinned = []
            while donated < budget:
                seed = state.steal_seed()
                if seed is None:
                    break
                if seed.fixed:
                    pinned.append(seed)  # never migrate pinned seeds
                    continue
                kernel._deliver(seed.forwarded(thief), kernel.now)
                donated += 1
            for seed in pinned:
                state.requeue_seed(seed)
            if donated == 0:
                self.control_msgs += 1
                self.send(pe, thief, "steal_none", ())
            else:
                self._attempts[thief] = 0
                state.steals_satisfied += 1
                self.seeds_placed_remote += donated
                if self.traced:
                    self.trace_decision(pe, "donate",
                                        {"thief": thief, "count": donated})
        elif op == "steal_none":
            if kernel.pes[pe].has_work() or self._attempts[pe] >= self.max_attempts:
                return
            delay = self.backoff * self._attempts[pe]
            kernel.engine.schedule_call(kernel.now + delay, self._retry, pe)
        else:  # pragma: no cover - defensive
            super().handle(pe, op, args)

    def _retry(self, pe: int) -> None:
        state = self.kernel.pes[pe]
        if not state.has_work() and not state.busy:
            self._try_steal(pe)


class AcwnBalancer(Balancer):
    """Adaptive Contracting Within Neighborhood (the paper's strategy).

    A new seed goes to the least-loaded member of the creator's
    topology neighborhood (possibly the creator itself); an arriving seed
    may take further hops while a markedly lighter neighbor is known and
    its hop budget lasts.  As the neighborhood saturates, the comparison
    fails and work *contracts* — stays local — which is what keeps message
    traffic bounded at high load (the behavior T5 measures).

    Load knowledge is piggybacked only.  Idle PEs send a one-shot (cheap,
    uncounted) hint to their neighbors; the hint's only effect is the
    piggybacked zero load in its header.
    """

    strategy_name = "acwn"

    def __init__(self, threshold: int = 2, max_hops: Optional[int] = None) -> None:
        super().__init__()
        self.threshold = need_int("acwn threshold", threshold, 1)
        self.max_hops = (None if max_hops is None
                         else need_int("acwn max_hops", max_hops))

    def bind(self, kernel) -> None:
        super().bind(kernel)
        if self.max_hops is None:
            diam = kernel.machine.topology.diameter() if kernel.num_pes > 1 else 0
            self.max_hops = max(2, diam)

    def _best_neighbor(self, pe: int) -> tuple[Optional[int], int]:
        best, best_load = None, 0
        for nb in self.kernel.machine.neighbors(pe):
            load = self.known_load(pe, nb)
            if best is None or load < best_load:
                best, best_load = nb, load
        return best, best_load

    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        best, best_load = self._best_neighbor(src_pe)
        if best is not None and best_load + self.threshold <= self.local_load(src_pe):
            self.known[src_pe][best] = best_load + 1  # optimistic update
            self.seeds_placed_remote += 1
            return best
        return src_pe

    def on_seed_arrival(self, pe: int, env: Envelope) -> Optional[int]:
        if env.hops >= self.max_hops:
            return None
        best, best_load = self._best_neighbor(pe)
        if best is not None and best_load + self.threshold <= self.local_load(pe):
            self.known[pe][best] = best_load + 1
            self.seeds_placed_remote += 1
            return best
        return None

    def on_idle(self, pe: int) -> None:
        for nb in self.kernel.machine.neighbors(pe):
            self.control_msgs += 1
            self.send(pe, nb, "idle_hint", ())

    def handle(self, pe: int, op: str, args: tuple) -> None:
        if op == "idle_hint":
            # The useful payload was the piggybacked load in the header,
            # already folded into the known-load table on arrival.
            self.kernel.api_charge(1.0)
            return
        super().handle(pe, op, args)  # pragma: no cover - defensive


class GradientBalancer(Balancer):
    """Gradient-model balancing (Lin & Keller style, event-driven variant).

    Idle PEs advertise themselves by flooding a bounded-radius *gradient*:
    a control message ``(origin, hops)`` that neighbors re-forward while it
    improves their proximity table.  A loaded PE routes new seeds one hop
    toward the nearest known idle origin; the seed re-evaluates at each hop
    (via the arrival hook), so it descends the gradient until it reaches
    the idle region or its hop budget runs out.

    Staleness control: an origin whose piggybacked load has since been
    observed non-zero is ignored, and proximity entries are dropped once
    used.  All gradient traffic is uncounted control traffic.
    """

    strategy_name = "gradient"

    def __init__(self, radius: int = 2, threshold: int = 2,
                 max_hops: Optional[int] = None) -> None:
        super().__init__()
        self.radius = need_int("gradient radius", radius, 1)
        self.threshold = need_int("gradient threshold", threshold)
        self.max_hops = (None if max_hops is None
                         else need_int("gradient max_hops", max_hops))

    def bind(self, kernel) -> None:
        super().bind(kernel)
        # proximity[pe] = {origin: (hops, via_neighbor)}; rows materialize
        # on first gradient contact (per-row insertion order preserved).
        self._prox: Dict[int, Dict[int, tuple]] = defaultdict(dict)
        if self.max_hops is None:
            diam = kernel.machine.topology.diameter() if kernel.num_pes > 1 else 0
            self.max_hops = max(2, diam)

    # ------------------------------------------------------------ the gradient
    def on_idle(self, pe: int) -> None:
        self._prox[pe].clear()
        for nb in self.kernel.machine.neighbors(pe):
            self.control_msgs += 1
            self.send(pe, nb, "grad", (pe, 1))

    def handle(self, pe: int, op: str, args: tuple) -> None:
        if op != "grad":  # pragma: no cover - defensive
            return super().handle(pe, op, args)
        self.kernel.api_charge(2.0)
        origin, hops = args
        if origin == pe:
            return
        known = self._prox[pe].get(origin)
        if known is not None and known[0] <= hops:
            return  # no improvement: damp the flood
        self._prox[pe][origin] = (hops, None)
        if hops < self.radius:
            for nb in self.kernel.machine.neighbors(pe):
                self.control_msgs += 1
                self.send(pe, nb, "grad", (origin, hops + 1))

    # ----------------------------------------------------------- seed routing
    def _descend(self, pe: int) -> Optional[int]:
        """Pick the neighbor one hop down the steepest live gradient."""
        best_origin, best_key = None, None
        for origin, (hops, _) in self._prox[pe].items():
            # Rank by believed load first, then proximity; an origin whose
            # believed load reached the threshold no longer attracts seeds
            # (belief rises optimistically below and is refreshed by
            # piggybacked headers).
            load = self.known_load(pe, origin, default=0)
            if load >= self.threshold:
                continue
            key = (load, hops)
            if best_key is None or key < best_key:
                best_origin, best_key = origin, key
        if best_origin is None:
            return None
        # Optimistically count the seed we are about to route there, so one
        # advertised-idle PE doesn't attract a herd of seeds from here.
        self.known[pe][best_origin] = self.known_load(pe, best_origin) + 1
        machine = self.kernel.machine
        hops = machine.hops_fn
        return min(machine.neighbors(pe), key=lambda nb: hops(nb, best_origin))

    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        if self.local_load(src_pe) < self.threshold:
            return src_pe
        target = self._descend(src_pe)
        if target is None or target == src_pe:
            return src_pe
        self.seeds_placed_remote += 1
        return target

    def on_seed_arrival(self, pe: int, env: Envelope) -> Optional[int]:
        if env.hops >= (self.max_hops or 2):
            return None
        if self.local_load(pe) < self.threshold:
            return None  # we are the idle region: absorb
        target = self._descend(pe)
        if target is None or target == pe:
            return None
        self.seeds_placed_remote += 1
        return target


BALANCERS = {
    "local": LocalBalancer,
    "random": RandomBalancer,
    "roundrobin": RoundRobinBalancer,
    "central": CentralBalancer,
    "token": TokenBalancer,
    "acwn": AcwnBalancer,
    "gradient": GradientBalancer,
}


def make_balancer(name: str, **kwargs) -> Balancer:
    """Instantiate a balancing strategy by name."""
    try:
        cls = BALANCERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown balancer {name!r}; options: {sorted(BALANCERS)}"
        ) from None
    if kwargs:
        accepted = inspect.signature(cls).parameters
        for key in kwargs:
            if key not in accepted:
                raise ConfigurationError(
                    f"balancer {name!r} takes no argument {key!r}; "
                    f"it takes: {', '.join(accepted) or 'none'}")
    return cls(**kwargs)
