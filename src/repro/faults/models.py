"""Fault models injected at the network/PE boundary.

:class:`FaultConfig` is a frozen description of which faults to inject;
:class:`FaultLayer` is the per-kernel runtime that executes them.  The
kernel routes every delivery through :meth:`FaultLayer.transmit` and every
execution duration through :meth:`FaultLayer.perturb_execution` when a
layer is installed — and pays exactly one ``is None`` check per hook when
it is not.

Fault models
------------
* **Latency** — per-message uniform jitter (``jitter``) plus occasional
  delay spikes (``delay_prob`` / ``delay_spike``), applied to every remote
  message.  Message-driven execution has no receive order to violate, so
  delayed messages need no protocol support.
* **Loss** — remote *counted* messages are dropped with ``drop_prob`` per
  delivery attempt.  A kernel-level ack/timeout/retry protocol makes
  delivery reliable again: the sender keeps the envelope until a
  (hardware-level, zero-occupancy) ack returns, retransmitting with
  exponential backoff.  Acks are subject to the same loss rate, which is
  why receivers re-ack suppressed duplicates.  Uncounted runtime control
  traffic (QD waves, balancer probes) models the machine's reliable
  system transport and is never dropped — exactly as the Chare Kernel
  assumed of its hosts.
* **Duplication** — any remote message may be delivered twice
  (``dup_prob``), the copy lagging by ``dup_lag``.  Receivers dedup by the
  per-kernel envelope ``uid`` (idempotent receive), so entry methods still
  execute exactly once and quiescence counting stays consistent.
* **PE slowdown / stalls** — ``slow_pes`` run all executions
  ``slow_factor`` times longer (a thermally-throttled or time-shared
  node); any execution may additionally hit a transient stall
  (``stall_prob`` / ``stall_time``), modelling OS noise.

Quiescence stays correct by construction: ``counted_sent`` is incremented
once at first send (retransmissions bypass it) and ``counted_processed``
once at the single deduplicated execution, so ``sent == processed`` still
converges and the two-wave stability check does the rest.

Determinism: network-side draws come from ``RngStream(seed, "faults-net")``
in event order and PE-side draws from ``RngStream(seed, "faults-pe")``, so
the two families don't perturb each other and a (root seed, config) pair
fully determines the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.util.errors import (
    ConfigurationError, FaultError, need_int, need_real)
from repro.util.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel
    from repro.core.messages import Envelope

__all__ = ["FaultConfig", "FaultLayer", "ACK_BYTES"]

#: Wire size charged to a kernel-level ack (header-sized control packet).
ACK_BYTES = 16

#: ``(floor, strict)`` of the float fields whose floor is not ``>= 0``.
_FLOORS = {"retry_backoff": (1.0, False), "max_backoff": (0.0, True)}


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of the faults to inject.  Times in seconds.

    The default instance is inert: installing ``FaultConfig()`` must be
    bit-identical to installing no fault layer at all (asserted by the
    golden-trace tests).
    """

    # -- network latency ----------------------------------------------------
    jitter: float = 0.0          # uniform [0, jitter) extra transit, all remote msgs
    delay_prob: float = 0.0      # chance of a latency spike per remote msg
    delay_spike: float = 500e-6  # spike size

    # -- network loss (counted messages only; retried until acked) ----------
    drop_prob: float = 0.0       # loss chance per delivery attempt
    ack_timeout: float = 2e-3    # sender timeout before first retransmission
    retry_backoff: float = 2.0   # timeout multiplier per successive retry
    max_retries: int = 16        # safety valve; exceeding it raises FaultError
    max_backoff: float = 0.5     # retransmission-delay ceiling (seconds)

    # -- network duplication ------------------------------------------------
    dup_prob: float = 0.0        # chance a remote msg is delivered twice
    dup_lag: float = 150e-6      # how far the duplicate trails the original

    # -- PE faults ----------------------------------------------------------
    slow_pes: tuple = ()         # PEs running slow_factor times slower
    slow_factor: float = 1.0
    stall_prob: float = 0.0      # transient stall chance per execution
    stall_time: float = 1e-3     # stall duration

    # -- determinism --------------------------------------------------------
    seed: Optional[int] = None   # fault RNG root; defaults to the kernel seed

    def __post_init__(self) -> None:
        # need_real / need_int, whose errors name the field: NaN passes any
        # bare range check, and True, "7" or 2.5 are no rate, seed or rank.
        try:
            for f in fields(self):
                if isinstance(f.default, float):
                    low, strict = _FLOORS.get(f.name, (0.0, False))
                    need_real(f.name, getattr(self, f.name), low,
                              strict=strict)
            need_int("max_retries", self.max_retries, 1)
            if self.seed is not None:
                need_int("seed", self.seed, None)
            if not isinstance(self.slow_pes, tuple):
                raise FaultError(f"slow_pes must be a tuple of PE ranks, "
                                 f"got {self.slow_pes!r}")
            for pe in self.slow_pes:
                need_int("slow_pes entry", pe)
        except ConfigurationError as exc:
            raise FaultError(str(exc)) from None
        for name in ("delay_prob", "drop_prob", "dup_prob", "stall_prob"):
            if getattr(self, name) >= 1.0:
                raise FaultError(f"{name} must be < 1 (a certainty is a "
                                 "config error, not a fault model)")
        if self.slow_factor < 1.0:
            raise FaultError("slow_factor must be >= 1 (use machine "
                             "pe_speeds for faster-than-baseline nodes)")
        if self.drop_prob > 0.0 and self.ack_timeout <= 0.0:
            raise FaultError("drop_prob needs a positive ack_timeout")

    def describe(self) -> str:
        """Compact non-default-fields summary (for tables and logs)."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value}")
        return ", ".join(parts) if parts else "inert"


class FaultLayer:
    """Runtime fault injector for one kernel.

    Sits between :meth:`Kernel._deliver` and the event engine: the kernel
    computes the unperturbed arrival time (so all accounting — hops,
    bytes, counted_sent — happens exactly once, exactly as without
    faults), then hands the envelope here for perturbation and scheduling.
    """

    def __init__(self, config: FaultConfig) -> None:
        # The kernel builds one layer per run from its faults= argument (a
        # layer shared between kernels would sum their counters).
        if not isinstance(config, FaultConfig):
            raise ConfigurationError(
                f"faults must be a FaultConfig, not {type(config).__name__}")
        self.config = config
        self.kernel: "Kernel" = None  # type: ignore[assignment]
        # Aggregate counters (per-PE twins live on PEState).
        self.msgs_dropped = 0
        self.msgs_delayed = 0
        self.msgs_duplicated = 0
        self.dups_suppressed = 0
        self.retries = 0
        self.acks_sent = 0
        self.acks_lost = 0
        self.stalls = 0

    # ------------------------------------------------------------------ wiring
    def bind(self, kernel: "Kernel", arrive) -> None:
        """Attach to a kernel (called from ``Kernel.__init__``); every
        delivery that survives the faults ends in ``arrive(env)``."""
        self.kernel = kernel
        cfg = self.config
        seed = cfg.seed if cfg.seed is not None else kernel.seed
        self._net_rng = RngStream(seed, "faults-net")
        self._pe_rng = RngStream(seed, "faults-pe")
        self._slow_set = frozenset(cfg.slow_pes)
        for pe in self._slow_set:
            if not 0 <= pe < kernel.num_pes:
                raise FaultError(f"slow_pes entry {pe} out of range")
        # Sender-side reliability state: uid -> [envelope, attempt_number].
        self._pending: Dict[int, List] = {}
        # uids that may legitimately arrive more than once (dup'd or under
        # the retry protocol); the subset already delivered once.
        self._tracked: Set[int] = set()
        self._seen: Set[int] = set()
        # Pre-bound callables: the layer schedules closure-free, like the
        # kernel itself.
        self._schedule = kernel.engine.schedule_call
        self._arrive = arrive
        self._arrive_checked_cb = self._arrive_checked
        self._on_timeout_cb = self._on_timeout
        self._on_ack_cb = self._on_ack

    def close(self) -> None:
        """Undo :meth:`bind`'s wiring (called from ``Kernel.close``).

        The pre-bound callbacks make the layer reach itself; with them,
        the kernel and the scheduler gone it is freed by reference count.
        Config and counters stay readable.
        """
        self.kernel = None  # type: ignore[assignment]
        self._schedule = self._arrive = None
        self._arrive_checked_cb = self._on_timeout_cb = self._on_ack_cb = None
        self._pending.clear()

    # --------------------------------------------------------------- transmit
    def transmit(self, env: "Envelope", departure: float, arrival: float) -> None:
        """Schedule one delivery, applying the configured network faults.

        ``arrival`` is the fault-free arrival time the kernel computed
        (memoized transit incl. any contention), so the inert config
        reproduces the fault-free schedule bit-for-bit.
        """
        if env.src_pe == env.dst_pe:
            # Local messages never touch the network; no faults apply.
            self._schedule(arrival, self._arrive, env)
            return
        cfg = self.config
        rng = self._net_rng
        kernel = self.kernel
        pe = kernel.pes[env.dst_pe]
        events = kernel.trace
        if cfg.jitter > 0.0:
            arrival += rng.random() * cfg.jitter
        if cfg.delay_prob > 0.0 and rng.random() < cfg.delay_prob:
            arrival += cfg.delay_spike
            pe.msgs_delayed += 1
            self.msgs_delayed += 1
            if events is not None:
                events.record("fault", departure, env.dst_pe, name="delay",
                              uid=env.uid, parent=events.send_parent(env.uid),
                              dur=cfg.delay_spike)
        duplicated = cfg.dup_prob > 0.0 and rng.random() < cfg.dup_prob
        if duplicated:
            self._tracked.add(env.uid)
            pe.msgs_duplicated += 1
            self.msgs_duplicated += 1
            if events is not None:
                events.record("fault", departure, env.dst_pe, name="dup",
                              uid=env.uid, parent=events.send_parent(env.uid),
                              dur=cfg.dup_lag)
            self._schedule(arrival + cfg.dup_lag, self._arrive_checked_cb, env)
        if cfg.drop_prob > 0.0 and env.counted:
            # Reliable-delivery protocol: remember the envelope, arm the
            # retransmission timer, then risk the first attempt.
            self._tracked.add(env.uid)
            self._pending[env.uid] = [env, 0]
            self._schedule(departure + cfg.ack_timeout,
                           self._on_timeout_cb, (env.uid, 0))
            if rng.random() < cfg.drop_prob:
                pe.msgs_dropped += 1
                self.msgs_dropped += 1
                if events is not None:
                    events.record("fault", departure, env.dst_pe, name="drop",
                                  uid=env.uid,
                                  parent=events.send_parent(env.uid),
                                  info={"attempt": 0})
                return
        self._schedule(arrival, self._arrive_checked_cb, env)

    def _arrive_checked(self, env: "Envelope") -> None:
        """Receiver-side boundary: dedup, ack, then the normal arrival path."""
        uid = env.uid
        if uid in self._tracked:
            if uid in self._seen:
                # Idempotent receive: the entry already ran (or will run)
                # from the first copy; suppress, but re-ack in case the
                # sender is retransmitting because our ack was lost.
                kernel = self.kernel
                pe = kernel.pes[env.dst_pe]
                pe.dups_suppressed += 1
                self.dups_suppressed += 1
                events = kernel.trace
                if events is not None:
                    # The suppressed copy links to the uid's original send:
                    # the logical message stays a single causal chain.
                    events.record("fault", kernel.engine.now, env.dst_pe,
                                  name="dup_suppressed", uid=uid,
                                  parent=events.send_parent(uid))
                if uid in self._pending:
                    self._send_ack(env)
                return
            self._seen.add(uid)
            if uid in self._pending:
                self._send_ack(env)
        self._arrive(env)

    # ------------------------------------------------------------ reliability
    def _send_ack(self, env: "Envelope") -> None:
        """Launch the hardware-level ack back to the sender.

        Acks are kernel-internal control packets: they take real network
        latency (uncontended alpha/beta/per-hop) but occupy no PE and no
        modeled bus — and they are lost at the same rate as data.
        """
        cfg = self.config
        if cfg.drop_prob > 0.0 and self._net_rng.random() < cfg.drop_prob:
            self.acks_lost += 1
            return
        self.acks_sent += 1
        kernel = self.kernel
        transit = kernel.machine.control_transit(env.dst_pe, env.src_pe,
                                                 ACK_BYTES)
        self._schedule(kernel.engine.now + transit, self._on_ack_cb, env.uid)

    def _on_ack(self, uid: int) -> None:
        # Late acks for an already-completed uid are no-ops.
        self._pending.pop(uid, None)

    def _on_timeout(self, payload) -> None:
        """Retransmission timer fired; resend if the ack hasn't landed."""
        uid, attempt = payload
        st = self._pending.get(uid)
        if st is None or st[1] != attempt:
            return  # acked, or a newer attempt owns the timer
        env = st[0]
        attempt += 1
        if attempt > self.config.max_retries:
            raise FaultError(
                f"message uid={uid} ({env!r}) undelivered after "
                f"{self.config.max_retries} retries — drop rate too high "
                f"for the configured ack_timeout/backoff"
            )
        st[1] = attempt
        kernel = self.kernel
        cfg = self.config
        rng = self._net_rng
        pe = kernel.pes[env.dst_pe]
        kernel.pes[env.src_pe].retries += 1
        self.retries += 1
        now = kernel.engine.now
        events = kernel.trace
        if events is not None:
            # Parent on the *original* send event: the retransmission stays
            # on the logical message's chain instead of rooting a fresh one.
            events.record("fault", now, env.src_pe, name="retry", uid=uid,
                          parent=events.send_parent(uid),
                          info={"attempt": attempt})
        # The retransmitted copy is a real data message: it pays transit
        # again (including contention) and faces the same perturbations.
        # It does NOT re-increment counted_sent / msgs_sent — quiescence
        # and the trace count logical messages, not wire attempts.
        arrival = now + kernel.machine.transit_time(
            env.src_pe, env.dst_pe, env.nbytes, now
        )
        if cfg.jitter > 0.0:
            arrival += rng.random() * cfg.jitter
        if cfg.delay_prob > 0.0 and rng.random() < cfg.delay_prob:
            arrival += cfg.delay_spike
            pe.msgs_delayed += 1
            self.msgs_delayed += 1
        if rng.random() < cfg.drop_prob:
            pe.msgs_dropped += 1
            self.msgs_dropped += 1
            if events is not None:
                events.record("fault", now, env.dst_pe, name="drop", uid=uid,
                              parent=events.send_parent(uid),
                              info={"attempt": attempt})
        else:
            self._schedule(arrival, self._arrive_checked_cb, env)
        # Exponential backoff with a ceiling: uncapped doubling compounds
        # with long PE stalls — a handful of unlucky retries can push the
        # retransmission delay past the entire run's span and dominate
        # virtual time.  The ceiling keeps the timer within max_backoff.
        backoff = cfg.ack_timeout * (cfg.retry_backoff ** attempt)
        if backoff > cfg.max_backoff:
            backoff = cfg.max_backoff
        self._schedule(now + backoff, self._on_timeout_cb, (uid, attempt))

    # ------------------------------------------------------------- PE faults
    def perturb_execution(self, pe_index: int, start: float,
                          duration: float) -> float:
        """Stretch one execution per the PE fault models; returns duration."""
        cfg = self.config
        if self._slow_set and pe_index in self._slow_set:
            duration *= cfg.slow_factor
        if cfg.stall_prob > 0.0 and self._pe_rng.random() < cfg.stall_prob:
            duration += cfg.stall_time
            kernel = self.kernel
            pe = kernel.pes[pe_index]
            pe.stalls += 1
            pe.stall_time += cfg.stall_time
            self.stalls += 1
            events = kernel.trace
            if events is not None:
                # ctx is the stalled execution's begin event (the kernel
                # perturbs durations inside the exec window).
                events.record("fault", start, pe_index, name="stall",
                              parent=events.ctx, dur=cfg.stall_time)
        return duration

    # ------------------------------------------------------------ inspection
    def counters(self) -> Dict[str, int]:
        return {
            "msgs_dropped": self.msgs_dropped,
            "msgs_delayed": self.msgs_delayed,
            "msgs_duplicated": self.msgs_duplicated,
            "dups_suppressed": self.dups_suppressed,
            "retries": self.retries,
            "acks_sent": self.acks_sent,
            "acks_lost": self.acks_lost,
            "stalls": self.stalls,
        }
