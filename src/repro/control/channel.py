"""The fault-injectable control channel between controller and devices.

Production Duet programs HMuxes/SMuxes/host agents over a real network:
commands can be lost, delayed, duplicated, or cut off wholesale by a
partition.  This module models that channel while keeping the repro
synchronous and deterministic.

Every programming command carries a **fencing epoch** (bumped each time
a controller incarnation takes over after a crash) and a **per-device
sequence number**.  The device side keeps a last-applied ``(epoch,
seq)`` watermark and applies a delivery only when its stamp is strictly
newer — so duplicate and stale deliveries are dropped with zero side
effects, and a command issued by a deposed controller incarnation can
never clobber a newer one.  ``stats.stale_applied`` counts fencing
violations (a stale command that mutated a device); the chaos invariant
battery asserts it stays 0.

Delivery semantics of the injected faults:

``loss``
    The command never reaches the device.  ``send`` raises
    :class:`ChannelSendError`; the controller's retry path re-sends
    with a fresh sequence number.
``delay``
    The command is delivered and acked now, but a **duplicate copy**
    stays queued in flight and is re-delivered on a later
    :meth:`ControlChannel.pump` — the device must fence-reject it.
``partition``
    All *lossy-scoped* sends to the device fail until
    :meth:`ControlChannel.heal`.

Faults are scoped to the programming ops (:data:`LOSSY_OPS`), matching
the long-standing :class:`~repro.net.failures.FaultModel` convention:
withdrawals and unwinds stay reliable, because a failed withdrawal
would strand a route — BGP neighbours withdraw on session loss, the
one part of the control plane with built-in failure semantics.
Duplicate (delayed) copies are queued for *every* op, reliable or not:
fencing must make any redelivery safe.

The controller side keeps a :class:`PendingOpsLedger`: one ticket per
logical programming op, opened before the first send and settled as
acked / timed out / rejected.  The ledger is deliberately in-memory —
its durable twin is the write-ahead journal's uncommitted tail, which
recovery rolls forward (see ``durability/recovery.py``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.net.failures import as_rng

#: Ops subject to injected loss/partition.  Everything else (withdraw,
#: remove, SMux/host management) is reliable but still fenced.
LOSSY_OPS = frozenset({"program_vip", "program_vip_port"})


class ChannelSendError(Exception):
    """A command did not reach its device (lost or partitioned).  The
    command was NOT applied: the channel never half-delivers."""


@dataclass(slots=True)
class ChannelStats:
    """Cumulative counters for one channel (survives controller crashes
    alongside the dataplane — the deployment's channel, not one
    incarnation's)."""

    sends: int = 0             # commands handed to the channel
    applied: int = 0           # deliveries that mutated the device
    losses: int = 0            # lossy-op sends dropped in flight
    partition_drops: int = 0   # lossy-op sends to a partitioned device
    delayed_dups: int = 0      # duplicate copies queued for redelivery
    dup_drops: int = 0         # duplicate deliveries fence-dropped
    fence_rejects: int = 0     # stale-epoch deliveries fence-dropped
    stale_applied: int = 0     # fencing violations (invariant: stays 0)
    pumps: int = 0             # redelivery sweeps
    heals: int = 0             # partitions healed / weather cleared

    def as_dict(self) -> Dict[str, int]:
        return {
            "sends": self.sends,
            "applied": self.applied,
            "losses": self.losses,
            "partition_drops": self.partition_drops,
            "delayed_dups": self.delayed_dups,
            "dup_drops": self.dup_drops,
            "fence_rejects": self.fence_rejects,
            "stale_applied": self.stale_applied,
            "pumps": self.pumps,
            "heals": self.heals,
        }


@dataclass(slots=True)
class _Command:
    """One stamped delivery (also the queued-duplicate form)."""

    device: str
    epoch: int
    seq: int
    op: str
    fn: Callable[[], Any]


@dataclass(slots=True)
class _DeviceState:
    next_seq: int = 0
    applied_epoch: int = -1
    applied_seq: int = -1


class ControlChannel:
    """Epoch-fenced, seeded-fault command channel to the device fleet.

    Devices are addressed by string id (``"switch:3"``, ``"smux:1"``,
    ``"host:17"``).  The channel object belongs to the *deployment*:
    it is harvested with the surviving dataplane across controller
    crashes, and the restored incarnation bumps :attr:`epoch` so any
    still-queued deliveries from the dead incarnation are fenced off.
    """

    def __init__(
        self,
        seed: Union[int, random.Random] = 0,
        *,
        loss_prob: float = 0.0,
        delay_prob: float = 0.0,
    ) -> None:
        self.rng = as_rng(seed)
        self.epoch = 0
        self.partitioned: Set[str] = set()
        self.loss_prob = 0.0
        self.delay_prob = 0.0
        self.set_loss(loss_prob)
        self.set_delay(delay_prob)
        self.stats = ChannelStats()
        self._devices: Dict[str, _DeviceState] = {}
        self._in_flight: Deque[_Command] = deque()
        # Convergence-latency samples (seconds per heal->reconcile),
        # buffered for the metrics collector to drain (same pattern as
        # the assignment solve histogram).
        self._pending_convergences: List[float] = []

    # -- fault injection -------------------------------------------------------

    def set_loss(self, prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self.loss_prob = prob
        self._refresh_fault_free()

    def set_delay(self, prob: float) -> None:
        if not 0.0 <= prob <= 1.0:
            raise ValueError("delay probability must be in [0, 1]")
        self.delay_prob = prob
        self._refresh_fault_free()

    def _refresh_fault_free(self) -> None:
        # Cached so the zero-fault send path (production steady state)
        # skips all fault sampling.
        self._fault_free = (
            self.loss_prob == 0.0
            and self.delay_prob == 0.0
            and not self.partitioned
        )

    def partition(self, device: str) -> None:
        self.partitioned.add(device)
        self._fault_free = False

    def heal(self, device: Optional[str] = None) -> List[str]:
        """Heal one partition (or all of them, plus the loss/delay
        weather, when ``device`` is None).  Returns the devices whose
        partitions lifted.  The caller owns reconvergence: run the
        anti-entropy reconciler after healing."""
        if device is not None:
            healed = [device] if device in self.partitioned else []
            self.partitioned.discard(device)
        else:
            healed = sorted(self.partitioned)
            self.partitioned.clear()
            self.loss_prob = 0.0
            self.delay_prob = 0.0
        self._refresh_fault_free()
        self.stats.heals += 1
        return healed

    # -- the data path ---------------------------------------------------------

    def _state(self, device: str) -> _DeviceState:
        state = self._devices.get(device)
        if state is None:
            state = self._devices[device] = _DeviceState()
        return state

    def send(self, device: str, op: str, fn: Callable[[], Any]) -> Any:
        """Stamp, maybe drop, deliver.  Returns ``fn()``'s result on
        delivery; raises :class:`ChannelSendError` when the command was
        lost or the device is partitioned (lossy ops only).  A delayed
        duplicate may additionally be queued for a later :meth:`pump`.
        """
        state = self._devices.get(device)
        if state is None:
            state = self._devices[device] = _DeviceState()
        seq = state.next_seq
        state.next_seq = seq + 1
        stats = self.stats
        stats.sends += 1
        # A direct delivery always passes the fence: its stamp was just
        # allocated, so it is strictly newer than any applied watermark
        # (same epoch -> larger seq; after an epoch bump -> larger
        # epoch).  Only pumped duplicates need the full fence check.
        if self._fault_free:
            state.applied_epoch = self.epoch
            state.applied_seq = seq
            stats.applied += 1
            return fn()
        if op in LOSSY_OPS:
            if device in self.partitioned:
                stats.partition_drops += 1
                raise ChannelSendError(
                    f"{op} seq {seq} to {device}: partitioned"
                )
            if self.loss_prob > 0 and self.rng.random() < self.loss_prob:
                stats.losses += 1
                raise ChannelSendError(
                    f"{op} seq {seq} to {device}: lost in flight"
                )
        state.applied_epoch = self.epoch
        state.applied_seq = seq
        stats.applied += 1
        result = fn()
        if self.delay_prob > 0 and self.rng.random() < self.delay_prob:
            # The network held a copy: it will arrive again later, and
            # the device-side fence must drop it without side effects.
            self._in_flight.append(
                _Command(device, self.epoch, seq, op, fn)
            )
            stats.delayed_dups += 1
        return result

    def _deliver(self, cmd: _Command) -> Any:
        if cmd.epoch < self.epoch:
            # Stamped by a deposed controller incarnation: fenced off,
            # whether or not the device has seen the seq.
            self.stats.fence_rejects += 1
            return None
        state = self._state(cmd.device)
        stamp = (cmd.epoch, cmd.seq)
        if stamp <= (state.applied_epoch, state.applied_seq):
            self.stats.dup_drops += 1
            return None
        state.applied_epoch, state.applied_seq = stamp
        self.stats.applied += 1
        return cmd.fn()

    def pump(self) -> int:
        """Re-deliver every queued duplicate.  Returns the number of
        deliveries attempted; fencing guarantees none of them mutate a
        device (``stats.stale_applied`` would record a violation)."""
        self.stats.pumps += 1
        delivered = 0
        while self._in_flight:
            cmd = self._in_flight.popleft()
            applied_before = self.stats.applied
            self._deliver(cmd)
            if self.stats.applied != applied_before:
                # A duplicate got through the fence: record the
                # violation for the invariant battery instead of hiding
                # the double side-effect.
                self.stats.stale_applied += 1
            delivered += 1
        return delivered

    def purge_device(self, device: str) -> int:
        """A device died (switch wipe, SMux retirement): drop its queued
        duplicates — its replacement boots from empty state and fresh
        programming, and a late duplicate from the previous life must
        not resurrect anything.  The watermark is kept: sequence numbers
        keep growing, so post-recovery commands always pass the fence."""
        before = len(self._in_flight)
        self._in_flight = deque(
            cmd for cmd in self._in_flight if cmd.device != device
        )
        return before - len(self._in_flight)

    def bump_epoch(self) -> int:
        """A new controller incarnation took over (crash recovery).
        Commands stamped by the dead incarnation — queued duplicates or
        anything still in flight — are fenced off from here on."""
        self.epoch += 1
        return self.epoch

    # -- introspection ---------------------------------------------------------

    def queued_dups(self) -> int:
        return len(self._in_flight)

    def device_watermark(self, device: str) -> Tuple[int, int]:
        state = self._state(device)
        return (state.applied_epoch, state.applied_seq)

    def note_convergence(self, seconds: float) -> None:
        self._pending_convergences.append(seconds)

    def drain_convergences(self) -> List[float]:
        drained = self._pending_convergences
        self._pending_convergences = []
        return drained


@dataclass
class OpTicket:
    """One logical programming op in the pending-ops ledger."""

    op_id: int
    device: str
    op: str
    vip: Optional[int] = None
    attempts: int = 0
    state: str = "pending"  # pending | acked | timed_out | rejected


class PendingOpsLedger:
    """Controller-side ack tracking for in-flight programming ops.

    One ticket per logical op (a VIP programming including its port
    rules is one op, however many retries it takes).  A ticket that
    times out puts its device on the :attr:`unreconciled` list — the
    hand-off to the anti-entropy reconciler, which clears it once the
    channel heals and intent converges with the installed state.

    Per-incarnation by design: the ledger dies with its controller, and
    recovery re-derives in-flight intent from the journal's uncommitted
    tail (ledger "replay" is journal roll-forward).
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._pending: Dict[int, OpTicket] = {}
        self.unreconciled: Set[str] = set()
        self.opened = 0
        self.acked = 0
        self.retries = 0
        self.timeouts = 0
        self.rejected = 0

    def open(
        self, device: str, op: str, vip: Optional[int] = None
    ) -> OpTicket:
        ticket = OpTicket(self._next_id, device, op, vip)
        self._next_id += 1
        self._pending[ticket.op_id] = ticket
        self.opened += 1
        return ticket

    def note_retry(self, ticket: OpTicket) -> None:
        self.retries += 1

    def _settle(self, ticket: OpTicket, state: str) -> None:
        ticket.state = state
        self._pending.pop(ticket.op_id, None)

    def ack(self, ticket: OpTicket) -> None:
        self._settle(ticket, "acked")
        self.acked += 1

    def timeout(self, ticket: OpTicket) -> None:
        """Retry budget / deadline exhausted: the op is abandoned, its
        VIP degrades to SMux coverage, and its device awaits
        anti-entropy reconciliation."""
        self._settle(ticket, "timed_out")
        self.timeouts += 1
        self.unreconciled.add(ticket.device)

    def reject(self, ticket: OpTicket) -> None:
        """Deterministic NACK (e.g. table capacity): not retryable, not
        a channel fault — the device is in sync, just full."""
        self._settle(ticket, "rejected")
        self.rejected += 1

    def pending(self) -> List[OpTicket]:
        return [self._pending[k] for k in sorted(self._pending)]

    def mark_reconciled(self, device: Optional[str] = None) -> None:
        if device is None:
            self.unreconciled.clear()
        else:
            self.unreconciled.discard(device)
