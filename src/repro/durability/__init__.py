"""Durable control plane: write-ahead journal, crash-restart recovery,
and anti-entropy reconciliation.

The Duet controller is the single brain that owns VIP->switch intent
(paper S4); this package makes that intent survive the brain's death:

* :mod:`repro.durability.journal` — a typed write-ahead journal.  Every
  mutating controller op appends an intent record *before* side effects
  and a commit record (with outcome effects) after; periodic snapshot
  checkpoints truncate the log.
* :mod:`repro.durability.recovery` — snapshot + log replay into the
  controller's own :class:`~repro.core.intent.ControllerIntent` (its
  ``from_journal``: the transitions the live ops ran, including
  roll-forward of ops whose execution was interrupted mid-plan), and
  construction of a restored
  :class:`~repro.core.controller.DuetController` around it over the
  surviving (or an empty) dataplane.
* :mod:`repro.durability.reconcile` — the anti-entropy reconciler that
  diffs recovered intent against live SwitchAgent/SMux/HostAgent state
  and repairs drift through the controller's existing retry/backoff/
  degrade machinery, converging in bounded rounds.
"""

from repro.durability.journal import (
    JournalError,
    WriteAheadJournal,
)
from repro.durability.recovery import (
    RecoveryError,
    SurvivingDataplane,
    harvest_dataplane,
    restore_controller,
    snapshot_state,
)
from repro.durability.reconcile import (
    AntiEntropyReconciler,
    ReconcileReport,
    controller_fingerprint,
)

__all__ = [
    "AntiEntropyReconciler",
    "JournalError",
    "ReconcileReport",
    "RecoveryError",
    "SurvivingDataplane",
    "WriteAheadJournal",
    "controller_fingerprint",
    "harvest_dataplane",
    "restore_controller",
    "snapshot_state",
]
