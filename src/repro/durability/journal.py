"""The controller's write-ahead journal.

Protocol
--------

The journal is an ordered list of JSON-safe records:

* ``{"type": "meta", ...}`` — written once when a controller attaches:
  topology parameters (:func:`~repro.workload.serialization.params_to_dict`
  shape), assignment config, ``hash_seed``, ``virtualized``, and the
  retry knobs.  Enough to cold-restore with no surviving process state.
* ``{"type": "snapshot", "seq": n, "state": {...}}`` — a checkpoint of
  the full controller intent (see
  :func:`repro.durability.recovery.snapshot_state`).  Writing a snapshot
  **truncates** the log: every earlier op/commit record is dropped.
* ``{"type": "op", "seq": n, "op": name, "params": {...}}`` — appended
  *before* a mutating op takes any side effect.  Params are fully
  specified (addresses, switch indices, serialized VIPs), so replay
  needs no randomness — the journal is seed-deterministic because the
  ops that produced it are.
* ``{"type": "commit", "seq": n, "effects": {...}}`` — appended after
  the op completed.  ``effects`` carries outcomes that are not derivable
  from the intent alone (which VIPs a plan degraded, where a bounced VIP
  finally landed).  An op record with no matching commit is an op the
  controller died inside; recovery **rolls it forward** (the intent was
  durable before the first side effect).

Durability boundary: the in-memory record list *is* the journal — the
simulated controller's "disk".  :meth:`WriteAheadJournal.save` /
:meth:`~WriteAheadJournal.load` serialize it as JSONL for the
``repro recover`` cold-restart path and CI artifacts.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional


class JournalError(Exception):
    """Malformed journal or protocol misuse."""


class WriteAheadJournal:
    """Append-only intent log with snapshot truncation.

    The journal never interprets records; it only enforces the protocol
    (monotone sequence numbers, commit-matches-op, no snapshot while an
    op is in flight).  Interpretation lives in
    :mod:`repro.durability.recovery`.
    """

    def __init__(self) -> None:
        self._meta: Optional[Dict[str, Any]] = None
        self._snapshot: Optional[Dict[str, Any]] = None
        self._snapshot_seq: int = -1
        self._tail: List[Dict[str, Any]] = []
        self._committed: Dict[int, bool] = {}
        self._next_seq: int = 0
        self._ops_since_snapshot: int = 0
        # Lifetime observability (survives truncation).
        self.ops_appended: int = 0
        self.snapshots_written: int = 0
        self.records_truncated: int = 0

    # -- writing -----------------------------------------------------------

    @property
    def meta(self) -> Optional[Dict[str, Any]]:
        return self._meta

    def set_meta(self, meta: Dict[str, Any]) -> None:
        if self._meta is not None:
            raise JournalError("journal meta already written")
        self._meta = dict(meta)

    def append(self, op: str, params: Dict[str, Any]) -> int:
        """Write an intent record; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self._tail.append({
            "type": "op", "seq": seq, "op": op, "params": params,
        })
        self._committed[seq] = False
        self._ops_since_snapshot += 1
        self.ops_appended += 1
        return seq

    def commit(self, seq: int, effects: Optional[Dict[str, Any]] = None) -> None:
        """Mark an appended op completed, recording its effects."""
        if self._committed.get(seq) is not False:
            raise JournalError(f"commit of unknown or committed op seq {seq}")
        record: Dict[str, Any] = {"type": "commit", "seq": seq}
        if effects is not None:
            record["effects"] = effects
        self._tail.append(record)
        self._committed[seq] = True

    def write_snapshot(
        self, state: Dict[str, Any], *, force: bool = False
    ) -> None:
        """Checkpoint the full intent and truncate the log.

        ``force`` permits truncating an uncommitted tail — only correct
        when the state already absorbed it (the post-recovery attach
        checkpoint, where the interrupted op was rolled forward).
        """
        if not force and any(not done for done in self._committed.values()):
            raise JournalError("cannot snapshot with an op in flight")
        self.records_truncated += len(self._tail)
        self._snapshot = state
        self._snapshot_seq = self._next_seq - 1
        self._tail = []
        self._committed = {}
        self._ops_since_snapshot = 0
        self.snapshots_written += 1

    # -- reading -----------------------------------------------------------

    @property
    def snapshot(self) -> Optional[Dict[str, Any]]:
        return self._snapshot

    @property
    def ops_since_snapshot(self) -> int:
        return self._ops_since_snapshot

    def tail(self) -> List[Dict[str, Any]]:
        """Op/commit records after the last snapshot, in append order."""
        return list(self._tail)

    def records(self) -> List[Dict[str, Any]]:
        """The full journal as it would land on disk."""
        out: List[Dict[str, Any]] = []
        if self._meta is not None:
            out.append({"type": "meta", **self._meta})
        if self._snapshot is not None:
            out.append({
                "type": "snapshot",
                "seq": self._snapshot_seq,
                "state": self._snapshot,
            })
        out.extend(self._tail)
        return out

    def __len__(self) -> int:
        return len(self.records())

    # -- persistence (JSONL) ------------------------------------------------

    def to_lines(self) -> List[str]:
        return [json.dumps(r, sort_keys=True) for r in self.records()]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.to_lines():
                handle.write(line + "\n")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "WriteAheadJournal":
        journal = cls()
        max_seq = -1
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise JournalError(f"journal line {number}: {error}")
            kind = record.get("type")
            if kind == "meta":
                meta = dict(record)
                meta.pop("type")
                journal._meta = meta
            elif kind == "snapshot":
                journal._snapshot = record["state"]
                journal._snapshot_seq = record["seq"]
                journal._tail = []
                journal._committed = {}
                journal._ops_since_snapshot = 0
                max_seq = max(max_seq, record["seq"])
            elif kind == "op":
                journal._tail.append(record)
                journal._committed[record["seq"]] = False
                journal._ops_since_snapshot += 1
                journal.ops_appended += 1
                max_seq = max(max_seq, record["seq"])
            elif kind == "commit":
                journal._tail.append(record)
                journal._committed[record["seq"]] = True
            else:
                raise JournalError(
                    f"journal line {number}: unknown record type {kind!r}"
                )
        journal._next_seq = max_seq + 1
        return journal

    @classmethod
    def load(cls, path: str) -> "WriteAheadJournal":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_lines(handle)
