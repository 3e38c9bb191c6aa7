"""Regenerate ``journal_parent.jsonl`` and ``journal_parent.expected.json``.

The golden journal is what ``tests.test_durability.golden_journal()``
writes — and what ``DuetController.restore`` makes of it — under the
sources on ``PYTHONPATH``.  To pin a *parent* commit's format, run from
this repo's root against a checkout of that commit::

    PYTHONPATH=<parent checkout>/src:. python tests/data/make_journal_parent.py
"""

from __future__ import annotations

import json

from repro.core.controller import DuetController
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    controller_fingerprint,
)
from repro.durability.recovery import snapshot_state

from tests.test_durability import GOLDEN_EXPECTED, GOLDEN_JOURNAL, golden_journal


def main() -> None:
    golden_journal().save(str(GOLDEN_JOURNAL))
    restored = DuetController.restore(WriteAheadJournal.load(str(GOLDEN_JOURNAL)))
    snapshot = snapshot_state(restored)
    if not AntiEntropyReconciler(restored).converge().converged:
        raise SystemExit("the restored golden journal did not reconcile")
    GOLDEN_EXPECTED.write_text(
        json.dumps(
            {"snapshot": snapshot, "fingerprint": controller_fingerprint(restored)},
            sort_keys=True, indent=1,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_JOURNAL} ({len(GOLDEN_JOURNAL.read_text().splitlines())} records)")


if __name__ == "__main__":
    main()
