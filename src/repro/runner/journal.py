"""Append-only sweep journal: the per-unit outcome log of figure sweeps.

The content-addressed cache already makes re-running a killed sweep cheap
(completed points are hits), but it cannot say *which* sweep a result
belonged to, how many attempts it took, or what was degraded along the
way.  The journal records exactly that: one JSONL line per completed work
unit, appended (and flushed) the moment its outcome is known, in a file
named by the sweep's own content digest next to the cache
(``<cache root>/_journals/<sweep digest>.jsonl``).

Because appends happen per outcome, a run killed at 50% leaves a journal
naming precisely the finished units.  Restarting needs no journal: a
plain rerun serves those units from the cache and recomputes only what is
missing, appending its own records.  A line torn by the kill itself fails
to parse and is skipped — append-only JSONL degrades to "lose at most the
last record", never to a poisoned file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

#: Journal record schema; bump on incompatible record shape changes.
JOURNAL_SCHEMA = 1

#: Directory under the cache root holding per-sweep journals.
JOURNAL_DIR = "_journals"


def sweep_digest(*keys: object) -> str:
    """A short stable digest naming one sweep (figure id, quality, ...)."""
    material = "/".join(str(key) for key in keys)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class JournalSummary:
    """Counts over every record of a journal (all runs, append-only)."""

    records: int
    ok: int
    failed: int
    cached: int
    degraded: int
    retried: int
    skipped_lines: int

    def format(self) -> str:
        return (f"journal: {self.records} record(s) — {self.ok} ok "
                f"({self.cached} cached), "
                f"{self.failed} failed, {self.degraded} degraded, "
                f"{self.retried} retried"
                + (f", {self.skipped_lines} torn line(s) skipped"
                   if self.skipped_lines else ""))


class SweepJournal:
    """One sweep's append-only JSONL outcome log."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._skipped_lines = 0

    @classmethod
    def for_sweep(cls, root: Union[str, Path], *keys: object) -> "SweepJournal":
        """The journal for the sweep identified by ``keys``, next to ``root``."""
        return cls(Path(root) / JOURNAL_DIR / f"{sweep_digest(*keys)}.jsonl")

    def exists(self) -> bool:
        return self.path.is_file()

    # -- writing ----------------------------------------------------------

    def record(self, digest: str, status: str, *, attempts: int = 1,
               cached: bool = False, deduped: bool = False,
               degraded: Sequence[str] = (), wall_time: float = 0.0,
               error: Optional[str] = None) -> None:
        """Append one outcome record (flushed immediately; crash-safe)."""
        entry: Dict[str, object] = {
            "schema": JOURNAL_SCHEMA,
            "digest": digest,
            "status": status,
            "attempts": attempts,
        }
        if cached:
            entry["cached"] = True
        if deduped:
            # Additive key (same schema): the unit followed an equal-digest
            # leader in its own run rather than executing.
            entry["deduped"] = True
        if degraded:
            entry["degraded"] = list(degraded)
        if wall_time:
            entry["wall_time"] = round(wall_time, 6)
        if error:
            entry["error"] = error.strip().splitlines()[-1][:200]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A run killed mid-append leaves a torn line with no newline; a
        # rerun must not glue its first record onto it (that would
        # tear *two* records).  Close the wound with a newline first.
        torn_tail = False
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn_tail = handle.read(1) != b"\n"
        except OSError:
            pass
        # Append-only JSONL by design: atomicity is per *record* (one write
        # + flush per line), and the torn-tail repair above handles the only
        # partial-write failure mode.
        with self.path.open("a", encoding="utf-8") as handle:  # lint: disable=SIM010
            if torn_tail:
                handle.write("\n")
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

    def clear(self) -> None:
        """Forget the journal."""
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- reading ----------------------------------------------------------

    def entries(self) -> List[dict]:
        """Every parseable record, in append order; torn lines skipped."""
        self._skipped_lines = 0
        records: List[dict] = []
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return records
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                self._skipped_lines += 1
                continue
            if isinstance(entry, dict) and entry.get("schema") == JOURNAL_SCHEMA:
                records.append(entry)
            else:
                self._skipped_lines += 1
        return records

    def summary(self) -> JournalSummary:
        """The end-of-run integrity summary over the whole journal."""
        records = self.entries()
        return JournalSummary(
            records=len(records),
            ok=sum(1 for e in records if e.get("status") == "ok"),
            failed=sum(1 for e in records if e.get("status") == "failed"),
            cached=sum(1 for e in records if e.get("cached")),
            degraded=sum(1 for e in records if e.get("degraded")),
            retried=sum(1 for e in records if e.get("attempts", 1) > 1),
            skipped_lines=self._skipped_lines,
        )
