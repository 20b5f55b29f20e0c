"""Knowledge-set history: edit log, checkpoints, and reversion (§4.2.2).

Every published change to the knowledge set is recorded as an
:class:`EditRecord` in an append-only history with a logical clock.
Checkpoints snapshot the full set; :meth:`KnowledgeSetHistory.revert_to`
restores any prior checkpoint — "full visibility for reversion, comparison,
and systematic learning from prior feedback".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .models import component_ref


@dataclass(frozen=True)
class EditRecord:
    """One applied edit, as shown in the Knowledge Set Library timeline."""

    timestamp: int
    action: str          # insert / update / delete
    component_kind: str  # example / instruction / schema / intent
    component_id: str
    summary: str
    feedback_id: str = ""
    author: str = ""


@dataclass(frozen=True)
class Checkpoint:
    """A named snapshot of the knowledge set at a logical time."""

    checkpoint_id: str
    timestamp: int
    label: str
    snapshot: dict = field(hash=False, compare=False, default=None)


class KnowledgeSetHistory:
    """Audit log + checkpoint store wrapped around one knowledge set."""

    def __init__(self, knowledge_set):
        self.knowledge_set = knowledge_set
        self._clock = 0
        self._records = []
        self._checkpoints = []
        self.checkpoint("initial")

    # -- clock ----------------------------------------------------------

    def tick(self):
        self._clock += 1
        return self._clock

    @property
    def now(self):
        return self._clock

    # -- recording ----------------------------------------------------------

    def record(self, action, component_kind, component_id, summary,
               feedback_id="", author=""):
        """Append one edit record (caller applies the edit itself)."""
        record = EditRecord(
            timestamp=self.tick(),
            action=action,
            component_kind=component_kind,
            component_id=component_id,
            summary=summary,
            feedback_id=feedback_id,
            author=author,
        )
        self._records.append(record)
        return record

    def records(self, component_kind=None, feedback_id=None):
        """History, newest first, optionally filtered."""
        selected = self._records
        if component_kind is not None:
            selected = [
                record for record in selected
                if record.component_kind == component_kind
            ]
        if feedback_id is not None:
            selected = [
                record for record in selected
                if record.feedback_id == feedback_id
            ]
        return sorted(selected, key=lambda record: -record.timestamp)

    # -- checkpoints ----------------------------------------------------------

    def checkpoint(self, label=""):
        checkpoint = Checkpoint(
            checkpoint_id=f"ckpt-{len(self._checkpoints) + 1:04d}",
            timestamp=self.tick(),
            label=label or f"checkpoint {len(self._checkpoints) + 1}",
            snapshot=self.knowledge_set.snapshot(),
        )
        self._checkpoints.append(checkpoint)
        return checkpoint

    def checkpoints(self):
        return list(self._checkpoints)

    def revert_to(self, checkpoint_id):
        """Restore the knowledge set to a prior checkpoint's contents."""
        checkpoint = self._find(checkpoint_id)
        self.knowledge_set.restore(checkpoint.snapshot)
        self.record(
            "revert", "knowledge_set", checkpoint_id,
            f"Reverted to {checkpoint.label!r}",
        )
        return checkpoint

    def diff(self, older_id, newer_id):
        """Component ids added/removed between two checkpoints."""
        older = self._find(older_id).snapshot
        newer = self._find(newer_id).snapshot
        report = {}
        for kind in ("examples", "instructions", "schema_elements", "intents"):
            old_ids = {component_ref(item)[1] for item in older[kind]}
            new_ids = {component_ref(item)[1] for item in newer[kind]}
            report[kind] = {
                "added": sorted(new_ids - old_ids),
                "removed": sorted(old_ids - new_ids),
            }
        return report

    def _find(self, checkpoint_id):
        for checkpoint in self._checkpoints:
            if checkpoint.checkpoint_id == checkpoint_id:
                return checkpoint
        raise KeyError(f"Unknown checkpoint {checkpoint_id!r}")

