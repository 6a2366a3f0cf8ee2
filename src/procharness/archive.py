"""Line-delimited run archives: one self-contained JSON document per run."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .model import INLINE, Jsonable, Procedure, RunRecord, Verdict


@dataclass(frozen=True)
class RunDocument(Jsonable):
    """A run plus its ground truth and (after classification) verdicts.

    ``expected`` is the conformance target at the agent level; for runs of
    the tool-encapsulated approach ``expected_flattened`` additionally holds
    the step-level procedure the internal execution must match. On disk
    the run's own keys sit at the top level of the document.
    """

    run: RunRecord = field(metadata=INLINE)
    scenario: str
    k: int
    expected: Procedure
    expected_flattened: Procedure | None = None
    verdict_agent: Verdict | None = None
    verdict_flattened: Verdict | None = None


def append_document(path: Path, doc: RunDocument) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc.to_dict(), sort_keys=True) + "\n")


def drop_torn_tail(path: Path) -> None:
    """Cut a last line that lacks its newline, as a crash in mid-write
    leaves it, so that the next append starts a line of its own. The run
    that line held is then missing and gets redone."""
    if path.exists():
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            os.truncate(path, end)


def iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def existing_run_ids(path: Path) -> set[str]:
    """Run ids already present in an archive (for resumable batches)."""
    ids: set[str] = set()
    if not path.exists():
        return ids
    for _, line in iter_lines(path):
        try:
            ids.add(json.loads(line)["run_id"])
        except (json.JSONDecodeError, KeyError):
            continue
    return ids


def load_documents(path: Path) -> list[RunDocument]:
    return [RunDocument.from_dict(json.loads(line)) for _, line in iter_lines(path)]
