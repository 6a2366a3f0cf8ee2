"""Line-delimited run archives: one self-contained JSON document per run."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .model import INLINE, Jsonable, ModelError, Procedure, RunRecord, Verdict


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


def verdict_pair(agent: Any, flattened: Any) -> bytes:
    """The end of a line as ``append_document`` writes it: the verdict keys
    sort last among a document's keys."""
    pair = ', "verdict_agent": %s, "verdict_flattened": %s}' % (
        json.dumps(agent, sort_keys=True), json.dumps(flattened, sort_keys=True))
    return pair.encode("utf-8")


def drop_torn_tail(path: Path) -> None:
    """Cut a last line that lacks its newline, as a crash in mid-write
    leaves it, so that the next append starts a line of its own. The run
    that line held is then missing and gets redone."""
    if path.exists():
        data = path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            os.truncate(path, end)


def iter_lines(path: Path) -> Iterator[tuple[int, bytes]]:
    """The non-blank lines of an archive, numbered, as bytes: a caller
    decodes each one, so a line that is not UTF-8 is one bad line."""
    with open(path, "rb", buffering=1 << 16) as fh:  # over a line (up to 22 KB)
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
            ids.add(json.loads(line.decode("utf-8"))["run_id"])
        except (ValueError, KeyError, TypeError):
            continue  # not a run object: the run is not counted as done
    return ids


def load_documents(path: Path) -> list[RunDocument]:
    """Every run of an archive; a line that does not decode to a run
    raises ``ModelError`` naming it."""
    docs = []
    for lineno, line in iter_lines(path):
        try:
            docs.append(RunDocument.from_dict(json.loads(line.decode("utf-8"))))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ModelError(f"{path}:{lineno}: not a run document ({exc})") from None
    return docs
