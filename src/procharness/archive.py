"""Line-delimited run archives: one self-contained JSON document per run."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .model import INLINE, Jsonable, ModelError, Procedure, RunRecord, Verdict

TAIL_BLOCK = 1 << 16  # bytes read at a time when looking for the last newline

# one encoder for every line: ``json.dumps(..., sort_keys=True)`` builds one per call
dumps_sorted = json.JSONEncoder(sort_keys=True).encode


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
    line = (dumps_sorted(doc.to_dict()) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        while line:
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)


def _verdict_pair(agent: Any, flattened: Any) -> bytes:
    """The end of a line as ``append_document`` writes it: the verdict keys
    sort last among a document's keys."""
    pair = ', "verdict_agent": %s, "verdict_flattened": %s}' % (
        dumps_sorted(agent), dumps_sorted(flattened))
    return pair.encode("utf-8")


def with_verdicts(line: bytes, data: dict[str, Any], agent: Any, flattened: Any) -> bytes:
    """An archive line, decoded as ``data``, with its two verdict keys set.
    A line that ends in its verdict pair as ``append_document`` writes it
    keeps its bytes up to that pair; any other line is encoded anew."""
    # a valid line's last "}" closes the document, so a matching end is its
    # last two members, the ones json.loads kept
    old = _verdict_pair(data.get("verdict_agent"), data.get("verdict_flattened"))
    if line.endswith(old):
        return line[: -len(old)] + _verdict_pair(agent, flattened)
    data["verdict_agent"], data["verdict_flattened"] = agent, flattened
    return dumps_sorted(data).encode("utf-8")


def drop_torn_tail(path: Path) -> None:
    """Cut a last line that lacks its newline, as a crash in mid-write
    leaves it, so that the next append starts a line of its own. The run
    that line held is then missing and gets redone. Only the tail is read,
    a block at a time back from the end, until a newline turns up."""
    if not path.exists():
        return
    with open(path, "rb") as fh:
        size = start = fh.seek(0, os.SEEK_END)
        end = 0
        while start > 0:
            start = max(0, start - TAIL_BLOCK)
            fh.seek(start)
            cut = fh.read(TAIL_BLOCK).rfind(b"\n")
            if cut >= 0:
                end = start + cut + 1
                break
    if end < size:
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


def iter_documents(path: Path) -> Iterator[RunDocument]:
    """The runs of an archive, one at a time, in file order; the first line
    that does not decode to a run raises ``ModelError`` naming it."""
    for lineno, line in iter_lines(path):
        try:
            doc = RunDocument.from_dict(json.loads(line.decode("utf-8")))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise ModelError(f"{path}:{lineno}: not a run document ({exc})") from None
        yield doc


def load_documents(path: Path) -> list[RunDocument]:
    """Every run of an archive, as ``iter_documents`` reads them."""
    return list(iter_documents(path))
