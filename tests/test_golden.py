"""Golden bytes: a small scripted pipeline over loopback must write exactly
the files, and the tool servers send exactly the replies, recorded below.

Criterion 9 compares two runs of the same code; this test compares against
fixed SHA-256 digests, so a change that alters the archive, report, gen or
wire bytes consistently fails here. When such a change is intended, the
digests are re-recorded in the same commit and the change says why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from procharness import cli
from procharness.archive import load_documents
from procharness.config import load_config
from procharness.runner import (
    SCENARIO_A,
    SCENARIO_B,
    HarnessEnv,
    classify_archive,
    run_batch,
    write_reports,
)
from procharness.wire import handle_rpc

GOLDEN_CONFIG = {
    "seed": 42,
    "workers": 1,
    "scenario_a": {"runs_per_cell": 2},
    "scenario_b": {"runs_per_cell": 2, "k_values": [5, 10]},
    "models": [
        {"model_id": "clean"},
        {"model_id": "stop1", "fault": {"kind": "stop_after", "step": 1}},
        {"model_id": "halluc1", "fault": {"kind": "hallucinate_name_at", "step": 1}},
        {"model_id": "rstop", "fault": {"kind": "random_stop", "prob": 0.3, "seed": 7}},
    ],
}

GOLDEN_FILES = {
    "kpi_pool.json": "7f9f3d52e67e108fc4912c0f67e3f3c6196c226dc3e33507cb3ed091bd069288",
    "stress_k005.json": "721ebce30a446524095a1cee80ca183c9b339e49270cb88a7198abbc801e243c",
    "stress_k010.json": "916d0134b8ac39f8ec8883b8dbfcfc55036a6c0d9616a774fcd2db77312cd6b4",
    "runs_a.jsonl": "32531e279c5e4288bfc7391c5ac5da67b7a6937dc73cef29ca257ad8d51de869",
    "runs_a_classified.jsonl": "aca7ca0c1c4b19ec3c9abb346d6bed2da1fe2a4cd02219c1d5a878fc08e04647",
    "summary_a.csv": "4bf7e6dddca9bc20f27f4effb211822c5ac9f6833c1c0d8407bdea1c817a4bd6",
    "report_a.md": "6a3c03707c4e7cc244a38a25d0fd1d88adc609b624ffd6e4cb00302ed22e2bdb",
    "runs_b.jsonl": "bfc8b26c0711abb7a7d24f096a50ca4b479e773b5aef1018994269fab7778353",
    "runs_b_classified.jsonl": "924df57ac1a0469a37c7c9ae1a91943a6208fba0e01b4411c5fb6750a71fb3bf",
    "summary_b.csv": "c7508d0e0918d0db03e6586d85c9c5ec226b181c5912db10c5f071bc09c2368f",
    "report_b.md": "b71add02d35ee1d692b800dfcb040f38df3e34904e04d2bae51fd147f5b69e0d",
}

GOLDEN_WIRE = {
    "tools/list 1": "ea09599864ad540ed1b6bc4f2f192c7fc5a6fd78f7ce3f9236a506f9ce30f07d",
    "tools/list 2": "f4a9574b750782cef5134a6bd9b30bc2261d7fab2e2fa509829a81e301b43d03",
    "tools/list 3": "ecf5cfa6d2ca309fa9014ac776b15d065e85bd514c9b84f38cb6034222f65890",
    "tools/call ue_ip_allocation": "62f155bb97f4ff56d73e98daac5e44db583fd696d68e5075669a8bcdca800bca",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _TickClock:
    """Moves one millisecond on every reading, so that the internal calls
    of an encapsulated tool get distinct, non-zero offsets and durations."""

    def __init__(self) -> None:
        self._now = 1000

    def now_ms(self) -> int:
        self._now += 1
        return self._now

    def advance(self, ms: int) -> None:
        self._now += ms


@pytest.fixture(scope="module")
def golden_config_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "config.json"
    path.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
    return path


def test_pipeline_files_are_byte_identical(tmp_path, golden_config_path):
    out = tmp_path / "out"
    gen_args = argparse.Namespace(
        config=golden_config_path, seed=None, workers=None, out=out
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.cmd_gen(gen_args) == cli.EXIT_OK
    config = load_config(golden_config_path)
    for scenario in (SCENARIO_A, SCENARIO_B):
        s = scenario.lower()
        raw = out / f"runs_{s}.jsonl"
        classified = out / f"runs_{s}_classified.jsonl"
        stats = run_batch(config, scenario, raw)
        assert stats.backend_errors == 0
        assert classify_archive(config, raw, classified)[1] == 0
        write_reports(
            load_documents(classified), out / f"summary_{s}.csv", out / f"report_{s}.md"
        )
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(GOLDEN_FILES)
    got = {name: _sha256((out / name).read_bytes()) for name in GOLDEN_FILES}
    assert got == GOLDEN_FILES


def test_wire_replies_are_byte_identical(golden_config_path):
    env = HarnessEnv(load_config(golden_config_path))
    got = {}
    for server_id in sorted(env.hosts):
        reply = handle_rpc(
            env.hosts[server_id],
            {"jsonrpc": "2.0", "id": server_id, "method": "tools/list"},
            "discovery",
            _TickClock(),
        )
        got[f"tools/list {server_id}"] = _sha256(json.dumps(reply).encode("utf-8"))
    call = {
        "jsonrpc": "2.0",
        "id": 7,
        "method": "tools/call",
        "params": {
            "name": "ue_ip_allocation",
            "arguments": {"ue_id": "ue-002", "session_type": "IPv4v6"},
        },
    }
    reply = handle_rpc(env.hosts[1], call, "golden-run", _TickClock())
    assert len(reply["result"]["internal_calls"]) == 5
    got["tools/call ue_ip_allocation"] = _sha256(json.dumps(reply).encode("utf-8"))
    assert got == GOLDEN_WIRE
