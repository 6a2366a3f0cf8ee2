"""Cross-module flows: batches over real sockets, remote-backend behavior
against a fake endpoint, stage purity, and worker-pool determinism."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
import pytest

from procharness import prompts
from procharness.agent import Approach, RemoteEndpointConfig, build_context
from procharness.archive import load_documents
from procharness.classify import classify
from procharness.config import (
    HarnessConfig,
    ModelConfig,
    ScenarioAConfig,
    ScenarioBConfig,
)
from procharness.model import Outcome, TerminatedReason, TraceLevel, effective_trace
from procharness.runner import (
    SCENARIO_A,
    SCENARIO_B,
    HarnessEnv,
    RunCell,
    classify_archive,
    execute_run,
    run_batch,
    write_reports,
)
from procharness.toolsim import META_TOOL_NAME, make_allocation_intent
from procharness.wire import ToolServer


def _small_config(**overrides) -> HarnessConfig:
    scenario_a = ScenarioAConfig(runs_per_cell=2)
    return HarnessConfig(scenario_a=scenario_a, **overrides)


def test_batch_over_real_sockets(tmp_path):
    config = _small_config()
    env = HarnessEnv(config)
    servers = [ToolServer(env.hosts[i]).start() for i in (1, 2, 3)]
    try:
        urls = {i: server.url for i, server in zip((1, 2, 3), servers)}
        archive = tmp_path / "runs_a.jsonl"
        stats = run_batch(config, SCENARIO_A, archive, server_urls=urls)
        assert stats.attempted == 8 and stats.backend_errors == 0
        classified = tmp_path / "classified.jsonl"
        classify_archive(config, archive, classified)
        docs = load_documents(classified)
        assert all(d.verdict_agent.outcome is Outcome.CORRECT for d in docs)
        a4 = [d for d in docs if d.run.approach is Approach.A4]
        assert a4 and all(d.verdict_flattened.outcome is Outcome.CORRECT for d in a4)
        # virtual timing survives the socket hop: unit latency per turn/call
        for doc in docs:
            assert doc.run.llm_steps[0][1] - doc.run.llm_steps[0][0] == 1
    finally:
        for server in servers:
            server.close()


def test_http_batch_matches_loopback_with_one_connection_per_run(
    tmp_path, accepted_connections
):
    config = HarnessConfig(
        workers=2, scenario_b=ScenarioBConfig(runs_per_cell=2, k_values=(5, 10))
    )
    loopback = tmp_path / "loopback.jsonl"
    run_batch(config, SCENARIO_B, loopback)

    env = HarnessEnv(config)
    servers = [ToolServer(env.hosts[i]).start() for i in (1, 2, 3)]
    try:
        urls = {i: server.url for i, server in zip((1, 2, 3), servers)}
        over_http = tmp_path / "http.jsonl"
        stats = run_batch(config, SCENARIO_B, over_http, server_urls=urls)
    finally:
        for server in servers:
            server.close()
    assert stats.attempted == 4 and stats.backend_errors == 0
    assert over_http.read_bytes() == loopback.read_bytes()
    # scenario B uses the KPI server (id 3) only
    assert accepted_connections == [servers[2].address[1]] * 4


def test_repository_fetch_matches_embedded_rendering():
    env = HarnessEnv(HarnessConfig())
    from procharness.model import VirtualClock
    from procharness.wire import LoopbackTransport

    transport = LoopbackTransport(env.hosts, VirtualClock())
    fetched = transport.call_tool(2, META_TOOL_NAME, {}, "s").content
    intent = make_allocation_intent("ue-001", "IPv4")
    ctx = build_context(Approach.A1, intent, env.prompts_a)
    assert fetched == prompts.UE_PROCEDURE_SET_TEXT
    assert fetched in ctx.system_prompt
    again = transport.call_tool(2, META_TOOL_NAME, {}, "s").content
    assert again == fetched


def test_empty_repository_config_degrades_gracefully():
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, repository_text="")
    )
    env = HarnessEnv(config)
    intent = make_allocation_intent("ue-001", "IPv4")
    ctx = build_context(Approach.A1, intent, env.prompts_a)
    assert ctx.system_prompt == prompts.SYSTEM_BASE
    from procharness.model import VirtualClock
    from procharness.wire import LoopbackTransport

    transport = LoopbackTransport(env.hosts, VirtualClock())
    assert transport.call_tool(2, META_TOOL_NAME, {}, "s").content == ""


def test_classify_and_report_are_pure_stages(tmp_path):
    config = _small_config()
    archive = tmp_path / "runs_a.jsonl"
    run_batch(config, SCENARIO_A, archive)
    first = tmp_path / "c1.jsonl"
    second = tmp_path / "c2.jsonl"
    classify_archive(config, archive, first)
    classify_archive(config, archive, second)
    assert first.read_bytes() == second.read_bytes()

    docs = load_documents(first)
    csv1, md1 = tmp_path / "s1.csv", tmp_path / "r1.md"
    csv2, md2 = tmp_path / "s2.csv", tmp_path / "r2.md"
    write_reports(docs, csv1, md1)
    write_reports(docs, csv2, md2)
    assert csv1.read_bytes() == csv2.read_bytes()
    assert md1.read_bytes() == md2.read_bytes()


def test_worker_pool_preserves_results(tmp_path):
    serial = _small_config(workers=1)
    parallel = _small_config(workers=4)
    a1 = tmp_path / "serial.jsonl"
    a4 = tmp_path / "parallel.jsonl"
    run_batch(serial, SCENARIO_A, a1)
    run_batch(parallel, SCENARIO_A, a4)
    assert a1.read_bytes() == a4.read_bytes()


# ---------------------------------------------------------------------------
# fake chat-completions endpoint


class _FakeChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        script = self.server.script  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(body)  # type: ignore[attr-defined]
        status, message = script.pop(0) if script else (200, {"content": "done"})
        if status != 200:
            self.send_response(status)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", **message}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def fake_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeChatHandler)
    server.script = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def _tool_call_message(name, arguments):
    return {
        "content": None,
        "tool_calls": [
            {
                "id": "c1",
                "type": "function",
                "function": {"name": name, "arguments": json.dumps(arguments)},
            }
        ],
    }


def test_remote_backend_retries_then_succeeds(fake_endpoint, monkeypatch):
    sleeps = []
    monkeypatch.setattr("procharness.agent.time.sleep", sleeps.append)
    server, url = fake_endpoint
    server.script.extend(
        [
            (500, None),
            (500, None),
            (200, _tool_call_message("ue_ip_allocation", {"ue_id": "ue-001", "session_type": "IPv4"})),
            (200, {"content": "allocation recorded"}),
        ]
    )
    endpoint = RemoteEndpointConfig(model="fake", base_url=url, retries=2, timeout_s=5.0)
    model = ModelConfig(model_id="fake", kind="openai_chat", endpoint=endpoint)
    config = HarnessConfig(scenario_a=ScenarioAConfig(runs_per_cell=1), models=(model,))
    env = HarnessEnv(config)
    doc = execute_run(env, RunCell(SCENARIO_A, Approach.A4, model, 3, 1))
    run = doc.run
    assert run.terminated_reason is TerminatedReason.MODEL_FINISHED
    assert run.final_text == "allocation recorded"
    registry = env.visible_registry(SCENARIO_A, Approach.A4)
    verdict = classify(
        doc.expected, effective_trace(run, TraceLevel.AGENT, registry), registry
    )
    assert verdict.outcome is Outcome.CORRECT
    assert sleeps == [0.5, 1.0]  # backoff before each of the two retries
    # request schema: tools with function entries went out on the wire
    first_request = server.requests[-2]
    tool_names = [t["function"]["name"] for t in first_request["tools"]]
    assert "ue_ip_allocation" in tool_names
    assert first_request["messages"][0]["role"] == "system"


def test_remote_backend_exhausted_retries_is_backend_error(fake_endpoint, monkeypatch):
    sleeps = []
    monkeypatch.setattr("procharness.agent.time.sleep", sleeps.append)
    server, url = fake_endpoint
    server.script.extend([(500, None)] * 3)
    endpoint = RemoteEndpointConfig(model="fake", base_url=url, retries=2, timeout_s=5.0)
    model = ModelConfig(model_id="fake", kind="openai_chat", endpoint=endpoint)
    config = HarnessConfig(scenario_a=ScenarioAConfig(runs_per_cell=1), models=(model,))
    env = HarnessEnv(config)
    doc = execute_run(env, RunCell(SCENARIO_A, Approach.A1, model, 3, 1))
    assert doc.run.terminated_reason is TerminatedReason.BACKEND_ERROR
    assert len(server.requests) == 3
    assert sleeps == [0.5, 1.0]  # no backoff after the last attempt
    registry = env.visible_registry(SCENARIO_A, Approach.A1)
    verdict = classify(
        doc.expected,
        effective_trace(doc.run, TraceLevel.AGENT, registry),
        registry,
    )
    assert verdict.outcome is Outcome.NO_TOOL_CALLS


def test_unreachable_backend_marks_runs_but_batch_continues(tmp_path):
    endpoint = RemoteEndpointConfig(
        model="dead", base_url="http://127.0.0.1:1", retries=0, timeout_s=0.3
    )
    dead = ModelConfig(model_id="dead", kind="openai_chat", endpoint=endpoint)
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, approaches=(Approach.A1,)),
        models=(ModelConfig(), dead),
    )
    archive = tmp_path / "runs_a.jsonl"
    stats = run_batch(config, SCENARIO_A, archive)
    assert stats.attempted == 2
    assert stats.backend_errors == 1
    docs = load_documents(archive)
    by_model = {d.run.model_id: d for d in docs}
    assert by_model["scripted"].run.terminated_reason is TerminatedReason.MODEL_FINISHED
    assert by_model["dead"].run.terminated_reason is TerminatedReason.BACKEND_ERROR
