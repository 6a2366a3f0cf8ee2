"""Cross-module flows: batches over real sockets, remote-backend behavior
against a fake endpoint, stage purity, and worker-pool determinism."""

from __future__ import annotations

import json
import tempfile
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procharness import prompts, runner
from procharness.agent import Approach, RemoteEndpointConfig
from procharness.archive import load_documents
from procharness.classify import classify
from procharness.config import (
    HarnessConfig,
    ModelConfig,
    ScenarioAConfig,
    ScenarioBConfig,
    config_from_dict,
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
from procharness.toolsim import (
    ENCAPSULATED_SERVER_ID,
    KPI_SERVER_ID,
    META_TOOL_NAME,
    PROCEDURE_SERVER_ID,
)
from procharness.wire import SERVE_POLL_S, ToolServer


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


def _fault_model(model_id, **fault):
    return config_from_dict({"models": [{"model_id": model_id, "fault": fault}]}).models[0]


def test_http_batch_matches_loopback_with_one_connection_per_run(
    tmp_path, accepted_connections
):
    # a fault-free model and one per error reply: an unknown tool (-32001), a
    # missing parameter (-32602 with the problems) and a tool of another server
    models = (
        ModelConfig(),
        _fault_model("halluc2", kind="hallucinate_name_at", step=2),
        _fault_model("drop2", kind="drop_param_at", step=2),
        _fault_model("outside2", kind="call_outside_at", step=2, tool="ue_authorization"),
    )
    config = HarnessConfig(
        workers=2,
        scenario_b=ScenarioBConfig(runs_per_cell=2, k_values=(5, 10, 50)),
        models=models,
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
    assert stats.attempted == 24 and stats.backend_errors == 0
    assert over_http.read_bytes() == loopback.read_bytes()
    # scenario B uses the KPI server (id 3) only
    assert accepted_connections == [servers[2].address[1]] * 24


def test_loopback_replies_share_no_state_a_later_run_can_see():
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1),
        scenario_b=ScenarioBConfig(runs_per_cell=2, k_values=(5, 50)),
        models=(ModelConfig(), _fault_model("drop1", kind="drop_param_at", step=1)),
    )
    env = HarnessEnv(config)
    listed = {i: json.dumps(host.list_tools()) for i, host in env.hosts.items()}
    # scenario A runs once: its DHCP cursors outlive the run
    for cell in env.cells(SCENARIO_A):
        execute_run(env, cell)

    def archived(cell):
        return json.dumps(execute_run(env, cell).to_dict(), sort_keys=True)

    cells = env.cells(SCENARIO_B)
    first = [archived(cell) for cell in cells]
    assert [archived(cell) for cell in cells] == first
    assert {i: json.dumps(host.list_tools()) for i, host in env.hosts.items()} == listed


def test_encapsulated_runs_over_http_match_loopback(tmp_path):
    # a fresh set of servers: their per-run tool state outlives a batch
    config = HarnessConfig(
        workers=2,
        scenario_a=ScenarioAConfig(
            runs_per_cell=50,
            approaches=(Approach.A4,),
            request={"ue_id": "ue-002", "session_type": "IPv4v6"},
        ),
    )
    loopback = tmp_path / "loopback.jsonl"
    run_batch(config, SCENARIO_A, loopback)

    env = HarnessEnv(config)
    servers = [ToolServer(env.hosts[i]).start() for i in (1, 2, 3)]
    try:
        urls = {i: server.url for i, server in zip((1, 2, 3), servers)}
        over_http = tmp_path / "http.jsonl"
        run_batch(config, SCENARIO_A, over_http, server_urls=urls)
    finally:
        for server in servers:
            server.close()
    assert over_http.read_bytes() == loopback.read_bytes()


def test_repository_fetch_matches_embedded_rendering():
    env = HarnessEnv(HarnessConfig())
    from procharness.model import VirtualClock
    from procharness.wire import LoopbackTransport

    transport = LoopbackTransport(env.hosts, VirtualClock())
    fetched = transport.call_tool(2, META_TOOL_NAME, {}, "s")[0].result
    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    assert fetched == prompts.UE_PROCEDURE_SET_TEXT
    assert fetched in ctx.system_prompt
    again = transport.call_tool(2, META_TOOL_NAME, {}, "s")[0].result
    assert again == fetched


def test_empty_repository_config_degrades_gracefully():
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, repository_text="")
    )
    env = HarnessEnv(config)
    ctx = env.plans[SCENARIO_A, Approach.A1, 3].context
    assert ctx.system_prompt == prompts.SYSTEM_BASE
    from procharness.model import VirtualClock
    from procharness.wire import LoopbackTransport

    transport = LoopbackTransport(env.hosts, VirtualClock())
    assert transport.call_tool(2, META_TOOL_NAME, {}, "s")[0].result == ""


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


@pytest.fixture(scope="module")
def uninterrupted_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("uninterrupted") / "runs_a.jsonl"
    run_batch(_small_config(), SCENARIO_A, path)
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resume_after_a_torn_write_gives_the_uninterrupted_archive(
    uninterrupted_archive, data
):
    # a crash can cut the archive at any byte, mid-record included
    cut = data.draw(st.integers(0, len(uninterrupted_archive)), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "runs_a.jsonl"
        archive.write_bytes(uninterrupted_archive[:cut])
        run_batch(_small_config(), SCENARIO_A, archive)
        assert archive.read_bytes() == uninterrupted_archive


def test_run_plans_are_built_once_per_batch(tmp_path, monkeypatch):
    counts = Counter()

    def counted(name):
        original = getattr(runner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in (
        "make_allocation_intent",
        "ground_truth_procedure",
        "allocation_plan",
        "build_context",
    ):
        monkeypatch.setattr(runner, name, counted(name))
    config = _small_config()
    stats = run_batch(config, SCENARIO_A, tmp_path / "runs_a.jsonl")
    assert stats.attempted == 8
    # one context per approach of scenario A and per stress length of B
    n_plans = len(config.scenario_a.approaches) + len(config.scenario_b.k_values)
    assert counts == {
        "make_allocation_intent": 1,
        "ground_truth_procedure": 1,
        "allocation_plan": 1,
        "build_context": n_plans,
    }
    # classify judges each line against the ground truth the line carries
    counts.clear()
    classify_archive(config, tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl")
    assert not counts


def test_classify_reads_no_run_plan(tmp_path):
    """A request that fails the ground-truth check stops ``run``, but
    ``classify`` reads no plan, so it judges an archive the same under it."""
    archive = tmp_path / "runs_a.jsonl"
    run_batch(HarnessConfig(), SCENARIO_A, archive)
    ipv5 = ScenarioAConfig(request={"ue_id": "ue-001", "session_type": "IPv5"})
    default_out, ipv5_out = tmp_path / "default.jsonl", tmp_path / "ipv5.jsonl"
    classify_archive(HarnessConfig(), archive, default_out)
    classify_archive(HarnessConfig(scenario_a=ipv5), archive, ipv5_out)
    assert ipv5_out.read_bytes() == default_out.read_bytes()


def test_classify_writes_back_the_line_it_read(tmp_path):
    """A line the harness did not write keeps its keys: a missing default
    stays absent and an unknown key is kept; only the verdicts are set."""
    archive = tmp_path / "runs_a.jsonl"
    run_batch(_small_config(), SCENARIO_A, archive)
    line = json.loads(archive.read_text(encoding="utf-8").splitlines()[0])
    for record in line["trace"]["records"]:
        del record["origin"]
    line["note"] = "kept"
    archive.write_text(json.dumps(line, sort_keys=True) + "\n", encoding="utf-8")
    out = tmp_path / "classified.jsonl"
    assert classify_archive(HarnessConfig(), archive, out) == (1, 0)
    classified = json.loads(out.read_text(encoding="utf-8"))
    assert classified["verdict_agent"]["outcome"] == Outcome.CORRECT.value
    assert classified == {
        **line,
        "verdict_agent": classified["verdict_agent"],
        "verdict_flattened": None,
    }


def test_worker_pool_preserves_results(tmp_path):
    serial = _small_config(workers=1)
    parallel = _small_config(workers=4)
    a1 = tmp_path / "serial.jsonl"
    a4 = tmp_path / "parallel.jsonl"
    run_batch(serial, SCENARIO_A, a1)
    run_batch(parallel, SCENARIO_A, a4)
    assert a1.read_bytes() == a4.read_bytes()


def test_hosts_keep_only_lease_counters_per_run():
    config = _small_config(scenario_b=ScenarioBConfig(runs_per_cell=2, k_values=(5,)))
    env = HarnessEnv(config)
    cells = env.cells(SCENARIO_A) + env.cells(SCENARIO_B)
    for cell in cells:
        execute_run(env, cell)
    a4 = {c.run_id for c in cells if c.approach is Approach.A4}
    step_level = {c.run_id for c in cells if c.scenario == SCENARIO_A} - a4
    for server_id, run_ids in ((ENCAPSULATED_SERVER_ID, a4), (PROCEDURE_SERVER_ID, step_level)):
        sessions = env.hosts[server_id]._sessions
        assert set(sessions) == run_ids
        assert all(type(session) is Counter for session in sessions.values())
    assert not env.hosts[KPI_SERVER_ID]._sessions  # the KPI tools keep nothing per run


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
    thread = threading.Thread(
        target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True
    )
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


def test_live_runs_carry_their_entry_model_id(tmp_path, fake_endpoint):
    server, url = fake_endpoint
    endpoint = RemoteEndpointConfig(model="m", base_url=url, retries=0, timeout_s=5.0)
    models = tuple(
        ModelConfig(model_id=name, kind="openai_chat", endpoint=endpoint)
        for name in ("cool", "warm")
    )
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, approaches=(Approach.A1,)),
        models=models,
    )
    archive, classified = tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl"
    run_batch(config, SCENARIO_A, archive)
    classify_archive(config, archive, classified)
    csv_path = tmp_path / "summary_a.csv"
    write_reports(load_documents(classified), csv_path, tmp_path / "report_a.md")
    assert sorted(d.run.model_id for d in load_documents(archive)) == ["cool", "warm"]
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    assert sorted(row.split(",")[2] for row in rows) == ["cool", "warm"]
    # the chat request still names the endpoint's model
    assert [request["model"] for request in server.requests] == ["m", "m"]
