"""Cross-module flows: batches over real sockets, remote-backend behavior
against a fake endpoint, stage purity, and worker-pool determinism."""

from __future__ import annotations

import _thread
import csv
import dataclasses
import gc
import io
import itertools
import json
import os
import re
import stat
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from procharness import agent, cli, prompts, runner
from procharness.agent import (
    Approach,
    RemoteEndpointConfig,
    build_context,
    descriptor_to_chat_tool,
)
from procharness.archive import (
    TAIL_BLOCK,
    RunDocument,
    append_document,
    drop_torn_tail,
    dumps_sorted,
    load_documents,
)
from procharness.classify import classify
from procharness.config import (
    HarnessConfig,
    ModelConfig,
    ScenarioAConfig,
    ScenarioBConfig,
    config_from_dict,
)
from procharness.model import (
    CallOrigin,
    ModelError,
    ObservedTrace,
    Outcome,
    TerminatedReason,
    ToolCallRecord,
    TraceLevel,
    effective_trace,
)
from procharness.runner import (
    SCENARIO_A,
    SCENARIO_B,
    HarnessEnv,
    RunCell,
    classify_archive,
    execute_run,
    run_batch,
    visible_registry,
    write_reports,
)
from procharness.toolsim import (
    AUTH_TOOL,
    ENCAP_TOOL,
    ENCAPSULATED_SERVER_ID,
    KPI_SERVER_ID,
    KPI_TOOL_NAMES,
    META_TOOL_NAME,
    PROCEDURE_SERVER_ID,
    SESSION_TYPES,
    default_fixtures,
)
from procharness.toolsim.ue import static_family_compatible
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
    ctx = env.plans(SCENARIO_A)[Approach.A1, 3].context
    assert fetched == prompts.UE_PROCEDURE_SET_TEXT
    assert fetched in ctx.system_prompt
    again = transport.call_tool(2, META_TOOL_NAME, {}, "s")[0].result
    assert again == fetched


def test_empty_repository_config_degrades_gracefully():
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, repository_text="")
    )
    env = HarnessEnv(config)
    ctx = env.plans(SCENARIO_A)[Approach.A1, 3].context
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


@pytest.mark.parametrize(
    "content, kept",
    [
        (b"", b""),
        (b"a\n" * 3, b"a\n" * 3),
        (b"a\n" + b"x" * (3 * TAIL_BLOCK + 7), b"a\n"),
        (b"y" * (TAIL_BLOCK - 1) + b"\n" + b"x" * TAIL_BLOCK,
         b"y" * (TAIL_BLOCK - 1) + b"\n"),
        (b"x" * (2 * TAIL_BLOCK + 1), b""),
    ],
    ids=["empty", "whole", "torn-over-blocks", "newline-ends-a-block", "no-newline"],
)
def test_drop_torn_tail_cuts_back_to_the_last_newline(tmp_path, content, kept):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(content)
    drop_torn_tail(path)
    assert path.read_bytes() == kept


@pytest.mark.parametrize("umask", [0o000, 0o022, 0o077])
def test_append_document_creates_the_archive_as_umask_allows(tmp_path, umask):
    run_batch(_small_config(), SCENARIO_A, tmp_path / "runs_a.jsonl")
    doc = load_documents(tmp_path / "runs_a.jsonl")[0]
    path = tmp_path / "new.jsonl"
    old = os.umask(umask)
    try:
        append_document(path, doc)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert load_documents(path) == [doc]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_values)
def test_the_shared_encoder_writes_what_json_dumps_writes(value):
    assert dumps_sorted(value) == json.dumps(value, sort_keys=True)


def _ten_b_cells(workers):
    return HarnessConfig(
        workers=workers, scenario_b=ScenarioBConfig(runs_per_cell=5, k_values=(1, 2))
    )


@pytest.fixture(scope="module")
def uninterrupted_b_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("uninterrupted_b") / "runs_b.jsonl"
    run_batch(_ten_b_cells(1), SCENARIO_B, path)
    return path.read_bytes()


def _raise(stopped):
    raise RuntimeError("the run failed")


def _ctrl_c(stopped):
    _thread.interrupt_main()  # on the batch thread, raises before the next line
    stopped.set()
    time.sleep(0.05)  # a helper lets the batch thread take the interrupt


def _raise_on_a_helper(stopped):
    """Fails the first run a helper thread takes; the batch thread's runs
    wait until it has, so the failure reaches the batch from the helper."""
    raise RuntimeError("the run failed on a helper thread")


@pytest.mark.parametrize(
    "stop, raised, workers",
    [
        (_raise, RuntimeError, 1),
        (_raise, RuntimeError, 2),
        (_ctrl_c, KeyboardInterrupt, 1),
        (_ctrl_c, KeyboardInterrupt, 2),
        (_raise_on_a_helper, RuntimeError, 2),
    ],
)
def test_a_failed_run_or_ctrl_c_starts_no_further_run(
    tmp_path, monkeypatch, uninterrupted_b_archive, workers, stop, raised
):
    config = _ten_b_cells(workers)
    second = HarnessEnv(config).cells(SCENARIO_B)[1].run_id
    started = []
    stopped = threading.Event()

    def execute(env, cell):
        started.append(cell.run_id)
        on_a_helper = threading.current_thread() is not threading.main_thread()
        if stop is _raise_on_a_helper:
            stops, waits = on_a_helper, not on_a_helper
        else:
            # a later cell goes on once the second has stopped the batch
            stops, waits = cell.run_id == second, len(started) > 2
        if stops:
            try:
                stop(stopped)
            finally:
                stopped.set()
        elif waits:
            stopped.wait(10)
        return execute_run(env, cell)

    monkeypatch.setattr(runner, "execute_run", execute)
    threads = set(threading.enumerate())
    path = tmp_path / "runs_b.jsonl"
    with pytest.raises(raised):
        run_batch(config, SCENARIO_B, path)
    assert len(started) <= workers + 1
    assert set(threading.enumerate()) <= threads
    # a batch stopped before its first line leaves no archive, the empty prefix
    assert uninterrupted_b_archive.startswith(path.read_bytes() if path.exists() else b"")
    monkeypatch.undo()
    run_batch(config, SCENARIO_B, path)
    assert path.read_bytes() == uninterrupted_b_archive


def test_progress_and_lines_are_the_same_at_any_worker_count(tmp_path):
    config = HarnessConfig(scenario_b=ScenarioBConfig(runs_per_cell=20, k_values=(1, 2, 3)))
    threads = set(threading.enumerate())
    archives = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so that workers racing on shared state would interleave
    try:
        for workers in (1, 4):
            messages = []
            path = tmp_path / f"runs_b_{workers}.jsonl"
            config = dataclasses.replace(config, workers=workers)
            run_batch(config, SCENARIO_B, path, progress=messages.append)
            assert messages == ["B: 25/60 runs done", "B: 50/60 runs done", "B: 60/60 runs done"]
            assert set(threading.enumerate()) <= threads
            archives.append(path.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert archives[0] == archives[1]


def test_reports_keep_a_model_id_that_holds_a_comma_pipe_or_quote(tmp_path):
    ids = ("gpt,4|x", 'say "hi"')
    config = _small_config(models=tuple(ModelConfig(model_id=m) for m in ids))
    raw, classified = tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl"
    run_batch(config, SCENARIO_A, raw)
    classify_archive(config, raw, classified)
    # the config refuses a line break in an id, but a foreign line can hold one
    foreign = json.loads(classified.read_bytes().splitlines()[0])
    with open(classified, "a", encoding="utf-8") as fh:
        # and the scenario of a foreign line can hold a comma or a line break
        for key, value in (("model_id", "gpt\nx"), ("scenario", "A,x\ny")):
            fh.write(json.dumps({**foreign, key: value}, sort_keys=True) + "\n")
    csv_path, md_path = tmp_path / "summary.csv", tmp_path / "report.md"
    write_reports(load_documents(classified), csv_path, md_path)

    rows = list(csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8"), newline="")))
    assert len(rows) == 1 + 4 * len(ids) + 2
    assert {len(row) for row in rows} == {19}
    assert {row[2] for row in rows[1:]} == {*ids, "gpt\nx"}
    assert [row[0] for row in rows[1:]].count("A,x\ny") == 1

    def cells(line):
        return len(re.findall(r"(?<!\\)\|", line)) - 1

    header = None
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = cells(line)
        else:
            assert cells(line) == header, line
    assert "| gpt,4\\|x |" in md_path.read_text(encoding="utf-8")
    assert md_path.read_text(encoding="utf-8").count("| gpt<br>x |") == 2
    assert "\n## Scenario A,x<br>y\n" in md_path.read_text(encoding="utf-8")


def test_report_holds_one_run_at_a_time(tmp_path):
    config = _small_config(scenario_b=ScenarioBConfig(runs_per_cell=10, k_values=(5, 10)))
    raw, classified = tmp_path / "runs_b.jsonl", tmp_path / "classified.jsonl"
    run_batch(config, SCENARIO_B, raw)
    classify_archive(config, raw, classified)
    refs, most_alive = [], []

    def docs():
        with open(classified, "rb") as fh:
            for line in fh:
                doc = RunDocument.from_dict(json.loads(line))
                most_alive.append(sum(r() is not None or d() is not None for d, r in refs))
                refs.append((weakref.ref(doc), weakref.ref(doc.run)))
                yield doc

    gc.disable()
    try:
        summaries = write_reports(docs(), tmp_path / "summary.csv", tmp_path / "report.md")
    finally:
        gc.enable()
    assert sum(s.runs for s in summaries) == len(refs) == 20
    assert max(most_alive) <= 1, most_alive


_STATIC_IPS = {"IPv4": "10.0.0.42", "IPv6": "2001:db8::42"}


@st.composite
def _allocation(draw):
    """A fixture set and a request that take the rejected, the static-IP or
    the DHCP branch of the allocation rules."""
    branch = draw(st.sampled_from(["rejected", "static", "dhcp"]))
    event(f"{branch} branch")
    session_type = draw(st.sampled_from(list(_STATIC_IPS) if branch == "static" else SESSION_TYPES))
    authorized = draw(st.sets(st.sampled_from([t for t in SESSION_TYPES if t != session_type])))
    static_ip = draw(st.sampled_from([None, *_STATIC_IPS.values()]))
    if branch == "static":
        static_ip = _STATIC_IPS[session_type]
    elif branch == "dhcp" and static_ip and static_family_compatible(static_ip, session_type):
        static_ip = None  # a static address of another family leaves DHCP to run
    if branch != "rejected":
        authorized.add(session_type)
    fixture = {"ue_id": "ue-001", "authorized_session_types": sorted(authorized)}
    ue_id = draw(st.sampled_from(["ue-001", "ue-404"])) if branch == "rejected" else "ue-001"
    return [{**fixture, "static_ip": static_ip}], {"ue_id": ue_id, "session_type": session_type}


_FAULTS = st.one_of(
    st.just({}),
    st.just({"kind": "no_calls"}),
    st.fixed_dictionaries({
        "kind": st.sampled_from(
            ["stop_after", "duplicate_step", "swap_steps", "hallucinate_name_at", "drop_param_at"]
        ),
        "step": st.integers(1, 6),
    }),
    st.fixed_dictionaries({
        "kind": st.just("call_outside_at"),
        "step": st.integers(1, 6),
        "tool": st.sampled_from([AUTH_TOOL, ENCAP_TOOL, KPI_TOOL_NAMES[0]]),
    }),
    st.fixed_dictionaries({
        "kind": st.just("random_stop"),
        "prob": st.floats(0, 1),
        "seed": st.integers(0, 99),
    }),
)


@st.composite
def _configs(draw):
    fixtures, request = draw(_allocation())
    approaches = st.lists(st.sampled_from([a.value for a in Approach]), min_size=1, unique=True)
    faults = draw(st.lists(_FAULTS, min_size=1, max_size=3))
    return config_from_dict({
        "seed": draw(st.integers(0, 2**16)),
        "workers": draw(st.integers(1, 4)),
        "tool_latency_ms": draw(st.integers(0, 2)),
        "scenario_a": {
            "runs_per_cell": draw(st.integers(1, 2)),
            "approaches": draw(approaches),
            "fixtures": fixtures,
            "request": request,
        },
        "scenario_b": {
            "runs_per_cell": draw(st.integers(1, 2)),
            "k_values": draw(st.lists(st.integers(1, 10), min_size=1, max_size=3, unique=True)),
        },
        "models": [{"model_id": f"m{i}", "fault": fault} for i, fault in enumerate(faults)],
    })


def _archive_bytes(config, scenario, path, server_urls=None):
    """The archive a batch leaves, or None when its config is refused: then
    no line is written."""
    before = path.read_bytes() if path.exists() else b""
    try:
        run_batch(config, scenario, path, server_urls)
    except ModelError:
        assert (path.read_bytes() if path.exists() else b"") == before
        return None
    return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(config=_configs(), data=st.data())
def test_every_transport_worker_count_and_resume_gives_one_archive(config, data):
    with tempfile.TemporaryDirectory() as tmp:
        env = HarnessEnv(config)
        servers = [ToolServer(env.hosts[i]).start() for i in (1, 2, 3)]
        try:
            urls = {i: server.url for i, server in zip((1, 2, 3), servers)}
            for scenario in (SCENARIO_A, SCENARIO_B):
                name = scenario.lower()
                serial = dataclasses.replace(config, workers=1)
                expected = _archive_bytes(serial, scenario, Path(tmp, f"serial_{name}.jsonl"))
                event(f"scenario {scenario} {'refused' if expected is None else 'ran'}")
                archive = Path(tmp, f"resumed_{name}.jsonl")
                if expected is not None:
                    archive.write_bytes(expected[: data.draw(st.integers(0, len(expected)))])
                assert _archive_bytes(config, scenario, archive) == expected
                for label, urls_or_none in (("loopback", None), ("http", urls)):
                    path = Path(tmp, f"{label}_{name}.jsonl")
                    assert _archive_bytes(config, scenario, path, urls_or_none) == expected
        finally:
            for server in servers:
                server.close()


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
    # one context per approach of scenario A, and none for scenario B
    assert counts == {
        "make_allocation_intent": 1,
        "ground_truth_procedure": 1,
        "allocation_plan": 1,
        "build_context": len(config.scenario_a.approaches),
    }
    # classify judges each line against the ground truth the line carries
    counts.clear()
    classify_archive(config, tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl")
    assert not counts


def test_the_fault_free_calls_of_every_plan_classify_correct():
    """A plan's expected procedure and the calls a fault-free model plays
    agree, for every request the fixtures can meet, every approach, and
    stress lengths from 1 to the pool size."""
    requests = itertools.product([*default_fixtures(), "ue-999"], SESSION_TYPES)
    batches = [
        (HarnessConfig(scenario_a=ScenarioAConfig(request={"ue_id": u, "session_type": s})),
         SCENARIO_A)
        for u, s in requests
    ]
    batches.append((HarnessConfig(scenario_b=ScenarioBConfig(k_values=(1, 50, 100))), SCENARIO_B))
    for config, scenario in batches:
        plans = HarnessEnv(config).plans(scenario)
        assert len(plans) == (4 if scenario == SCENARIO_A else 3)
        for (approach, k), plan in plans.items():
            records = tuple(
                ToolCallRecord(i, name, args, None, True, 0, 0)
                for i, (name, args) in enumerate(plan.calls, start=1)
            )
            registry = visible_registry(scenario, approach)
            verdict = classify(plan.expected, ObservedTrace(records), registry)
            assert verdict.outcome is Outcome.CORRECT, (config.scenario_a.request, approach, k)


def test_classify_reads_no_run_plan(tmp_path):
    """A request whose plans differ from the archive's leaves ``classify``
    unchanged: it reads no plan, so it judges an archive the same under it."""
    archive = tmp_path / "runs_a.jsonl"
    run_batch(HarnessConfig(), SCENARIO_A, archive)
    other = ScenarioAConfig(request={"ue_id": "ue-002", "session_type": "IPv4v6"})
    default_out, other_out = tmp_path / "default.jsonl", tmp_path / "other.jsonl"
    classify_archive(HarnessConfig(), archive, default_out)
    classify_archive(HarnessConfig(scenario_a=other), archive, other_out)
    assert other_out.read_bytes() == default_out.read_bytes()


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


def test_a_view_that_keeps_every_record_is_the_trace_itself(tmp_path):
    config = _small_config(scenario_b=ScenarioBConfig(runs_per_cell=1, k_values=(5, 10)))
    docs = []
    for scenario in (SCENARIO_A, SCENARIO_B):
        run_batch(config, scenario, tmp_path / f"runs_{scenario}.jsonl")
        docs += load_documents(tmp_path / f"runs_{scenario}.jsonl")
    for doc in docs:
        run = doc.run
        agent = effective_trace(run, TraceLevel.AGENT, visible_registry(doc.scenario, run.approach))
        if run.approach in (Approach.A1, Approach.A3):  # scenario B runs A1 only
            assert agent == run.trace
            continue
        records = run.trace.records
        issued = tuple(r for r in records if r.origin is CallOrigin.AGENT_ISSUED)
        if run.approach is Approach.A2:
            assert issued == records and records[0].tool_name == META_TOOL_NAME
            assert agent == ObservedTrace(records[1:])
        else:
            flat = effective_trace(run, TraceLevel.FLATTENED, runner.FLATTENED_REGISTRY)
            assert agent == ObservedTrace(issued)
            assert flat == ObservedTrace(records[1:])
            assert {r.origin for r in flat.records} == {CallOrigin.TOOL_INTERNAL}
        assert agent is not run.trace
    assert {d.scenario for d in docs} == {SCENARIO_A, SCENARIO_B}


def test_classify_in_place_gives_the_same_bytes(tmp_path, capsys):
    run_batch(_small_config(), SCENARIO_A, tmp_path / "runs_a.jsonl")
    assert cli.main(["classify", "--scenario", "A", "--out", str(tmp_path)]) == 0
    classified = tmp_path / "runs_a_classified.jsonl"
    before = classified.read_bytes()
    argv = ["classify", "--scenario", "A", "--out", str(tmp_path), "--archive", str(classified)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("classified 8 runs")
    assert classified.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs_a.jsonl", classified.name]


def _verdicts(data):
    """The verdict keys of a line as classifying it whole sets them."""
    doc = RunDocument.from_dict(data)
    registry = visible_registry(doc.scenario, doc.run.approach)
    view = effective_trace(doc.run, TraceLevel.AGENT, registry)
    verdicts = {
        "verdict_agent": classify(doc.expected, view, registry).to_dict(),
        "verdict_flattened": None,
    }
    if doc.expected_flattened is not None:
        flat = effective_trace(doc.run, TraceLevel.FLATTENED, runner.FLATTENED_REGISTRY)
        verdict = classify(doc.expected_flattened, flat, runner.FLATTENED_REGISTRY)
        verdicts["verdict_flattened"] = verdict.to_dict()
    return verdicts


@settings(max_examples=60, deadline=None)
@given(config=_configs())
def test_classify_gives_the_bytes_of_a_whole_line_encode(config):
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in (SCENARIO_A, SCENARIO_B):
            archive = Path(tmp, f"runs_{scenario.lower()}.jsonl")
            refused = _archive_bytes(config, scenario, archive) is None
            event(f"scenario {scenario} {'refused' if refused else 'ran'}")
            if refused:
                continue
            out = Path(tmp, f"classified_{scenario.lower()}.jsonl")
            lines = [json.loads(line) for line in archive.read_text(encoding="utf-8").splitlines()]
            assert classify_archive(config, archive, out) == (len(lines), 0)
            expected = [json.dumps({**data, **_verdicts(data)}, sort_keys=True) for data in lines]
            assert out.read_text(encoding="utf-8").splitlines() == expected
            classified = out.read_bytes()
            assert classify_archive(config, out, out) == (len(lines), 0)
            assert out.read_bytes() == classified


def test_classify_splices_only_a_line_that_ends_in_the_harness_form(tmp_path):
    """A foreign line keeps its other members and gets the verdicts a whole
    re-encode gives; only a line ending in its verdict pair as the harness
    writes it keeps its head as read."""
    archive, classified = tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl"
    run_batch(_small_config(), SCENARIO_A, archive)
    classify_archive(HarnessConfig(), archive, classified)
    for source in (archive, classified):  # null verdicts, then verdict objects
        data = json.loads(source.read_text(encoding="utf-8").splitlines()[-1])
        assert data["expected_flattened"] is not None  # an A4 run: two verdicts
        old = {key: data.pop(key) for key in ("verdict_agent", "verdict_flattened")}
        new = _verdicts(data)

        def pair(verdicts):  # the last two members and the closing brace
            return json.dumps(verdicts, sort_keys=True)[1:]

        unsorted_head = json.dumps(dict(reversed(data.items())))[:-1]
        stale_head = '{"verdict_agent": {"stale": 1}, ' + json.dumps(data, sort_keys=True)[1:-1]
        cases = {head + ", " + pair(old): head + ", " + pair(new) for head in (
            unsorted_head, stale_head)}
        for line in (
            json.dumps({**data, **old}, sort_keys=True, separators=(" ,", " : ")),
            json.dumps(data, sort_keys=True),
            json.dumps({**old, **data}),
        ):
            cases[line] = json.dumps({**data, **new}, sort_keys=True)
        foreign, out = tmp_path / "foreign.jsonl", tmp_path / "foreign_classified.jsonl"
        foreign.write_text("".join(line + "\n" for line in cases), encoding="utf-8")
        assert classify_archive(HarnessConfig(), foreign, out) == (len(cases), 0)
        written = out.read_text(encoding="utf-8").splitlines()
        assert written == list(cases.values())
        assert all(json.loads(line) == {**data, **new} for line in written)


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
        auth = self.headers.get("Authorization")
        self.server.authorization.append(auth)  # type: ignore[attr-defined]
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
    server.authorization = []
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
    registry = visible_registry(SCENARIO_A, Approach.A4)
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
    registry = visible_registry(SCENARIO_A, Approach.A1)
    verdict = classify(
        doc.expected,
        effective_trace(doc.run, TraceLevel.AGENT, registry),
        registry,
    )
    assert verdict.outcome is Outcome.NO_TOOL_CALLS


def test_live_run_converts_each_descriptor_once(fake_endpoint, monkeypatch):
    server, url = fake_endpoint
    # an endpoint may send a call's arguments as an object, not as JSON text
    as_object = _tool_call_message("static_ip_retrieval", {})
    as_object["tool_calls"][0]["function"]["arguments"] = {"ue_id": "ue-001"}
    server.script.extend(
        [
            (200, _tool_call_message("ue_authorization", {"ue_id": "ue-001", "session_type": "IPv4"})),
            (200, as_object),
        ]
    )
    monkeypatch.setenv("PROCHARNESS_API_KEY", "sk-test")
    converted = []

    def convert(descriptor):
        converted.append(descriptor["name"])
        return descriptor_to_chat_tool(descriptor)

    monkeypatch.setattr(agent, "descriptor_to_chat_tool", convert)
    endpoint = RemoteEndpointConfig(model="fake", base_url=url, retries=0, timeout_s=5.0)
    model = ModelConfig(model_id="fake", kind="openai_chat", endpoint=endpoint)
    env = HarnessEnv(HarnessConfig(scenario_a=ScenarioAConfig(runs_per_cell=1), models=(model,)))
    doc = execute_run(env, RunCell(SCENARIO_A, Approach.A1, model, 3, 1))
    assert doc.run.terminated_reason is TerminatedReason.MODEL_FINISHED
    descriptors = env.hosts[PROCEDURE_SERVER_ID].list_tools()
    assert converted == [d["name"] for d in descriptors]
    # every turn still sends the whole tool list
    tools = [descriptor_to_chat_tool(d) for d in descriptors]
    assert [request["tools"] for request in server.requests] == [tools] * 3
    assert server.authorization == ["Bearer sk-test"] * 3
    second = doc.run.trace.records[1]
    assert (second.arguments, second.success) == ({"ue_id": "ue-001"}, True)


def test_live_chat_request_carries_the_whole_conversation(fake_endpoint, monkeypatch):
    """The last request of a two-call live run holds every message of the
    run in order: the prompts, each assistant message as the endpoint sent
    it, and each tool result as its JSON text under its call id. Without an
    API key in the environment, no request carries an Authorization header."""
    server, url = fake_endpoint
    monkeypatch.delenv("PROCHARNESS_API_KEY", raising=False)
    turns = [
        {
            "content": None,
            "tool_calls": [{
                "id": call_id,
                "type": "function",
                "function": {"name": name, "arguments": json.dumps(arguments)},
            }],
        }
        for call_id, name, arguments in (
            ("c1", "ue_authorization", {"ue_id": "ue-001", "session_type": "IPv4"}),
            ("c2", "static_ip_retrieval", {}),  # a missing parameter
        )
    ]
    server.script.extend((200, turn) for turn in turns)
    endpoint = RemoteEndpointConfig(model="fake", base_url=url, retries=0, timeout_s=5.0)
    model = ModelConfig(model_id="fake", kind="openai_chat", endpoint=endpoint)
    env = HarnessEnv(HarnessConfig(scenario_a=ScenarioAConfig(runs_per_cell=1), models=(model,)))
    doc = execute_run(env, RunCell(SCENARIO_A, Approach.A1, model, 3, 1))
    assert doc.run.terminated_reason is TerminatedReason.MODEL_FINISHED
    first, second = doc.run.trace.records
    context = build_context(
        Approach.A1,
        doc.run.intent,
        prompts.UE_PROCEDURE_SET_TEXT,
        PROCEDURE_SERVER_ID,
        explicit_procedure=doc.expected,
    )
    assert len(server.requests) == 3
    assert server.requests[-1]["messages"] == [
        {"role": "system", "content": context.system_prompt},
        {"role": "user", "content": context.user_prompt},
        {"role": "assistant", **turns[0]},
        {"role": "tool", "tool_call_id": "c1", "content": json.dumps(first.result)},
        {"role": "assistant", **turns[1]},
        {"role": "tool", "tool_call_id": "c2", "content": json.dumps(second.result)},
    ]
    assert first.success and not second.success  # an error result travels too
    assert server.authorization == [None] * 3


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
    # an endpoint that names no model serves the entry's model id
    unnamed = dataclasses.replace(endpoint, model="")
    models += (ModelConfig(model_id="cold", kind="openai_chat", endpoint=unnamed),)
    config = HarnessConfig(
        scenario_a=ScenarioAConfig(runs_per_cell=1, approaches=(Approach.A1,)),
        models=models,
    )
    archive, classified = tmp_path / "runs_a.jsonl", tmp_path / "classified.jsonl"
    run_batch(config, SCENARIO_A, archive)
    classify_archive(config, archive, classified)
    csv_path = tmp_path / "summary_a.csv"
    write_reports(load_documents(classified), csv_path, tmp_path / "report_a.md")
    assert sorted(d.run.model_id for d in load_documents(archive)) == ["cold", "cool", "warm"]
    rows = csv_path.read_text(encoding="utf-8").splitlines()[1:]
    assert sorted(row.split(",")[2] for row in rows) == ["cold", "cool", "warm"]
    # the chat request still names the endpoint's model, or else the entry's id
    assert [request["model"] for request in server.requests] == ["m", "m", "cold"]
