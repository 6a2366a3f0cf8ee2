from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import procharness
from procharness.archive import load_documents
from procharness.cli import main
from procharness.config import config_from_dict, load_config
from procharness.metrics import CSV_HEADER
from procharness.model import Approach, ModelError, Outcome


@pytest.fixture()
def small_config(tmp_path: Path) -> Path:
    config = {
        "seed": 42,
        "workers": 1,
        "scenario_a": {"runs_per_cell": 2},
        "scenario_b": {"runs_per_cell": 2, "k_values": [5, 10]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _cli(*argv: str) -> int:
    return main(list(argv))


def test_config_defaults():
    config = load_config(None)
    assert config.seed == 42
    assert config.scenario_a.runs_per_cell == 50
    assert config.scenario_b.runs_per_cell == 30
    assert config.scenario_b.k_values == (5, 10, 20, 30, 40, 50)
    assert [m.kind for m in config.models] == ["scripted"]
    assert config.scenario_a.approaches == (
        Approach.A1,
        Approach.A2,
        Approach.A3,
        Approach.A4,
    )


def test_config_override_file(small_config):
    config = load_config(small_config)
    assert config.scenario_a.runs_per_cell == 2
    assert config.scenario_b.k_values == (5, 10)


def test_config_rejects_non_a1_stress():
    for approaches in (["A4"], []):
        with pytest.raises(ModelError):
            config_from_dict({"scenario_b": {"approaches": approaches}})


def test_gen_writes_deterministic_assets(tmp_path, small_config):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    assert _cli("gen", "--config", str(small_config), "--out", str(out1)) == 0
    assert _cli("gen", "--config", str(small_config), "--out", str(out2)) == 0
    pool1 = (out1 / "kpi_pool.json").read_bytes()
    pool2 = (out2 / "kpi_pool.json").read_bytes()
    assert pool1 == pool2
    assert (out1 / "stress_k005.json").exists()
    assert (out1 / "stress_k010.json").exists()
    pool = json.loads(pool1)
    assert pool["size"] == 100 and len(pool["tools"]) == 100


def test_run_classify_report_pipeline(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    assert _cli("run", "--scenario", "A", "--config", str(small_config), "--out", str(out)) == 0
    archive = out / "runs_a.jsonl"
    docs = load_documents(archive)
    assert len(docs) == 8  # 4 approaches x 2 reps
    assert all(doc.verdict_agent is None for doc in docs)

    # rerun is a no-op thanks to run-id resume
    assert _cli("run", "--scenario", "A", "--config", str(small_config), "--out", str(out)) == 0
    assert len(load_documents(archive)) == 8

    assert (
        _cli("classify", "--scenario", "A", "--config", str(small_config), "--out", str(out))
        == 0
    )
    classified = load_documents(out / "runs_a_classified.jsonl")
    assert all(d.verdict_agent.outcome is Outcome.CORRECT for d in classified)
    a4 = [d for d in classified if d.run.approach is Approach.A4]
    assert all(d.verdict_flattened is not None for d in a4)
    assert all(d.verdict_flattened.outcome is Outcome.CORRECT for d in a4)
    not_a4 = [d for d in classified if d.run.approach is not Approach.A4]
    assert all(d.verdict_flattened is None for d in not_a4)

    assert (
        _cli("report", "--scenario", "A", "--config", str(small_config), "--out", str(out))
        == 0
    )
    csv_text = (out / "summary_a.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # one row per approach
    assert all(",1.000000," in line for line in lines[1:])
    assert (out / "report_a.md").read_text().startswith("# Procedure execution report")


def test_scenario_b_pipeline(tmp_path, small_config):
    out = tmp_path / "out"
    assert _cli("run", "--scenario", "B", "--config", str(small_config), "--out", str(out)) == 0
    docs = load_documents(out / "runs_b.jsonl")
    assert len(docs) == 4  # 2 k values x 2 reps
    assert sorted({d.k for d in docs}) == [5, 10]
    assert all(len(d.run.llm_steps) == d.k + 1 for d in docs)
    assert _cli("classify", "--scenario", "B", "--config", str(small_config), "--out", str(out)) == 0
    assert _cli("report", "--scenario", "B", "--config", str(small_config), "--out", str(out)) == 0
    lines = (out / "summary_b.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_fault_that_does_not_fit_fails_before_any_run(tmp_path, capsys):
    # swap_steps at step 1 fits the three-call A1-A3 playbooks but not the
    # single encapsulated call of A4
    config = {
        "scenario_a": {"runs_per_cell": 2},
        "models": [{"model_id": "swap", "fault": {"kind": "swap_steps", "step": 1}}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert _cli("run", "--scenario", "A", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert "A4" in err and "swap_steps" in err
    assert not (out / "runs_a.jsonl").exists()


@pytest.mark.parametrize(
    ("config", "message"),
    [
        pytest.param({"workers": 0}, "workers must be at least 1", id="workers-0"),
        pytest.param(
            {"scenario_a": {"request": {"ue_id": "ue-001"}}},
            "scenario_a.request needs 'session_type'",
            id="request-without-session-type",
        ),
        pytest.param({"seed": "x"}, "seed must be an integer, got 'x'", id="seed-not-int"),
        pytest.param([], "a config must be a JSON object, got list", id="top-level-list"),
        pytest.param(
            {"tool_latency_ms": -5}, "tool_latency_ms must be at least 0", id="tool-latency"
        ),
        pytest.param(
            {"models": [{"model_id": "slow", "llm_latency_ms": -3}]},
            "model 'slow': llm_latency_ms must be at least 0",
            id="llm-latency",
        ),
        pytest.param(
            {"scenario_b": {"k_values": [5, 101]}},
            "scenario_b.k_values must lie in 1..100, got 101",
            id="k-out-of-range",
        ),
        pytest.param(
            {"scenario_a": []}, "scenario_a must be an object, got []", id="section-list"
        ),
        pytest.param(
            {"scenario_a": {"runs_per_cell": 1.7}},
            "scenario_a.runs_per_cell must be an integer, got 1.7",
            id="runs-per-cell-float",
        ),
        pytest.param(
            {"scenario_a": {"runs_per_cell": "1"}},
            "scenario_a.runs_per_cell must be an integer, got '1'",
            id="runs-per-cell-string",
        ),
        pytest.param(
            {"scenario_a": {"runs_per_cel": 2}},
            "unknown key 'scenario_a.runs_per_cel'",
            id="unknown-key",
        ),
        pytest.param(
            {"scenario_a": {"approaches": ["A1", "A5"]}},
            "scenario_a.approaches[1] must be one of A1, A2, A3, A4, got 'A5'",
            id="approach-a5",
        ),
        pytest.param(
            {"models": [{"fault": {"kind": "stop_after", "step": "1"}}]},
            "models[0].fault.step must be an integer, got '1'",
            id="fault-step-string",
        ),
        pytest.param(
            {
                "scenario_a": {
                    "fixtures": [
                        {
                            "ue_id": "ue-001",
                            "authorized_session_types": ["IPv4"],
                            "static_ip": "bad",
                        }
                    ]
                }
            },
            "scenario_a.fixtures[0]: 'bad' does not appear to be an IPv4 or IPv6 address",
            id="static-ip",
        ),
        pytest.param(
            {"scenario_b": {"k_values": [5.9]}},
            "scenario_b.k_values[0] must be an integer, got 5.9",
            id="k-float",
        ),
        pytest.param(
            {
                "models": [
                    {
                        "model_id": "live",
                        "kind": "openai_chat",
                        "endpoint": {"base_url": "http://127.0.0.1:9", "temperature": "hot"},
                    }
                ]
            },
            "models[0].endpoint.temperature must be a number, got 'hot'",
            id="temperature-string",
        ),
        pytest.param(
            # the ground truth's own first call breaks the tool's schema
            {"scenario_a": {"request": {"ue_id": "ue-001", "session_type": "IPv5"}}},
            "scenario A, approach A1, k 1: fault-free call 1 (ue_authorization): "
            "parameter 'session_type' must be one of ['IPv4', 'IPv6', 'IPv4v6'], got 'IPv5'",
            id="session-type-ipv5",
        ),
        pytest.param({"models": []}, "scenario A has no runs to do", id="no-models"),
        pytest.param(
            # two runs would share one run id, one tool session and one report row
            {"models": [{"model_id": "m"}, {"model_id": "m", "fault": {"kind": "no_calls"}}]},
            "model_id 'm' names more than one model",
            id="duplicate-model-id",
        ),
        # a model id goes into each run's session header, which HTTP cannot carry
        pytest.param(
            {"models": [{"model_id": "m\r"}]},
            "model 'm\\r': model_id must be Latin-1, no CR or LF",
            id="model-id-cr",
        ),
        pytest.param(
            {"models": [{"model_id": "m\nX-Run-Session: other"}]},
            "model 'm\\nX-Run-Session: other': model_id must be Latin-1, no CR or LF",
            id="model-id-lf",
        ),
        pytest.param(
            {"models": [{"model_id": "mĀ"}]},
            "model 'mĀ': model_id must be Latin-1, no CR or LF",
            id="model-id-not-latin-1",
        ),
        pytest.param(
            {"scenario_a": {"approaches": []}},
            "scenario A has no runs to do",
            id="no-approaches",
        ),
    ],
)
def test_bad_config_is_one_line_usage_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert _cli("run", "--scenario", "A", "--config", str(path), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"procharness run: {message}"]
    assert not (tmp_path / "runs_a.jsonl").exists()


def test_scenario_b_without_k_values_is_one_line_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario_b": {"k_values": []}}), encoding="utf-8")
    out = tmp_path / "out"
    assert _cli("run", "--scenario", "B", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["procharness run: scenario B has no runs to do"]
    assert not out.exists()


def test_unreadable_config_file_is_one_line_usage_error(tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"seed": 1,', encoding="utf-8")
    for path in (malformed, tmp_path / "missing.json"):
        assert _cli("run", "--scenario", "A", "--config", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"procharness run: cannot read config {path}: ")
    assert not (tmp_path / "runs_a.jsonl").exists()


# a small valid config that names every field a mutation should reach
SMALL_CONFIG = {
    "seed": 42,
    "workers": 1,
    "tool_latency_ms": 1,
    "models": [
        {
            "model_id": "m",
            "kind": "scripted",
            "llm_latency_ms": 1,
            "fault": {"kind": "stop_after", "step": 1, "tool": None, "prob": 0.0, "seed": 0},
        }
    ],
    "scenario_a": {
        "runs_per_cell": 1,
        "approaches": ["A1", "A2", "A3", "A4"],
        "request": {"ue_id": "ue-001", "session_type": "IPv4"},
        "fixtures": [
            {"ue_id": "ue-001", "authorized_session_types": ["IPv4"], "static_ip": "10.0.0.42"}
        ],
        "repository_text": None,
    },
    "scenario_b": {"runs_per_cell": 1, "k_values": [5], "approaches": ["A1"]},
}
# wrong types, unknown enum values and out-of-range integers
REPLACEMENTS = ("x", 1.5, True, None, [], {}, 0, -1, 101)


def _slots(node, path=()):
    """Every (path of the container, key in it) of a config."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, (*path, key))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_config_runs_or_fails_in_one_line(data):
    config = copy.deepcopy(SMALL_CONFIG)
    action = data.draw(st.sampled_from(["drop", "unknown key", "replace"]))
    slots = list(_slots(config))
    if action == "unknown key":
        objects = [()] + [(*p, k) for p, k in slots if isinstance(_at(config, (*p, k)), dict)]
        _at(config, data.draw(st.sampled_from(objects)))["bogus"] = 1
    else:
        path, key = data.draw(st.sampled_from(slots))
        parent = _at(config, path)
        if action == "drop":
            del parent[key]
        else:
            value = data.draw(st.sampled_from(REPLACEMENTS))
            # 101 is a valid count here, and a large one
            assume(not (value == 101 and key in ("runs_per_cell", "workers")))
            parent[key] = value
    scenario = data.draw(st.sampled_from(["A", "B"]))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--scenario", scenario, "--config", str(path), "--out", tmp])
        if code != 0:
            assert code == 1
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not (Path(tmp) / f"runs_{scenario.lower()}.jsonl").exists()


def test_classify_skips_corrupt_lines(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    _cli("run", "--scenario", "A", "--config", str(small_config), "--out", str(out))
    archive = out / "runs_a.jsonl"
    with open(archive, "a", encoding="utf-8") as fh:
        fh.write("{this is not json}\n")
    code = _cli("classify", "--scenario", "A", "--config", str(small_config), "--out", str(out))
    assert code == 2  # partial failure
    err = capsys.readouterr().err
    assert "skipping corrupt record" in err
    assert len(load_documents(out / "runs_a_classified.jsonl")) == 8


def test_a_line_that_is_not_utf8_is_corrupt_not_a_traceback(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    common = ("--scenario", "A", "--config", str(small_config), "--out", str(out))
    assert _cli("run", *common) == 0
    archive = out / "runs_a.jsonl"
    with open(archive, "ab") as fh:
        fh.write(b"\xff\xfe{}\n")
    assert _cli("run", *common) == 0  # the resume scan counts it as no run
    assert len(archive.read_bytes().splitlines()) == 9
    capsys.readouterr()
    assert _cli("classify", *common) == 2
    assert f"{archive}:9: skipping corrupt record" in capsys.readouterr().err
    assert len(load_documents(out / "runs_a_classified.jsonl")) == 8
    assert _cli("report", *common, "--archive", str(archive)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"procharness report: {archive}:9: not a run document (")


def test_run_resumes_past_lines_that_are_not_run_objects(tmp_path, small_config):
    out = tmp_path / "out"
    argv = ("run", "--scenario", "A", "--config", str(small_config), "--out", str(out))
    assert _cli(*argv) == 0
    archive = out / "runs_a.jsonl"
    lines = archive.read_text(encoding="utf-8").splitlines(keepends=True)
    all_ids = {json.loads(line)["run_id"] for line in lines}
    junk = '[1]\n"s"\n{"run_id": ["x"]}\n'
    archive.write_text("".join(lines[:5]) + junk, encoding="utf-8")
    assert _cli(*argv) == 0
    runs = [json.loads(line) for line in archive.read_text(encoding="utf-8").splitlines()[8:]]
    assert len(runs) == 3
    assert {json.loads(line)["run_id"] for line in lines[:5]} | {r["run_id"] for r in runs} == all_ids


def test_report_on_a_bad_archive_is_one_line_usage_error(tmp_path, small_config, capsys):
    out = tmp_path / "out"
    common = ("--scenario", "A", "--config", str(small_config), "--out", str(out))
    assert _cli("report", *common) == 1
    classified = out / "runs_a_classified.jsonl"
    assert capsys.readouterr().err.splitlines() == [
        f"classified archive not found: {classified}"
    ]

    assert _cli("run", *common) == 0
    raw = out / "runs_a.jsonl"
    capsys.readouterr()
    assert _cli("report", *common, "--archive", str(raw)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("procharness report: run A-A1-") and line.endswith("classify first")

    assert _cli("classify", *common) == 0
    data = classified.read_bytes()
    classified.write_bytes(data[: len(data) - 40])  # the last line loses its end
    capsys.readouterr()
    assert _cli("report", *common) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"procharness report: {classified}:8: not a run document")
    assert not (out / "summary_a.csv").exists()


def test_classify_missing_archive_is_usage_error(tmp_path):
    assert _cli("classify", "--scenario", "A", "--out", str(tmp_path)) == 1


def test_usage_error_exit_code():
    assert _cli("run") == 1  # missing --scenario
    assert _cli("nonsense") == 1


def test_empty_archive_classifies_to_empty_output(tmp_path):
    archive = tmp_path / "runs_a.jsonl"
    archive.write_text("", encoding="utf-8")
    code = _cli("classify", "--scenario", "A", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "runs_a_classified.jsonl").read_text() == ""


def test_run_servers_flag_validation(tmp_path):
    assert (
        _cli(
            "run",
            "--scenario",
            "A",
            "--servers",
            "only-one:8801",
            "--out",
            str(tmp_path),
        )
        == 1
    )


@pytest.mark.parametrize("command", ["run", "serve"])
@pytest.mark.parametrize(
    "servers", ["only-one:8801", "a:1,b:x,c:3", "a:1,b:2,c:99999", "a:1,b:2,c:3,"]
)
def test_bad_servers_value_is_one_line_usage_error(tmp_path, capsys, command, servers):
    argv = [command, "--servers", servers, "--out", str(tmp_path)]
    if command == "run":
        argv += ["--scenario", "A"]
    assert _cli(*argv) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_serve_then_run_against_it(tmp_path, small_config):
    src = str(Path(procharness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    serve = subprocess.Popen(
        [sys.executable, "-m", "procharness", "serve",
         "--servers", "127.0.0.1:0,127.0.0.1:0,:0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(30, serve.kill)  # a hung server ends the reads below
    watchdog.start()
    try:
        lines = [serve.stdout.readline() for _ in range(3)]
        assert [line.split(" listening on ")[0] for line in lines] == [
            "server 1", "server 2", "server 3"
        ]
        servers = ",".join(line.split("http://")[1].strip() for line in lines)
        out = tmp_path / "out"
        argv = ["--config", str(small_config), "--out", str(out), "--servers", servers]
        assert _cli("run", "--scenario", "A", *argv) == 0
        assert _cli("classify", "--scenario", "A", *argv) == 0
        classified = load_documents(out / "runs_a_classified.jsonl")
        assert len(classified) == 8
        assert all(d.verdict_agent.outcome is Outcome.CORRECT for d in classified)
        serve.send_signal(signal.SIGINT)
        assert serve.wait(timeout=10) == 0
    finally:
        watchdog.cancel()
        if serve.poll() is None:
            serve.kill()
            serve.wait()
        serve.stdout.close()


def test_serve_on_a_port_in_use_is_one_line_usage_error():
    src = str(Path(procharness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        serve = subprocess.run(
            [sys.executable, "-m", "procharness", "serve",
             "--servers", f"127.0.0.1:0,127.0.0.1:{port},127.0.0.1:0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
    assert serve.returncode == 1
    assert serve.stdout.startswith("server 1 listening on http://127.0.0.1:")
    assert serve.stderr.splitlines() == [
        f"procharness serve: server 2 cannot listen on 127.0.0.1:{port}: "
        "Address already in use"
    ]


def test_serve_closes_the_servers_it_started_when_one_cannot_bind(capsys):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        port = held.getsockname()[1]
        assert _cli("serve", "--servers", f"127.0.0.1:0,127.0.0.1:{port},127.0.0.1:0") == 1
    started = capsys.readouterr().out.split("http://")[1].strip()
    host, _, started_port = started.rpartition(":")
    # the port is free again only if server 1 was closed
    with socket.socket() as probe:
        probe.bind((host, int(started_port)))


def test_seed_override_changes_pool(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    _cli("gen", "--out", str(out1), "--seed", "1")
    _cli("gen", "--out", str(out2), "--seed", "2")
    assert (out1 / "kpi_pool.json").read_bytes() != (out2 / "kpi_pool.json").read_bytes()
