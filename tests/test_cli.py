from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

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
    ],
)
def test_bad_config_is_one_line_usage_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert _cli("run", "--scenario", "A", "--config", str(path), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"procharness run: {message}"]


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


def test_seed_override_changes_pool(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    _cli("gen", "--out", str(out1), "--seed", "1")
    _cli("gen", "--out", str(out2), "--seed", "2")
    assert (out1 / "kpi_pool.json").read_bytes() != (out2 / "kpi_pool.json").read_bytes()
