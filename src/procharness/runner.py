"""Batch execution, classification, and reporting stages.

Each stage is a pure function of its inputs: re-running any stage on
unchanged input reproduces its output, and with scripted models the whole
pipeline is deterministic for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from . import prompts
from .agent import (
    Call,
    RemoteChatBackend,
    RunLimits,
    ScenarioPrompts,
    ScriptedBackend,
    apply_fault,
    build_context,
    build_playbook,
    default_turn_cap,
    run_agent,
)
from .archive import RunDocument, append_document, existing_run_ids, iter_lines
from .classify import classify
from .config import HarnessConfig, ModelConfig
from .metrics import GroupKey, GroupSummary, summarize, summary_csv_lines
from .model import (
    Approach,
    ModelError,
    MonotonicClock,
    Outcome,
    TerminatedReason,
    ToolRegistry,
    TraceLevel,
    VirtualClock,
    effective_trace,
)
from .toolsim import (
    ENCAP_TOOL,
    ENCAPSULATED_SERVER_ID,
    KPI_SERVER_ID,
    PROCEDURE_SERVER_ID,
    build_encapsulated_host,
    build_kpi_host,
    build_kpi_pool,
    build_procedure_host,
    encapsulated_expected_procedure,
    gen_stress_procedure,
    ground_truth_procedure,
    allocation_plan,
    make_allocation_intent,
)
from .wire import HttpTransport, LoopbackTransport

SCENARIO_A = "A"
SCENARIO_B = "B"

_A_SERVERS: Mapping[Approach, tuple[int, ...]] = {
    Approach.A1: (PROCEDURE_SERVER_ID,),
    Approach.A2: (PROCEDURE_SERVER_ID,),
    Approach.A3: (PROCEDURE_SERVER_ID,),
    Approach.A4: (ENCAPSULATED_SERVER_ID,),
}
_B_SERVERS: Mapping[Approach, tuple[int, ...]] = {Approach.A1: (KPI_SERVER_ID,)}


def _stable_seed(*parts: Any) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RunCell:
    scenario: str
    approach: Approach
    model: ModelConfig
    k: int
    rep: int

    @property
    def run_id(self) -> str:
        return (
            f"{self.scenario}-{self.approach.value}-{self.model.model_id}"
            f"-k{self.k:03d}-r{self.rep:03d}"
        )


class HarnessEnv:
    """Shared per-batch state: fixtures, pool, hosts, prompt packs."""

    def __init__(
        self, config: HarnessConfig, server_urls: Mapping[int, str] | None = None
    ) -> None:
        self.config = config
        self.fixtures = {f.ue_id: f for f in config.scenario_a.fixtures}
        repo = config.scenario_a.repository_text
        self.repository_text = (
            repo if repo is not None else prompts.UE_PROCEDURE_SET_TEXT
        )
        self.pool = build_kpi_pool(config.seed)
        self.hosts = {
            ENCAPSULATED_SERVER_ID: build_encapsulated_host(self.fixtures),
            PROCEDURE_SERVER_ID: build_procedure_host(
                self.fixtures, self.repository_text
            ),
            KPI_SERVER_ID: build_kpi_host(self.pool),
        }
        self.server_urls = dict(server_urls) if server_urls else None
        self.prompts_a = ScenarioPrompts(
            procedure_set_text=self.repository_text, servers_by_approach=_A_SERVERS
        )
        self.prompts_b = ScenarioPrompts(
            procedure_set_text=prompts.KPI_PROCEDURE_SET_TEXT,
            servers_by_approach=_B_SERVERS,
        )
        self.stress_assets = {
            k: gen_stress_procedure(self.pool, k, config.seed)
            for k in config.scenario_b.k_values
        }

    def make_transport(self, clock: Any, tool_latency_ms: int) -> Any:
        if self.server_urls:
            return HttpTransport(self.server_urls, clock, tool_latency_ms)
        return LoopbackTransport(self.hosts, clock, tool_latency_ms)

    def visible_registry(self, scenario: str, approach: Approach) -> ToolRegistry:
        servers = _A_SERVERS[approach] if scenario == SCENARIO_A else _B_SERVERS[approach]
        merged = self.hosts[servers[0]].registry
        for server_id in servers[1:]:
            merged = merged.merged(self.hosts[server_id].registry)
        return merged

    def flattened_registry(self) -> ToolRegistry:
        return self.hosts[ENCAPSULATED_SERVER_ID].registry.merged(
            self.hosts[PROCEDURE_SERVER_ID].registry
        )


def _scripted_calls(env: HarnessEnv, cell: RunCell) -> list[Call]:
    """The fault-free call sequence a scripted model plays for the cell."""
    if cell.scenario == SCENARIO_B:
        intent, _ = env.stress_assets[cell.k]
        region = intent.structured["region"]
        return [(name, {"region": region}) for name in intent.structured["required_kpis"]]
    request = env.config.scenario_a.request
    if cell.approach is Approach.A4:
        args = {"ue_id": request["ue_id"], "session_type": request["session_type"]}
        return [(ENCAP_TOOL, args)]
    return allocation_plan(env.fixtures, request["ue_id"], request["session_type"])


def _check_fault_programs(env: HarnessEnv, cells: list[RunCell]) -> None:
    """Apply every scripted model's fault program to the calls of each cell
    it runs, so that a program that does not fit a playbook fails before
    the first run is written. Repetitions share their calls; one suffices."""
    distinct = {(c.approach, c.model, c.k): c for c in cells if c.model.kind == "scripted"}
    for cell in distinct.values():
        try:
            apply_fault(_scripted_calls(env, cell), cell.model.fault)
        except ValueError as exc:
            raise ModelError(
                f"model {cell.model.model_id!r}, approach {cell.approach.value}, "
                f"k {cell.k}: {exc}"
            ) from None


def execute_run(env: HarnessEnv, cell: RunCell) -> RunDocument:
    """One cell repetition: assemble ground truth, drive the agent loop."""
    config = env.config
    scripted = cell.model.kind == "scripted"
    clock = VirtualClock() if scripted else MonotonicClock()

    if cell.scenario == SCENARIO_A:
        request = config.scenario_a.request
        intent = make_allocation_intent(request["ue_id"], request["session_type"])
        step_level = ground_truth_procedure(intent, env.fixtures)
        scenario_prompts = env.prompts_a
        if cell.approach is Approach.A4:
            expected = encapsulated_expected_procedure(intent)
            expected_flattened = step_level
        else:
            expected = step_level
            expected_flattened = None
    else:
        intent, procedure = env.stress_assets[cell.k]
        expected = procedure
        expected_flattened = None
        step_level = procedure
        scenario_prompts = env.prompts_b

    context = build_context(
        cell.approach,
        intent,
        scenario_prompts,
        explicit_procedure=step_level if cell.approach is Approach.A3 else None,
    )

    if scripted:
        rng = random.Random(_stable_seed(cell.model.fault.seed, cell.run_id))
        calls = _scripted_calls(env, cell)
        playbook = build_playbook(cell.approach, calls, cell.model.fault, rng)
        backend = ScriptedBackend(
            playbook, clock, cell.model.llm_latency_ms, cell.model.model_id
        )
    else:
        backend = RemoteChatBackend(cell.model.endpoint)

    transport = env.make_transport(clock, config.tool_latency_ms if scripted else 0)
    try:
        run = run_agent(
            context,
            intent,
            backend,
            transport,
            clock,
            RunLimits(default_turn_cap(step_level.length)),
            session_id=cell.run_id,
            run_id=cell.run_id,
        )
    finally:
        transport.close()
    return RunDocument(
        run=run,
        scenario=cell.scenario,
        k=step_level.length,
        expected=expected,
        expected_flattened=expected_flattened,
    )


def build_cells(config: HarnessConfig, scenario: str) -> list[RunCell]:
    cells = []
    if scenario == SCENARIO_A:
        request = config.scenario_a.request
        intent = make_allocation_intent(request["ue_id"], request["session_type"])
        fixtures = {f.ue_id: f for f in config.scenario_a.fixtures}
        k = ground_truth_procedure(intent, fixtures).length
        for approach in config.scenario_a.approaches:
            for model in config.models:
                for rep in range(1, config.scenario_a.runs_per_cell + 1):
                    cells.append(RunCell(SCENARIO_A, approach, model, k, rep))
    elif scenario == SCENARIO_B:
        for approach in config.scenario_b.approaches:
            for model in config.models:
                for k in config.scenario_b.k_values:
                    for rep in range(1, config.scenario_b.runs_per_cell + 1):
                        cells.append(RunCell(SCENARIO_B, approach, model, k, rep))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return cells


@dataclass
class BatchStats:
    attempted: int = 0
    skipped: int = 0
    backend_errors: int = 0


def run_batch(
    config: HarnessConfig,
    scenario: str,
    archive_path: Path,
    server_urls: Mapping[int, str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> BatchStats:
    """Execute every cell, appending one document per run; cells already in
    the archive are skipped so interrupted batches can resume. A fault
    program that does not fit raises ``ModelError`` before any run."""
    env = HarnessEnv(config, server_urls)
    cells = build_cells(config, scenario)
    done = existing_run_ids(archive_path)
    stats = BatchStats(skipped=sum(1 for c in cells if c.run_id in done))
    todo = [c for c in cells if c.run_id not in done]
    _check_fault_programs(env, todo)
    archive_path.parent.mkdir(parents=True, exist_ok=True)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        futures = [(cell, pool.submit(execute_run, env, cell)) for cell in todo]
        for i, (cell, future) in enumerate(futures, start=1):
            doc = future.result()
            append_document(archive_path, doc)
            stats.attempted += 1
            if doc.run.terminated_reason is TerminatedReason.BACKEND_ERROR:
                stats.backend_errors += 1
            if progress and (i % 25 == 0 or i == len(futures)):
                progress(f"{scenario}: {i}/{len(futures)} runs done")
    return stats


def classify_archive(
    config: HarnessConfig,
    in_path: Path,
    out_path: Path,
    errlog: Callable[[str], None] | None = None,
) -> tuple[int, int]:
    """Annotate every document with verdicts; corrupt lines are reported
    with their line number and skipped. Returns (classified, corrupt)."""
    env = HarnessEnv(config)
    classified = 0
    corrupt = 0
    log = errlog or (lambda msg: print(msg, file=sys.stderr))
    with open(out_path, "w", encoding="utf-8") as out:
        for lineno, line in iter_lines(in_path):
            try:
                doc = RunDocument.from_dict(json.loads(line))
            except Exception as exc:
                corrupt += 1
                log(f"{in_path}:{lineno}: skipping corrupt record ({exc})")
                continue
            registry = env.visible_registry(doc.scenario, doc.run.approach)
            agent_view = effective_trace(doc.run, TraceLevel.AGENT, registry)
            verdict_agent = classify(doc.expected, agent_view, registry)
            verdict_flattened = None
            if doc.expected_flattened is not None:
                flat_registry = env.flattened_registry()
                flat_view = effective_trace(doc.run, TraceLevel.FLATTENED, flat_registry)
                verdict_flattened = classify(
                    doc.expected_flattened, flat_view, flat_registry
                )
            annotated = doc.with_verdicts(verdict_agent, verdict_flattened)
            out.write(json.dumps(annotated.to_dict(), sort_keys=True) + "\n")
            classified += 1
    return classified, corrupt


def summaries_from_documents(docs: list[RunDocument]) -> list[GroupSummary]:
    rows = []
    for doc in docs:
        if doc.verdict_agent is None:
            raise ValueError(f"run {doc.run.run_id} has no verdict; classify first")
        key = GroupKey(doc.scenario, doc.run.approach.value, doc.run.model_id, doc.k)
        rows.append((key, doc.run, doc.verdict_agent))
    return summarize(rows)


def render_markdown_report(summaries: list[GroupSummary]) -> str:
    lines = ["# Procedure execution report", ""]
    scenarios = sorted({s.key.scenario for s in summaries})
    for scenario in scenarios:
        rows = [s for s in summaries if s.key.scenario == scenario]
        lines.append(f"## Scenario {scenario}")
        lines.append("")
        lines.append("### Correctness and latency")
        lines.append("")
        lines.append(
            "| approach | model | k | runs | correctness | median latency (ms) | mean turns |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for s in rows:
            lines.append(
                f"| {s.key.approach} | {s.key.model_id} | {s.key.k} | {s.runs} "
                f"| {s.correctness_rate:.3f} | {s.lat_median:.1f} | {s.mean_n_llm:.2f} |"
            )
        lines.append("")
        lines.append("### Error distribution")
        lines.append("")
        header = [o.value for o in Outcome if o is not Outcome.CORRECT]
        lines.append("| approach | model | k | " + " | ".join(header) + " |")
        lines.append("|---|---|---|" + "---|" * len(header))
        for s in rows:
            counts = [str(s.error_counts.get(h, 0)) for h in header]
            lines.append(
                f"| {s.key.approach} | {s.key.model_id} | {s.key.k} | "
                + " | ".join(counts)
                + " |"
            )
        lines.append("")
    return "\n".join(lines) + "\n"


def write_reports(
    docs: list[RunDocument],
    csv_path: Path,
    markdown_path: Path,
    fold_other_into_wrong_order: bool = False,
) -> list[GroupSummary]:
    summaries = summaries_from_documents(docs)
    csv_text = "\n".join(summary_csv_lines(summaries, fold_other_into_wrong_order)) + "\n"
    csv_path.write_text(csv_text, encoding="utf-8")
    markdown_path.write_text(render_markdown_report(summaries), encoding="utf-8")
    return summaries
