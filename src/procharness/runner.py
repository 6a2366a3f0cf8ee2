"""Batch execution, classification, and reporting stages.

Each stage is a pure function of its inputs: re-running any stage on
unchanged input reproduces its output, and with scripted models the whole
pipeline is deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from . import prompts
from .agent import (
    ApproachContext,
    Call,
    RemoteChatBackend,
    ScriptedBackend,
    apply_fault,
    build_context,
    build_playbook,
    default_turn_cap,
    run_agent,
)
from .archive import (
    RunDocument,
    append_document,
    drop_torn_tail,
    existing_run_ids,
    iter_lines,
    verdict_pair,
)
from .classify import classify
from .config import HarnessConfig, ModelConfig
from .metrics import GroupKey, GroupSummary, summarize, summary_csv_lines
from .model import (
    Approach,
    Intent,
    ModelError,
    MonotonicClock,
    ObservedTrace,
    Outcome,
    Procedure,
    TerminatedReason,
    ToolCallRecord,
    ToolRegistry,
    TraceLevel,
    VirtualClock,
    effective_trace,
    stable_seed,
)
from .toolsim import (
    ENCAP_TOOL,
    ENCAPSULATED_SERVER_ID,
    KPI_SERVER_ID,
    PROCEDURE_SERVER_ID,
    SERVER_REGISTRIES,
    SERVER_SPECS,
    ToolHost,
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

# the one server each approach of a scenario sees
_SERVERS: Mapping[tuple[str, Approach], int] = {
    (SCENARIO_A, Approach.A1): PROCEDURE_SERVER_ID,
    (SCENARIO_A, Approach.A2): PROCEDURE_SERVER_ID,
    (SCENARIO_A, Approach.A3): PROCEDURE_SERVER_ID,
    (SCENARIO_A, Approach.A4): ENCAPSULATED_SERVER_ID,
    (SCENARIO_B, Approach.A1): KPI_SERVER_ID,
}

# what classify checks an A4 run's internal calls against
FLATTENED_REGISTRY = ToolRegistry(
    SERVER_SPECS[ENCAPSULATED_SERVER_ID] + SERVER_SPECS[PROCEDURE_SERVER_ID]
)


def visible_registry(scenario: str, approach: Approach) -> ToolRegistry:
    """The registry of the one server an approach of a scenario sees."""
    return SERVER_REGISTRIES[_SERVERS[scenario, approach]]


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


@dataclass(frozen=True)
class RunPlan:
    """What one (scenario, approach, k) fixes for every run of it: the
    request, the prompts and visible server, the ground truth and the
    fault-free calls a scripted model plays."""

    intent: Intent
    context: ApproachContext
    expected: Procedure
    expected_flattened: Procedure | None
    calls: tuple[Call, ...]
    k: int


class HarnessEnv:
    """Shared per-batch state: the run plans and tool hosts of a run or serve
    stage, each built on first use, so a stage builds only what it reads: a
    batch builds the plans and hosts of its own scenario, a batch over
    servers builds no host, and ``serve`` builds no plan."""

    def __init__(
        self, config: HarnessConfig, server_urls: Mapping[int, str] | None = None
    ) -> None:
        self.config = config
        self.fixtures = {f.ue_id: f for f in config.scenario_a.fixtures}
        repo = config.scenario_a.repository_text
        self.repository_text = repo if repo is not None else prompts.UE_PROCEDURE_SET_TEXT
        self.server_urls = dict(server_urls) if server_urls else None
        self._hosts: dict[int, ToolHost] = {}
        self._plans: dict[str, dict[tuple[Approach, int], RunPlan]] = {}

    def host(self, server_id: int) -> ToolHost:
        """One server's tool host, built on first use."""
        if server_id not in self._hosts:
            if server_id == KPI_SERVER_ID:
                host = build_kpi_host(build_kpi_pool(self.config.seed))
            elif server_id == PROCEDURE_SERVER_ID:
                host = build_procedure_host(self.fixtures, self.repository_text)
            else:
                host = build_encapsulated_host(self.fixtures)
            self._hosts[server_id] = host
        return self._hosts[server_id]

    @property
    def hosts(self) -> dict[int, ToolHost]:
        """Every server's tool host, as ``serve`` starts them."""
        return {server_id: self.host(server_id) for server_id in SERVER_SPECS}

    def plans(self, scenario: str) -> dict[tuple[Approach, int], RunPlan]:
        """The scenario's run plans by (approach, k), built on the first call
        and checked against their ground truth (a failing plan raises
        ``ModelError``), with the hosts their runs call over loopback."""
        if scenario in self._plans:
            return self._plans[scenario]
        plans: dict[tuple[Approach, int], RunPlan] = {}
        config, fixtures = self.config, self.fixtures
        if scenario == SCENARIO_A:
            request = config.scenario_a.request
            ue_id, session_type = request["ue_id"], request["session_type"]
            intent = make_allocation_intent(ue_id, session_type)
            step_level = ground_truth_procedure(intent, fixtures)
            steps = tuple(allocation_plan(fixtures, ue_id, session_type))
            encapsulated = encapsulated_expected_procedure(intent)
            encapsulated_call = ((ENCAP_TOOL, {"ue_id": ue_id, "session_type": session_type}),)
            for approach in config.scenario_a.approaches:
                a4 = approach is Approach.A4
                context = build_context(
                    approach,
                    intent,
                    self.repository_text,
                    _SERVERS[SCENARIO_A, approach],
                    explicit_procedure=step_level,
                )
                plans[approach, step_level.length] = RunPlan(
                    intent,
                    context,
                    expected=encapsulated if a4 else step_level,
                    expected_flattened=step_level if a4 else None,
                    calls=encapsulated_call if a4 else steps,
                    k=step_level.length,
                )
        elif scenario == SCENARIO_B:
            for k in config.scenario_b.k_values:
                intent, procedure = gen_stress_procedure(k, config.seed)
                context = build_context(
                    Approach.A1,
                    intent,
                    prompts.KPI_PROCEDURE_SET_TEXT,
                    _SERVERS[SCENARIO_B, Approach.A1],
                )
                region = intent.structured["region"]
                kpis = intent.structured["required_kpis"]
                calls = tuple((name, {"region": region}) for name in kpis)
                plans[Approach.A1, k] = RunPlan(intent, context, procedure, None, calls, k)
        for (approach, _), plan in plans.items():
            self._check_ground_truth(scenario, approach, plan)
            if not self.server_urls:
                self.host(plan.context.server_id)
        self._plans[scenario] = plans
        return plans

    def cells(self, scenario: str) -> list[RunCell]:
        """The batch's runs: scenario A by approach, model and repetition,
        scenario B by model, k and repetition."""
        keys = list(self.plans(scenario))
        models = self.config.models
        if scenario == SCENARIO_A:
            reps = range(1, self.config.scenario_a.runs_per_cell + 1)
            return [RunCell(scenario, a, m, k, r) for a, k in keys for m in models for r in reps]
        reps = range(1, self.config.scenario_b.runs_per_cell + 1)
        return [RunCell(scenario, a, m, k, r) for m in models for a, k in keys for r in reps]

    def make_transport(self, server_id: int, clock: Any, tool_latency_ms: int) -> Any:
        """A transport for a run, which calls the one server ``server_id``."""
        if self.server_urls:
            return HttpTransport(self.server_urls, clock, tool_latency_ms)
        return LoopbackTransport({server_id: self.host(server_id)}, clock, tool_latency_ms)

    def _check_ground_truth(self, scenario: str, approach: Approach, plan: RunPlan) -> None:
        """A plan whose fault-free calls would not classify Correct is a
        config error, not a result. ``classify`` judges them against
        ``expected`` on the visible server, as it judges every run; a
        ``WrongTool`` verdict names the first call at fault."""
        where = f"scenario {scenario}, approach {approach.value}, k {plan.k}"
        records = tuple(
            ToolCallRecord(i, name, args, None, True, 0, 0)
            for i, (name, args) in enumerate(plan.calls, start=1)
        )
        registry = visible_registry(scenario, approach)
        verdict = classify(plan.expected, ObservedTrace(records), registry)
        if verdict.outcome is Outcome.WRONG_TOOL:
            i = verdict.offending_step
            name = plan.calls[i - 1][0]
            raise ModelError(f"{where}: fault-free call {i} ({name}): {verdict.detail}")
        if verdict.outcome is not Outcome.CORRECT:
            raise ModelError(f"{where}: the fault-free calls do not match the expected procedure")


def _check_fault_programs(env: HarnessEnv, cells: list[RunCell]) -> None:
    """Apply every scripted model's fault program to the calls of each cell
    it runs, so that a program that does not fit a playbook fails before
    the first run is written. Repetitions share their calls; one suffices."""
    distinct = {(c.approach, c.model, c.k): c for c in cells if c.model.kind == "scripted"}
    for cell in distinct.values():
        try:
            apply_fault(env.plans(cell.scenario)[cell.approach, cell.k].calls, cell.model.fault)
        except ValueError as exc:
            raise ModelError(
                f"model {cell.model.model_id!r}, approach {cell.approach.value}, "
                f"k {cell.k}: {exc}"
            ) from None


def execute_run(env: HarnessEnv, cell: RunCell) -> RunDocument:
    """One cell repetition: drive the agent loop through the cell's plan."""
    plan = env.plans(cell.scenario)[cell.approach, cell.k]
    scripted = cell.model.kind == "scripted"
    clock = VirtualClock() if scripted else MonotonicClock()
    if scripted:
        rng = random.Random(stable_seed(cell.model.fault.seed, cell.run_id))
        playbook = build_playbook(cell.approach, plan.calls, cell.model.fault, rng)
        backend = ScriptedBackend(
            playbook, clock, cell.model.llm_latency_ms, cell.model.model_id
        )
    else:
        backend = RemoteChatBackend(cell.model.endpoint, cell.model.model_id)

    latency = env.config.tool_latency_ms if scripted else 0
    transport = env.make_transport(plan.context.server_id, clock, latency)
    try:
        run = run_agent(
            plan.context,
            plan.intent,
            backend,
            transport,
            clock,
            default_turn_cap(plan.k),
            run_id=cell.run_id,
        )
    finally:
        transport.close()
    return RunDocument(
        run=run,
        scenario=cell.scenario,
        k=plan.k,
        expected=plan.expected,
        expected_flattened=plan.expected_flattened,
    )


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
    the archive are skipped so interrupted batches can resume. A batch with
    no cells, or a fault program that does not fit, raises ``ModelError``
    before any run."""
    env = HarnessEnv(config, server_urls)
    cells = env.cells(scenario)
    if not cells:
        raise ModelError(f"scenario {scenario} has no runs to do")
    drop_torn_tail(archive_path)
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


def classify_archive(config: HarnessConfig, in_path: Path, out_path: Path) -> tuple[int, int]:
    """Write every line back as it was read, with its two verdict keys set;
    the verdicts judge the line's own ground truth on the fixed registries
    of the servers, so no run plan, host or pool is built and ``config`` is
    not read. A line that ends in its verdict pair as the harness writes it
    keeps its bytes up to that pair, and only the pair is rewritten; any
    other line is encoded anew with sorted keys. Corrupt lines are reported
    with their line number and skipped. The lines go to a file beside
    ``out_path`` that replaces it at the end, so ``out_path`` may be
    ``in_path``, and a crash leaves either the old file or the whole new
    one. Returns (classified, corrupt)."""
    classified = 0
    corrupt = 0
    tmp_path = out_path.with_name(out_path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as out:
            for lineno, line in iter_lines(in_path):
                try:
                    data = json.loads(line.decode("utf-8"))
                    doc = RunDocument.from_dict(data)
                except Exception as exc:
                    corrupt += 1
                    print(f"{in_path}:{lineno}: skipping corrupt record ({exc})", file=sys.stderr)
                    continue
                registry = visible_registry(doc.scenario, doc.run.approach)
                agent_view = effective_trace(doc.run, TraceLevel.AGENT, registry)
                agent = classify(doc.expected, agent_view, registry).to_dict()
                flattened = None
                if doc.expected_flattened is not None:
                    flat_view = effective_trace(doc.run, TraceLevel.FLATTENED, FLATTENED_REGISTRY)
                    verdict = classify(doc.expected_flattened, flat_view, FLATTENED_REGISTRY)
                    flattened = verdict.to_dict()
                # a valid line's last "}" closes the document, so a matching end
                # is its last two members, the ones json.loads kept
                old = verdict_pair(data.get("verdict_agent"), data.get("verdict_flattened"))
                if line.endswith(old):
                    out.write(line[: -len(old)] + verdict_pair(agent, flattened) + b"\n")
                else:
                    data["verdict_agent"], data["verdict_flattened"] = agent, flattened
                    out.write(json.dumps(data, sort_keys=True).encode("utf-8") + b"\n")
                classified += 1
        os.replace(tmp_path, out_path)
    finally:
        tmp_path.unlink(missing_ok=True)
    return classified, corrupt


def summaries_from_documents(docs: list[RunDocument]) -> list[GroupSummary]:
    rows = []
    for doc in docs:
        if doc.verdict_agent is None:
            raise ModelError(f"run {doc.run.run_id} has no verdict; classify first")
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
