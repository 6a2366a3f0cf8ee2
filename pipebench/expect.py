"""Checks on the harness's outputs, computed apart from the harness.

Everything here reads the files a pass wrote as plain JSON and CSV and
compares them with values the benchmark derives itself: the expected
verdict of each run from its fault program and the taxonomy's definitions,
the documented turn counts and virtual latencies of fault-free runs, the
KPI values from the documented digest, and the summary CSV from the
archive. Only the scenario-A cross-check against ``procharness.reference``
calls into the harness.

Every problem is one message that names the workload and, where there is
one, the run id. A run with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import ipaddress
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from workloads import Batch

AUTH = "ue_authorization"
STATIC = "static_ip_retrieval"
DHCPV4 = "dhcpv4_allocate"
DHCPV6 = "dhcpv6_allocate"
ASSIGN = "ip_assignment"
ENCAP = "ue_ip_allocation"
FIRST_V4_LEASE = "100.64.0.1"
FIRST_V6_LEASE = "2001:db8::1"

CSV_HEADER = (
    "scenario,approach,model,k,runs,correctness_rate,"
    "lat_min,lat_p25,lat_median,lat_p75,lat_max,lat_mean,mean_n_llm,"
    "err_wrong_tool,err_duplicate,err_premature,err_wrong_order,"
    "err_no_calls,err_other"
)
ERR_COLUMNS = (
    ("err_wrong_tool", "WrongTool"),
    ("err_duplicate", "DuplicateTool"),
    ("err_premature", "PrematureStop"),
    ("err_wrong_order", "WrongOrder"),
    ("err_no_calls", "NoToolCalls"),
    ("err_other", "OtherDeviation"),
)

# procharness.reference handles expected procedures up to 6 steps and
# traces up to 8 calls; longer flattened A4 traces are skipped there.
REFERENCE_MAX_OBSERVED = 8


@dataclass
class Findings:
    """Problems found so far, and the runs they make failed."""

    workload: str
    problems: list[str] = field(default_factory=list)
    failed: set[tuple[int, str]] = field(default_factory=set)

    def run(self, pass_no: int, run_id: str, message: str) -> None:
        self.failed.add((pass_no, run_id))
        self.problems.append(f"{self.workload}: pass {pass_no}: run {run_id}: {message}")

    def batch(self, pass_no: int, label: str, message: str) -> None:
        self.problems.append(f"{self.workload}: pass {pass_no}: batch {label}: {message}")


# ---------------------------------------------------------------------------
# What a batch should contain


def allocation_steps(config: Mapping[str, Any]) -> list[tuple[str, dict[str, Any]]]:
    """The step-level allocation sequence the UE rules prescribe for the
    batch's request, with the addresses a fresh run obtains."""
    request = config["scenario_a"]["request"]
    ue_id, session = request["ue_id"], request["session_type"]
    fixture = next(
        (f for f in config["scenario_a"]["fixtures"] if f["ue_id"] == ue_id), None
    )
    auth = (AUTH, {"ue_id": ue_id, "session_type": session})
    if fixture is None or session not in fixture["authorized_session_types"]:
        return [auth]
    steps = [auth, (STATIC, {"ue_id": ue_id})]
    static = fixture.get("static_ip")
    family = {"IPv4": 4, "IPv6": 6}.get(session)
    if static and ipaddress.ip_address(static).version == family:
        address = static
    else:
        leases = []
        if session in ("IPv4", "IPv4v6"):
            steps.append((DHCPV4, {"ue_id": ue_id}))
            leases.append(FIRST_V4_LEASE)
        if session in ("IPv6", "IPv4v6"):
            steps.append((DHCPV6, {"ue_id": ue_id}))
            leases.append(FIRST_V6_LEASE)
        address = ",".join(leases)
    steps.append((ASSIGN, {"ue_id": ue_id, "address": address, "session_type": session}))
    return steps


@dataclass(frozen=True)
class Cell:
    run_id: str
    approach: str
    model: Mapping[str, Any]
    k: int


def cells(batch: Batch) -> list[Cell]:
    """Every run of a batch, in the order the harness appends them."""
    config = batch.config
    out = []
    if batch.scenario == "A":
        k = len(allocation_steps(config))
        spec = config["scenario_a"]
        for approach in spec["approaches"]:
            for model in config["models"]:
                for rep in range(1, spec["runs_per_cell"] + 1):
                    run_id = f"A-{approach}-{model['model_id']}-k{k:03d}-r{rep:03d}"
                    out.append(Cell(run_id, approach, model, k))
    else:
        spec = config["scenario_b"]
        for model in config["models"]:
            for k in spec["k_values"]:
                for rep in range(1, spec["runs_per_cell"] + 1):
                    out.append(Cell(f"B-A1-{model['model_id']}-k{k:03d}-r{rep:03d}", "A1", model, k))
    return out


# ---------------------------------------------------------------------------
# Expected verdicts from fault programs


@dataclass(frozen=True)
class Expected:
    outcome: str
    subclass: str | None = None
    position: int | None = None  # 1-based index into the checked trace view


def _random_stop_kept(fault: Mapping[str, Any], run_id: str, n_calls: int) -> int:
    """How many calls a random_stop program keeps: the run's generator is
    seeded with the first 8 bytes of SHA-256("<fault seed>:<run id>"), and
    the run stops before the first call whose draw falls below ``prob``."""
    digest = hashlib.sha256(f"{fault.get('seed', 0)}:{run_id}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    for i in range(n_calls):
        if rng.random() < fault["prob"]:
            return i
    return n_calls


def expected_agent_verdict(
    fault: Mapping[str, Any],
    run_id: str,
    n_calls: int,
    visible: Mapping[str, str],
    procedure_tools: set[str],
) -> Expected:
    """Agent-level verdict of a scripted run.

    ``n_calls`` is the fault-free call count (k, or 1 for A4) and
    ``visible`` maps each tool on the run's server to its scope. A fault at
    step 1 perturbs the first call; every other call stays valid.
    """
    kind = fault.get("kind", "none")
    if kind == "none":
        return Expected("Correct")
    if kind == "no_calls":
        return Expected("NoToolCalls")
    if kind == "random_stop":
        kept = _random_stop_kept(fault, run_id, n_calls)
        if kept == 0:
            return Expected("NoToolCalls")
        return Expected("Correct" if kept == n_calls else "PrematureStop")
    step = fault["step"]
    if kind == "stop_after":
        return Expected("Correct" if step >= n_calls else "PrematureStop")
    if kind == "duplicate_step":
        # the repeat is valid, so the first class in the cascade it meets
        # is DuplicateTool, at the repeat
        return Expected("DuplicateTool", position=step + 1)
    if kind == "hallucinate_name_at":
        return Expected("WrongTool", "wrong_tool_name", step)
    if kind == "drop_param_at":
        # every tool's first parameter is required
        return Expected("WrongTool", "wrong_parameters", step)
    if kind == "call_outside_at":
        tool = fault["tool"]
        if tool not in visible:
            return Expected("WrongTool", "wrong_tool_name", step)
        if tool not in procedure_tools:
            return Expected("WrongTool", "tool_outside_procedure", step)
    raise ValueError(f"no derivation for fault program {dict(fault)!r}")


def expected_flattened_verdict(
    fault: Mapping[str, Any], run_id: str, k: int, flat_scopes: Mapping[str, str]
) -> Expected:
    """Flattened verdict of an A4 run: each encapsulated call is replaced by
    the internal calls it ran. A call the host rejects, and a decoy
    procedure, run no internal call."""
    kind = fault.get("kind", "none")
    if kind in ("none", "stop_after"):
        return Expected("Correct")
    if kind == "no_calls":
        return Expected("NoToolCalls")
    if kind == "random_stop":
        kept = _random_stop_kept(fault, run_id, 1)
        return Expected("Correct" if kept else "NoToolCalls")
    if kind == "duplicate_step":
        # the second run repeats ue_authorization right after the first k calls
        return Expected("DuplicateTool", position=k + 1)
    if kind == "hallucinate_name_at":
        return Expected("WrongTool", "wrong_tool_name", 1)
    if kind == "drop_param_at":
        return Expected("NoToolCalls")
    if kind == "call_outside_at":
        scope = flat_scopes.get(fault["tool"])
        if scope is None:
            return Expected("WrongTool", "wrong_tool_name", 1)
        if scope == "encapsulated":
            return Expected("NoToolCalls")
        return Expected("WrongTool", "tool_outside_procedure", 1)
    raise ValueError(f"no derivation for fault program {dict(fault)!r}")


# ---------------------------------------------------------------------------
# Trace views and latency, computed from the archive


def agent_view(doc: Mapping[str, Any], scopes: Mapping[str, str]) -> list[dict[str, Any]]:
    return [
        r
        for r in doc["trace"]["records"]
        if r["origin"] == "agent_issued" and scopes.get(r["tool_name"]) != "meta"
    ]


def flattened_view(doc: Mapping[str, Any], scopes: Mapping[str, str]) -> list[dict[str, Any]]:
    out: list[dict[str, Any]] = []
    internals: dict[int, list[dict[str, Any]]] = {}
    parent = None
    for r in doc["trace"]["records"]:
        if r["origin"] == "agent_issued":
            parent = r["step_index"]
        elif parent is not None:
            internals.setdefault(parent, []).append(r)
    for r in agent_view(doc, scopes):
        if scopes.get(r["tool_name"]) == "encapsulated":
            out.extend(internals.get(r["step_index"], []))
        else:
            out.append(r)
    return out


def virtual_latency(doc: Mapping[str, Any]) -> int:
    """Model turns plus tool time; internal calls nested inside an
    agent-issued call are already inside its interval."""
    records = doc["trace"]["records"]
    agent = [(r["started_at"], r["ended_at"]) for r in records if r["origin"] == "agent_issued"]
    total = sum(end - start for start, end in doc["llm_steps"])
    total += sum(end - start for start, end in agent)
    for r in records:
        if r["origin"] != "agent_issued" and not any(
            s <= r["started_at"] and r["ended_at"] <= e for s, e in agent
        ):
            total += r["ended_at"] - r["started_at"]
    return total


def _verdict_matches(
    got: Mapping[str, Any] | None, want: Expected, view: list[dict[str, Any]]
) -> str | None:
    if got is None:
        return "has no verdict"
    want_step = view[want.position - 1]["step_index"] if want.position else None
    if (got["outcome"], got["wrong_tool_subclass"]) != (want.outcome, want.subclass):
        return (
            f"verdict {got['outcome']}/{got['wrong_tool_subclass']} differs from the "
            f"expected {want.outcome}/{want.subclass}"
        )
    if want.position and got["offending_step"] != want_step:
        return f"offending step {got['offending_step']} differs from the expected {want_step}"
    return None


# ---------------------------------------------------------------------------
# Per-batch checks on the reference pass


def read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().split("\n") if line.strip()]


def _index_docs(
    findings: Findings, pass_no: int, batch: Batch, lines: list[str]
) -> dict[str, dict[str, Any]]:
    docs: dict[str, dict[str, Any]] = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            doc = json.loads(line)
            docs[doc["run_id"]] = doc
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            findings.batch(pass_no, batch.label, f"line {lineno} is not a run document ({exc})")
    return docs


def check_scenario_a_run(
    doc: Mapping[str, Any], cell: Cell, config: Mapping[str, Any],
    scopes: Mapping[int, Mapping[str, str]], reference: Any,
) -> list[str]:
    """Problems with one classified scenario-A run."""
    problems = []
    steps = allocation_steps(config)
    step_names = [name for name, _ in steps]
    a4 = cell.approach == "A4"
    server = scopes[1 if a4 else 2]
    fault = cell.model.get("fault", {"kind": "none"})
    if doc["terminated_reason"] == "backend_error":
        problems.append("ended in a backend error")
    got_expected = [s["tool_name"] for s in doc["expected"]["steps"]]
    if got_expected != ([ENCAP] if a4 else step_names):
        problems.append(f"expected procedure {got_expected} is not the derived one")
    view = agent_view(doc, server)
    want = expected_agent_verdict(
        fault, cell.run_id, 1 if a4 else len(steps), server, {ENCAP} if a4 else set(step_names)
    )
    msg = _verdict_matches(doc.get("verdict_agent"), want, view)
    if msg:
        problems.append(f"agent-level {msg}")
    flat_scopes = {**scopes[1], **scopes[2]}
    flat = flattened_view(doc, flat_scopes) if a4 else None
    if a4:
        flat_expected = [s["tool_name"] for s in (doc.get("expected_flattened") or {}).get("steps", [])]
        if flat_expected != step_names:
            problems.append(f"expected flattened procedure {flat_expected} is not the derived one")
        want_flat = expected_flattened_verdict(fault, cell.run_id, len(steps), flat_scopes)
        msg = _verdict_matches(doc.get("verdict_flattened"), want_flat, flat)
        if msg:
            problems.append(f"flattened {msg}")
    problems.extend(reference(doc, view, flat))

    if fault.get("kind", "none") == "none":
        turns = len(doc["llm_steps"])
        n_agent = sum(1 for r in doc["trace"]["records"] if r["origin"] == "agent_issued")
        want_turns = {"A1": cell.k + 1, "A2": cell.k + 2, "A3": cell.k + 1, "A4": 2}[cell.approach]
        if turns != want_turns:
            problems.append(f"fault-free run took {turns} turns, not {want_turns}")
        if virtual_latency(doc) != turns + n_agent:
            problems.append(
                f"virtual latency {virtual_latency(doc)} is not turns + calls = {turns + n_agent}"
            )
        executed = flat if a4 else view
        last_name, last_args = steps[-1]
        last = executed[-1] if executed else None
        if last is None or last["tool_name"] != last_name:
            problems.append(f"fault-free run did not end with {last_name}")
        elif last_name == AUTH:
            if (last["result"] or {}).get("status") != "rejected":
                problems.append("the refused session type was not rejected")
        elif (last["result"] or {}).get("address") != last_args["address"]:
            problems.append(
                f"assigned address {(last['result'] or {}).get('address')!r} is not "
                f"{last_args['address']!r}"
            )
    return problems


def _u01(*parts: Any) -> float:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def check_scenario_b_run(
    doc: Mapping[str, Any], cell: Cell, gen: Mapping[str, Any]
) -> list[str]:
    """Problems with one classified scenario-B run, against the gen stage's
    files and the documented KPI digest (sha256-trunc8-u01/v1)."""
    problems = []
    pool = gen["pool"]
    tools = {t["name"]: t for t in pool["tools"]}
    stress = gen["stress"][cell.k]
    kpis = stress["intent"]["structured"]["required_kpis"]
    region = stress["intent"]["structured"]["region"]
    if doc["terminated_reason"] != "model_finished":
        problems.append(f"ended with {doc['terminated_reason']}")
    if doc["expected"] != stress["procedure"]:
        problems.append("expected procedure differs from the gen stage's procedure")
    view = [r for r in doc["trace"]["records"] if r["origin"] == "agent_issued"]
    if [r["tool_name"] for r in view] != kpis:
        problems.append("called tools differ from the requested KPI list")
    for r in view:
        tool = tools.get(r["tool_name"])
        if tool is None or r["arguments"] != {"region": region} or not r["success"]:
            problems.append(f"step {r['step_index']} is not a successful query of {region}")
            continue
        value = round(tool["lo"] + _u01(pool["seed"], tool["name"], region) * (tool["hi"] - tool["lo"]), 3)
        thr = tool["abnormal_threshold"]
        abnormal = value > thr if tool["high_is_bad"] else value < thr
        want = {"kpi": tool["name"], "region": region, "value": value, "unit": tool["unit"],
                "abnormal": abnormal, "threshold": thr}
        if r["result"] != want:
            problems.append(f"step {r['step_index']} returned {r['result']!r}, not {want!r}")
    msg = _verdict_matches(doc.get("verdict_agent"), Expected("Correct"), view)
    if msg:
        problems.append(f"agent-level {msg}")
    turns = len(doc["llm_steps"])
    if turns != cell.k + 1:
        problems.append(f"fault-free run took {turns} turns, not {cell.k + 1}")
    if virtual_latency(doc) != turns + len(view):
        problems.append(f"virtual latency {virtual_latency(doc)} is not turns + calls = {turns + len(view)}")
    return problems


def check_gen(findings: Findings, pass_no: int, batch: Batch, gen: Mapping[str, Any]) -> None:
    pool = gen["pool"]
    names = [t["name"] for t in pool["tools"]]
    if len(names) != 100 or len(set(names)) != 100:
        findings.batch(pass_no, batch.label, "the KPI pool does not hold 100 distinct tools")
    if pool["seed"] != batch.config["seed"]:
        findings.batch(pass_no, batch.label, "the KPI pool was made from another seed")
    for k, stress in gen["stress"].items():
        kpis = stress["intent"]["structured"]["required_kpis"]
        region = stress["intent"]["structured"]["region"]
        steps = stress["procedure"]["steps"]
        if len(kpis) != k or len(set(kpis)) != k or not set(kpis) <= set(names):
            findings.batch(pass_no, batch.label, f"stress procedure k={k} has no {k} distinct pool tools")
        if [s["tool_name"] for s in steps] != kpis or any(
            s["arg_constraints"] != {"region": region} for s in steps
        ):
            findings.batch(pass_no, batch.label, f"stress procedure k={k} does not match its intent")


# ---------------------------------------------------------------------------
# Summary CSV and markdown, recomputed from the classified archive


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, at position (n - 1) * q."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def check_summary(
    findings: Findings, pass_no: int, batch: Batch, docs: Iterable[Mapping[str, Any]],
    csv_text: str, markdown: str,
) -> None:
    groups: dict[tuple[str, str, str, str], list[Mapping[str, Any]]] = {}
    for doc in docs:
        key = (doc["scenario"], doc["approach"], doc["model_id"], str(doc["k"]))
        groups.setdefault(key, []).append(doc)
    rows = list(csv.DictReader(csv_text.splitlines()))
    if csv_text.splitlines()[:1] != [CSV_HEADER]:
        findings.batch(pass_no, batch.label, "summary CSV header differs from the documented one")
    got_keys = [(r["scenario"], r["approach"], r["model"], r["k"]) for r in rows]
    if sorted(got_keys) != sorted(groups) or len(set(got_keys)) != len(got_keys):
        findings.batch(pass_no, batch.label, f"summary CSV groups {got_keys} differ from the archive's")
    for row, key in zip(rows, got_keys):
        members = groups.get(key)
        if not members:
            continue
        lats = [float(virtual_latency(d)) for d in members]
        q1, q2, q3 = (quantile(lats, q) for q in (0.25, 0.5, 0.75))
        outcomes = Counter(d["verdict_agent"]["outcome"] for d in members)
        want = {
            "runs": len(members),
            "correctness_rate": outcomes["Correct"] / len(members),
            "lat_min": min(lats), "lat_p25": q1, "lat_median": q2, "lat_p75": q3,
            "lat_max": max(lats), "lat_mean": sum(lats) / len(lats),
            "mean_n_llm": sum(len(d["llm_steps"]) for d in members) / len(members),
        }
        want.update({col: outcomes[outcome] for col, outcome in ERR_COLUMNS})
        for col, value in want.items():
            tolerance = 5e-7 if col == "correctness_rate" else 5e-4
            if abs(float(row[col]) - value) > tolerance:
                findings.batch(
                    pass_no, batch.label,
                    f"summary CSV {'/'.join(key)} {col} = {row[col]}, recomputed {value}",
                )
    for key in groups:
        prefix = f"| {key[1]} | {key[2]} | {key[3]} | "
        if sum(1 for line in markdown.splitlines() if line.startswith(prefix)) != 2:
            findings.batch(pass_no, batch.label, f"markdown report lacks the two rows of {'/'.join(key)}")


# ---------------------------------------------------------------------------
# Entry points used by the pipeline


def check_reference_batch(
    findings: Findings, pass_no: int, batch: Batch, lines: list[str],
    csv_text: str, markdown: str, gen: Mapping[str, Any],
    scopes: Mapping[int, Mapping[str, str]], reference: Any,
) -> None:
    """Deep checks on one batch's classified archive and reports.

    ``scopes`` maps each server id to its tools' scopes, as its
    ``tools/list`` reply gives them."""
    docs = _index_docs(findings, pass_no, batch, lines)
    want_cells = cells(batch)
    order = [json.loads(line).get("run_id") for line in lines if _is_json(line)]
    if order != [c.run_id for c in want_cells if c.run_id in docs]:
        findings.batch(pass_no, batch.label, "runs are not in cell order")
    check_gen(findings, pass_no, batch, gen)
    for cell in want_cells:
        doc = docs.get(cell.run_id)
        if doc is None:
            findings.run(pass_no, cell.run_id, "missing from the classified archive")
            continue
        try:
            if batch.scenario == "A":
                problems = check_scenario_a_run(doc, cell, batch.config, scopes, reference)
            else:
                problems = check_scenario_b_run(doc, cell, gen)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems = [f"malformed document ({type(exc).__name__}: {exc})"]
        for message in problems:
            findings.run(pass_no, cell.run_id, message)
    extra = set(docs) - {c.run_id for c in want_cells}
    for run_id in sorted(extra):
        findings.run(pass_no, run_id, "is not a run of this batch")
    check_summary(findings, pass_no, batch, docs.values(), csv_text, markdown)


def _is_json(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


def compare_lines(
    findings: Findings, pass_no: int, batch: Batch, what: str,
    want: list[str], got: list[str],
) -> None:
    """Byte comparison of two archives, reported per run id."""
    if want == got:
        return

    def by_id(lines: list[str]) -> dict[str, str]:
        out = {}
        for line in lines:
            try:
                out[json.loads(line)["run_id"]] = line
            except (json.JSONDecodeError, KeyError, TypeError):
                out.setdefault("<unreadable line>", line)
        return out

    want_ids, got_ids = by_id(want), by_id(got)
    for run_id, line in want_ids.items():
        if run_id not in got_ids:
            findings.run(pass_no, run_id, f"missing from the {what}")
        elif got_ids[run_id] != line:
            findings.run(pass_no, run_id, f"line differs from the {what}")
    for run_id in got_ids.keys() - want_ids.keys():
        findings.run(pass_no, run_id, f"not in the {what}")
    if want_ids == got_ids:
        findings.batch(pass_no, batch.label, f"line order differs from the {what}")
