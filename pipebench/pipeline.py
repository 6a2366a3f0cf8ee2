"""Drive gen -> run -> classify -> report through procharness's public
functions, time each stage, and check every output.

A pass runs every batch of a workload once through the four stages. The
first pass is the reference: it is checked in depth (see ``expect``) and is
not timed. Timed passes follow, closed-loop, until the run's time is up;
each must write the same bytes as the reference. Rates are total work over
total stage time of the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import expect
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 9
TAIL_LADDER = (0.999, 0.99, 0.9, 0.75)


class HarnessMissing(RuntimeError):
    pass


def import_harness() -> float:
    """Import procharness from this checkout's ``src``; returns seconds."""
    if not (SRC / "procharness" / "__init__.py").is_file():
        raise HarnessMissing(f"no procharness package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import procharness.runner  # noqa: F401

    elapsed = time.perf_counter() - t0
    loaded = Path(sys.modules["procharness"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise HarnessMissing(f"procharness was imported from {loaded}, not {SRC}")
    return elapsed


def probe_setup(workload: str, seed: int, size: str) -> dict[str, float]:
    """One set-up in a fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", workload,
         "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class StageTimes:
    gen: float = 0.0
    run: float = 0.0
    classify: float = 0.0
    report: float = 0.0

    @property
    def total(self) -> float:
        return self.gen + self.run + self.classify + self.report


@dataclass
class BatchFiles:
    raw: list[str]
    classified: list[str]
    csv: str
    markdown: str


class Workbench:
    """One workload's batches, configs and (for HTTP) its tool servers."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path) -> None:
        from procharness.config import config_from_dict
        from procharness.runner import HarnessEnv

        self.workload = workload
        self.batches = workloads.batches(workload, seed, size)
        self.configs = [config_from_dict(b.config) for b in self.batches]
        self.workdir = workdir
        # the gen stage reads its config from a file, as `procharness gen` does
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for batch in self.batches:
            path = workdir / f"config-{batch.label}.json"
            path.write_text(json.dumps(batch.config), encoding="utf-8")
            self.config_paths.append(path)
        self.envs = [HarnessEnv(c) for c in self.configs]
        self.servers: list[Any] = []
        self.server_urls: dict[int, str] | None = None

    def start_servers(self) -> None:
        from procharness.wire import ToolServer

        hosts = self.envs[0].hosts
        for sid in sorted(hosts):
            self.servers.append(ToolServer(hosts[sid]).start())
        self.server_urls = {sid: s.url for sid, s in zip(sorted(hosts), self.servers)}

    def close(self) -> None:
        for server in self.servers:
            server.close()
        self.servers.clear()

    def scopes(self, index: int) -> dict[int, dict[str, str]]:
        """Server id -> tool name -> scope, from each host's tools/list."""
        hosts = self.envs[index].hosts
        return {sid: {d["name"]: d["scope"] for d in host.list_tools()} for sid, host in hosts.items()}

    def run_pass(self, name: str, http: bool = True) -> tuple[StageTimes, list[BatchFiles]]:
        from procharness import archive, cli, runner

        times = StageTimes()
        files = []
        for batch, config, config_path in zip(self.batches, self.configs, self.config_paths):
            out = self.workdir / name / batch.label
            out.mkdir(parents=True, exist_ok=True)
            raw, classified = out / "runs.jsonl", out / "runs_classified.jsonl"
            csv_path, md_path = out / "summary.csv", out / "report.md"
            raw.unlink(missing_ok=True)  # run_batch resumes; every pass starts afresh
            urls = self.server_urls if (batch.over_http and http) else None

            gen_args = argparse.Namespace(config=config_path, seed=None, workers=None, out=out)

            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):  # it prints the paths it wrote
                status = cli.cmd_gen(gen_args)
            t1 = time.perf_counter()
            if status != cli.EXIT_OK:
                raise RuntimeError(f"{batch.label}: gen exited with {status}")
            runner.run_batch(config, batch.scenario, raw, urls)
            t2 = time.perf_counter()
            runner.classify_archive(config, raw, classified)
            t3 = time.perf_counter()
            runner.write_reports(archive.load_documents(classified), csv_path, md_path)
            t4 = time.perf_counter()

            times.gen += t1 - t0
            times.run += t2 - t1
            times.classify += t3 - t2
            times.report += t4 - t3
            files.append(BatchFiles(
                expect.read_lines(raw), expect.read_lines(classified),
                csv_path.read_text(encoding="utf-8"), md_path.read_text(encoding="utf-8"),
            ))
        return times, files

    def read_gen(self, name: str, index: int) -> dict[str, Any]:
        out = self.workdir / name / self.batches[index].label
        stress = {}
        for k in self.configs[index].scenario_b.k_values:
            stress[k] = json.loads((out / f"stress_k{k:03d}.json").read_text(encoding="utf-8"))
        return {"pool": json.loads((out / "kpi_pool.json").read_text(encoding="utf-8")),
                "stress": stress}


def make_reference_check(bench: Workbench, index: int):
    """Scenario-A cross-check of each verdict against procharness.reference,
    on the trace views the benchmark computed."""
    from procharness.model import ObservedTrace, Procedure, ToolCallRecord, ToolRegistry
    from procharness.reference import reference_classify

    hosts = bench.envs[index].hosts
    agent_registry = {1: hosts[1].registry, 2: hosts[2].registry}
    flat_registry = ToolRegistry(list(hosts[1].registry) + list(hosts[2].registry))

    def check(doc, view, flat):
        a4 = doc["approach"] == "A4"
        levels = [("agent", doc["expected"], view, agent_registry[1 if a4 else 2],
                   doc.get("verdict_agent"))]
        if a4:
            levels.append(("flattened", doc["expected_flattened"], flat, flat_registry,
                           doc.get("verdict_flattened")))
        problems = []
        for level, procedure, records, registry, got in levels:
            if got is None or len(records) > expect.REFERENCE_MAX_OBSERVED:
                continue
            want = reference_classify(
                Procedure.from_dict(procedure),
                ObservedTrace(tuple(ToolCallRecord.from_dict(r) for r in records)),
                registry,
            )
            sub = want.wrong_tool_subclass.value if want.wrong_tool_subclass else None
            if (got["outcome"], got["wrong_tool_subclass"]) != (want.outcome.value, sub):
                problems.append(
                    f"{level} verdict {got['outcome']}/{got['wrong_tool_subclass']} differs "
                    f"from procharness.reference's {want.outcome.value}/{sub}"
                )
        return problems

    return check


def count_rpcs(lines: list[str]) -> int:
    """tools/list plus tools/call requests, from the archive: each run lists
    its one visible server once, then sends one call per agent-issued record."""
    total = 0
    for line in lines:
        doc = json.loads(line)
        total += 1 + sum(1 for r in doc["trace"]["records"] if r["origin"] == "agent_issued")
    return total


@dataclass
class PassStats:
    times: StageTimes
    runs: int
    rpcs: int
    traced: bool


@dataclass
class Outcome:
    workload: str
    findings: expect.Findings
    attempted: int = 0
    passes: list[PassStats] = field(default_factory=list)
    setup: list[dict[str, float]] = field(default_factory=list)
    tracer: spans.Tracer | None = None


def check_reference(bench: Workbench, files: list[BatchFiles], findings: expect.Findings) -> None:
    for i, (batch, f) in enumerate(zip(bench.batches, files)):
        reference = make_reference_check(bench, i) if batch.scenario == "A" else None
        expect.check_reference_batch(
            findings, 0, batch, f.classified, f.csv, f.markdown,
            bench.read_gen("ref", i), bench.scopes(i), reference,
        )


def compare_pass(
    bench: Workbench, pass_no: int, ref: list[BatchFiles], got: list[BatchFiles],
    findings: expect.Findings, what: str = "first pass's archive",
) -> None:
    for batch, want, have in zip(bench.batches, ref, got):
        expect.compare_lines(findings, pass_no, batch, what, want.raw, have.raw)
        expect.compare_lines(findings, pass_no, batch, what.replace("archive", "classified archive"),
                             want.classified, have.classified)
        if want.csv != have.csv:
            findings.batch(pass_no, batch.label, f"summary CSV differs (against the {what})")
        if want.markdown != have.markdown:
            findings.batch(pass_no, batch.label, f"markdown report differs (against the {what})")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    size: str = "full", probes: int = SETUP_PROBES, workdir: Path | None = None,
) -> Outcome:
    """The reference pass and its checks, then timed passes for ``seconds``,
    with the set-up probes. When ``trace``, every second pass is traced, so
    that traced and untraced passes sample the same stretch of time."""
    outcome = Outcome(workload, expect.Findings(workload))
    workdir = workdir or OUT / f"work-{workload}-{seed}-{time.time_ns()}"
    bench = Workbench(workload, seed, size, workdir)
    try:
        if any(b.over_http for b in bench.batches):
            bench.start_servers()
        _, ref = bench.run_pass("ref")
        runs_per_pass = sum(len(expect.cells(b)) for b in bench.batches)
        rpcs_per_pass = sum(count_rpcs(f.raw) for f in ref)
        outcome.attempted += runs_per_pass
        check_reference(bench, ref, outcome.findings)
        if bench.server_urls:
            _, loop = bench.run_pass("loopback", http=False)
            compare_pass(bench, 0, loop, ref, outcome.findings, "loopback transport's archive")

        # set-up probes are spread over the timed window, between passes, so
        # that their median samples the whole run as the passes do
        window_start = time.perf_counter()
        probe_due = [window_start + i * seconds / probes for i in range(probes)]

        def probe_if_due(final: bool = False) -> None:
            while probe_due and (final or time.perf_counter() >= probe_due[0]):
                probe_due.pop(0)
                outcome.setup.append(probe_setup(workload, seed, size))

        outcome.tracer = spans.Tracer() if trace else None
        pass_no = 0
        while True:
            probe_if_due()
            pass_no += 1
            traced = trace and pass_no % 2 == 0
            if traced:
                outcome.tracer.install()
            try:
                times, got = bench.run_pass("pass")
            finally:
                if traced:
                    outcome.tracer.remove()
            outcome.attempted += runs_per_pass
            outcome.passes.append(PassStats(times, runs_per_pass, rpcs_per_pass, traced))
            compare_pass(bench, pass_no, ref, got, outcome.findings)
            # a traced run ends on a traced pass: as many traced as untraced
            if time.perf_counter() >= window_start + seconds and (traced or not trace):
                break
        probe_if_due(final=True)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


# ---------------------------------------------------------------------------
# Metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(outcome: Outcome, traced: bool = False) -> dict[str, tuple[float, str]]:
    """Rates are total work over total stage time of the timed passes. On a
    shared machine the CPU's speed can flip between a fast and a slow mode
    from one pass to the next; a median over passes then jumps between the
    modes, while the ratio of sums moves smoothly with the share of fast
    passes."""
    passes = [p for p in outcome.passes if p.traced == traced]
    runs = sum(p.runs for p in passes)

    def seconds(stage: str) -> float:
        return sum(getattr(p.times, stage) for p in passes)

    return {
        "setup_s": (_median([s["setup_s"] for s in outcome.setup]), "s"),
        "pipeline_runs_per_s": (runs / seconds("total"), "runs/s"),
        "run_rpcs_per_s": (sum(p.rpcs for p in passes) / seconds("run"), "rpc/s"),
        "classify_runs_per_s": (runs / seconds("classify"), "runs/s"),
        "report_runs_per_s": (runs / seconds("report"), "runs/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tail_quantile(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it."""
    return next((q for q in TAIL_LADDER if n * (1 - q) >= 10), None)


def per_layer(outcome: Outcome) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Per-layer metrics from the traced passes, per pass; plus notes on
    which percentile each tail is."""
    tracer = outcome.tracer
    assert tracer is not None
    n_pass = sum(1 for p in outcome.passes if p.traced)
    linked = spans.link_cross_thread(tracer.spans)
    own = spans.self_times(linked)
    by_name: dict[str, list[spans.Span]] = {}
    for s in linked:
        by_name.setdefault(s.name, []).append(s)

    def total_s(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name.get(n, [])) / 1e9 / n_pass

    def self_s(*names: str) -> float:
        return sum(own[s.span_id] for n in names for s in by_name.get(n, [])) / 1e9 / n_pass

    def count(name: str) -> float:
        return len(by_name.get(name, [])) / n_pass

    def value(name: str) -> float:
        return sum(s.value or 0.0 for s in by_name.get(name, [])) / n_pass

    notes = {}

    def pct_ms(name: str, metric: str) -> tuple[float, float]:
        ms = [s.duration / 1e6 for s in by_name.get(name, [])]
        if not ms:
            return 0.0, 0.0
        q = tail_quantile(len(ms))
        notes[metric] = (
            f"p{q * 100:g} of {len(ms)} samples" if q else
            f"median: {len(ms)} samples are too few for a tail"
        )
        return expect.quantile(ms, 0.5), expect.quantile(ms, q or 0.5)

    call_p50, call_tail = pct_ms("wire.call", "wire.call_ms_tail")
    run_p50, run_tail = pct_ms("runner.execute_run", "runner.run_ms_tail")
    untraced = end_to_end(outcome, traced=False)["run_rpcs_per_s"][0]
    traced = end_to_end(outcome, traced=True)["run_rpcs_per_s"][0]
    setup = outcome.setup
    m = {
        "procharness.import_s": (_median([s["import_s"] for s in setup]), "s"),
        "runner.env_s": (_median([s["env_s"] for s in setup]), "s"),
        "wire.server_start_s": (_median([s["server_start_s"] for s in setup]), "s"),
        "agent.step_s": (total_s("agent.step"), "s"),
        "agent.turns": (count("agent.step"), "count"),
        "agent.prepare_s": (total_s("agent.build_context", "agent.build_playbook"), "s"),
        "agent.run_self_s": (self_s("agent.run_agent"), "s"),
        "wire.list_s": (total_s("wire.list"), "s"),
        "wire.lists": (count("wire.list"), "count"),
        "wire.list_bytes": (value("wire.list"), "bytes"),
        "wire.call_s": (total_s("wire.call"), "s"),
        "wire.calls": (count("wire.call"), "count"),
        "wire.call_ms_p50": (call_p50, "ms"),
        "wire.call_ms_tail": (call_tail, "ms"),
        "wire.client_self_s": (self_s("wire.list", "wire.call"), "s"),
        "wire.dispatch_self_s": (self_s("wire.handle_rpc"), "s"),
        "wire.http_connections": (tracer.counts["http_connections"] / n_pass, "count"),
        "wire.http_requests": (tracer.counts["http_requests"] / n_pass, "count"),
        "toolsim.call_s": (total_s("toolsim.call"), "s"),
        "toolsim.calls": (count("toolsim.call"), "count"),
        "toolsim.list_s": (total_s("toolsim.list"), "s"),
        "archive.append_s": (total_s("archive.append"), "s"),
        "archive.bytes_written": (value("archive.append"), "bytes"),
        "archive.scan_s": (total_s("archive.scan"), "s"),
        "archive.load_s": (total_s("archive.load"), "s"),
        "model.encode_s": (total_s("model.encode"), "s"),
        "model.decode_s": (total_s("model.decode"), "s"),
        "model.trace_s": (total_s("model.trace"), "s"),
        "classify.verdict_s": (total_s("classify.verdict"), "s"),
        "classify.verdicts": (count("classify.verdict"), "count"),
        "metrics.summarize_s": (total_s("metrics.summarize"), "s"),
        "metrics.csv_s": (total_s("metrics.csv"), "s"),
        "runner.render_s": (total_s("runner.render"), "s"),
        "runner.execute_run_s": (total_s("runner.execute_run"), "s"),
        "runner.run_ms_p50": (run_p50, "ms"),
        "runner.run_ms_tail": (run_tail, "ms"),
        "runner.batch_self_s": (self_s("runner.run_batch"), "s"),
        "runner.classify_self_s": (self_s("runner.classify_archive"), "s"),
        "trace.run_rpcs_per_s_untraced": (untraced, "rpc/s"),
        "trace.run_rpcs_per_s_traced": (traced, "rpc/s"),
        "trace.overhead_pct": (100.0 * (untraced - traced) / untraced if untraced else 0.0, "%"),
        "trace.passes": (float(n_pass), "count"),
    }
    return m, notes
