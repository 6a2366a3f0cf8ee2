"""Workload definitions: the configs the harness receives, made from a seed.

Nothing here imports procharness. A workload is a list of batches; each
batch is one plain config dict (the harness's JSON config format) plus the
scenario to run it under. The harness sees only these dicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

DEFAULT_SEED = 20260517

APPROACHES = ("A1", "A2", "A3", "A4")
STRESS_K = (5, 10, 20, 30, 40, 50)
SESSION_TYPES = ("IPv4", "IPv6", "IPv4v6")

# Tools registered nowhere in a scenario-A procedure: two encapsulated decoys
# on server 1 and one KPI tool no scenario-A server knows.
OUTSIDE_TOOLS = ("pdu_session_release", "qos_profile_update", "amf_load")

# Per-run sizes. "full" is what the benchmark measures; "tiny" keeps the same
# inputs and code paths with the fewest runs, for the benchmark's own tests.
RUNS_PER_CELL = {
    "ue_mix": {"full": 2, "tiny": 1},
    "stress_loopback": {"full": 10, "tiny": 1},
    "stress_http": {"full": 2, "tiny": 1},
}

WORKLOADS = tuple(RUNS_PER_CELL)


@dataclass(frozen=True)
class Batch:
    """One `run` invocation: a scenario and the config dict it runs with."""

    label: str
    scenario: str
    config: dict[str, Any]
    over_http: bool = False


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across processes
    return random.Random(f"pipebench:{workload}:{seed}")


def _fault_models(rng: random.Random) -> list[dict[str, Any]]:
    """One fault-free model plus one model per fault program that is valid
    for every approach. A4 has a single call, so every positional fault sits
    at step 1; swap_steps needs a successor and is left out."""
    outside = rng.choice(OUTSIDE_TOOLS)
    faults = [
        ("clean", {"kind": "none"}),
        ("stop1", {"kind": "stop_after", "step": 1}),
        ("dup1", {"kind": "duplicate_step", "step": 1}),
        ("halluc1", {"kind": "hallucinate_name_at", "step": 1}),
        ("drop1", {"kind": "drop_param_at", "step": 1}),
        ("outside1", {"kind": "call_outside_at", "step": 1, "tool": outside}),
        ("nocalls", {"kind": "no_calls"}),
        (
            "rstop",
            {
                "kind": "random_stop",
                "prob": 0.3,
                "seed": rng.randrange(1 << 30),
            },
        ),
    ]
    return [
        {"model_id": model_id, "kind": "scripted", "llm_latency_ms": 1, "fault": fault}
        for model_id, fault in faults
    ]


def _ue_fixtures(rng: random.Random) -> tuple[list[dict[str, Any]], list[dict[str, str]]]:
    """Three subscribers and one request each: a rejected session type
    (k = 1), a usable static address (k = 3) and dual-stack DHCP (k = 5)."""
    rejected_id, static_id, dual_id = (
        f"ue-{n:03d}" for n in rng.sample(range(100, 1000), 3)
    )
    refused = rng.choice(SESSION_TYPES)
    if rng.random() < 0.5:
        static_ip = f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        static_type = "IPv4"
    else:
        static_ip = f"fd00::{rng.randrange(1, 0xFFFF):x}"
        static_type = "IPv6"
    fixtures = [
        {
            "ue_id": rejected_id,
            "authorized_session_types": sorted(set(SESSION_TYPES) - {refused}),
            "static_ip": None,
        },
        {
            "ue_id": static_id,
            "authorized_session_types": sorted({static_type, "IPv4v6"}),
            "static_ip": static_ip,
        },
        {"ue_id": dual_id, "authorized_session_types": list(SESSION_TYPES), "static_ip": None},
    ]
    requests = [
        {"ue_id": rejected_id, "session_type": refused},
        {"ue_id": static_id, "session_type": static_type},
        {"ue_id": dual_id, "session_type": "IPv4v6"},
    ]
    return fixtures, requests


def batches(workload: str, seed: int, size: str = "full") -> list[Batch]:
    """The batches one pass of a workload runs, in order."""
    if workload not in RUNS_PER_CELL:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    runs_per_cell = RUNS_PER_CELL[workload][size]
    rng = _rng(workload, seed)
    config_seed = rng.randrange(1, 1 << 31)
    if workload == "ue_mix":
        fixtures, requests = _ue_fixtures(rng)
        models = _fault_models(rng)
        out = []
        for label, request in zip(("k1", "k3", "k5"), requests):
            config = {
                "seed": config_seed,
                "workers": 1,
                "tool_latency_ms": 1,
                "models": models,
                "scenario_a": {
                    "runs_per_cell": runs_per_cell,
                    "approaches": list(APPROACHES),
                    "request": request,
                    "fixtures": fixtures,
                },
            }
            out.append(Batch(label, "A", config))
        return out
    config = {
        "seed": config_seed,
        "workers": 2 if workload == "stress_http" else 1,
        "tool_latency_ms": 1,
        "models": [{"model_id": "clean", "kind": "scripted", "llm_latency_ms": 1}],
        "scenario_b": {"runs_per_cell": runs_per_cell, "k_values": list(STRESS_K)},
    }
    return [Batch("b", "B", config, over_http=workload == "stress_http")]
