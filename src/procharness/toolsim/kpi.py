"""Pool of 100 network-analytics tools for the long-sequence stress
scenario.

The tools, their descriptions and units are fixed (``KPI_TOOL_NAMES`` and
the unit rules); the seed sets only values and thresholds. KPI values come
from a counter-style construction: a SHA-256 digest of ``(seed, tool,
region)`` mapped to the tool's value range, so any language can reproduce
the numbers. The algorithm identifier is recorded in the pool definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from ..model import (
    Intent,
    Jsonable,
    ModelError,
    ParamSpec,
    Procedure,
    ToolSpec,
    stable_seed,
)
from .host import Handler, ToolResult

POOL_SIZE = 100
STRESS_LENGTHS = (5, 10, 20, 30, 40, 50)
KPI_INTENT_KEY = "network_health"
VALUE_ALGORITHM = "sha256-trunc8-u01/v1"

# fmt: off
KPI_TOOL_NAMES = (
    "avg_cell_throughput", "amf_load", "handover_success_rate",
    "dl_prb_utilization", "ul_prb_utilization", "rrc_setup_success_rate",
    "rrc_drop_rate", "paging_success_rate", "attach_success_rate",
    "pdu_session_setup_time",

    "pdu_session_success_rate", "registration_latency", "smf_load",
    "upf_load", "ausf_load", "udm_load", "nrf_query_rate",
    "pcf_policy_update_rate", "nssf_slice_selection_rate",
    "dl_throughput_per_ue",

    "ul_throughput_per_ue", "cell_availability", "cell_congestion_ratio",
    "active_ue_count", "connected_ue_count", "max_ue_per_cell", "avg_rsrp",
    "avg_rsrq", "avg_sinr", "avg_cqi",

    "dl_bler", "ul_bler", "dl_mcs_index", "ul_mcs_index", "ho_attempt_rate",
    "intra_freq_ho_success_rate", "inter_freq_ho_success_rate",
    "inter_rat_ho_success_rate", "x2_ho_latency", "n2_ho_latency",

    "rach_success_rate", "rach_collision_rate", "dl_latency_p50",
    "dl_latency_p95", "ul_latency_p50", "ul_latency_p95", "dl_jitter",
    "ul_jitter", "dl_packet_loss", "ul_packet_loss",

    "gtp_tunnel_count", "gtp_error_rate", "bearer_setup_success_rate",
    "bearer_drop_rate", "volte_call_setup_time", "volte_call_drop_rate",
    "volte_mos_score", "sms_delivery_rate", "roaming_ue_ratio",
    "edge_user_throughput",

    "dl_spectral_efficiency", "ul_spectral_efficiency",
    "carrier_aggregation_ratio", "mimo_rank_avg", "beam_failure_rate",
    "beam_recovery_time", "gnb_cpu_load", "gnb_mem_load",
    "fronthaul_latency", "backhaul_latency",

    "backhaul_utilization", "transport_packet_loss",
    "fiber_link_availability", "microwave_link_quality",
    "cell_energy_consumption", "sleep_mode_ratio", "pci_conflict_count",
    "anr_neighbor_count", "cell_outage_count", "critical_alarm_rate",

    "major_alarm_rate", "ticket_backlog_count", "mean_repair_time",
    "embb_slice_throughput", "urllc_slice_latency", "urllc_slice_reliability",
    "mmtc_device_count", "nf_heartbeat_miss_rate", "sbi_request_latency",
    "sbi_error_rate",

    "dns_resolution_latency", "ipsec_tunnel_availability",
    "tls_handshake_latency", "qos_flow_setup_success_rate",
    "qos_flow_retention_rate", "dl_traffic_volume", "ul_traffic_volume",
    "spectrum_utilization", "avg_interference_level", "drx_efficiency",
)
# fmt: on

# (substrings, unit, lo, hi, high_is_bad) -- first match wins
_UNIT_RULES = (
    (("throughput", "traffic_volume"), "mbps", 1.0, 2000.0, False),
    (("latency", "_time", "jitter"), "ms", 0.5, 500.0, True),
    (("packet_loss", "bler", "drop", "miss", "error_rate", "collision", "failure"), "percent", 0.0, 10.0, True),
    (("success", "availability", "delivery", "retention", "reliability", "quality", "efficiency"), "percent", 50.0, 100.0, False),
    (("_load", "utilization", "congestion", "ratio", "_rate"), "percent", 0.0, 100.0, True),
    (("_count", "backlog"), "count", 0.0, 10000.0, True),
    (("rsrp",), "dbm", -130.0, -70.0, False),
    (("rsrq",), "db", -20.0, -3.0, False),
    (("sinr",), "db", -5.0, 30.0, False),
    (("mos",), "score", 1.0, 5.0, False),
    (("energy",), "kwh", 0.0, 50.0, True),
    (("interference",), "dbm", -120.0, -60.0, True),
)
_DEFAULT_RULE = ("index", 0.0, 30.0, True)


def _unit_rule(name: str) -> tuple[str, float, float, bool]:
    for substrings, unit, lo, hi, high_is_bad in _UNIT_RULES:
        if any(s in name for s in substrings):
            return unit, lo, hi, high_is_bad
    return _DEFAULT_RULE


def _description(name: str) -> str:
    unit = _unit_rule(name)[0]
    return f"Return the {name.replace('_', ' ')} KPI ({unit}) for a geographic region."


@dataclass(frozen=True)
class KpiToolDef(Jsonable):
    name: str
    description: str
    unit: str
    lo: float
    hi: float
    abnormal_threshold: float
    high_is_bad: bool


@dataclass(frozen=True)
class KpiToolPool(Jsonable):
    seed: int
    tools: tuple[KpiToolDef, ...]

    def __post_init__(self) -> None:
        if len(self.tools) != POOL_SIZE:
            raise ModelError(f"pool must hold exactly {POOL_SIZE} tools")
        by_name = {t.name: t for t in self.tools}
        if len(by_name) != len(self.tools):
            raise ModelError("pool tool names must be unique")
        # a plain attribute, not a field: the pool's JSON stays as it is
        object.__setattr__(self, "_by_name", by_name)

    def get(self, name: str) -> KpiToolDef | None:
        return self._by_name.get(name)

    def to_dict(self) -> dict[str, Any]:
        # the algorithm and size go out with the pool so that its values
        # can be reproduced without this code
        return {"algorithm": VALUE_ALGORITHM, "size": POOL_SIZE, **super().to_dict()}


def build_kpi_pool(seed: int) -> KpiToolPool:
    tools = []
    for name in KPI_TOOL_NAMES:
        unit, lo, hi, high_is_bad = _unit_rule(name)
        u = stable_seed(seed, name, "threshold") / 2**64
        if high_is_bad:
            threshold = lo + (0.70 + 0.25 * u) * (hi - lo)
        else:
            threshold = lo + (0.05 + 0.25 * u) * (hi - lo)
        tools.append(
            KpiToolDef(
                name=name,
                description=_description(name),
                unit=unit,
                lo=lo,
                hi=hi,
                abnormal_threshold=round(threshold, 3),
                high_is_bad=high_is_bad,
            )
        )
    return KpiToolPool(seed=seed, tools=tuple(tools))


def kpi_query(pool: KpiToolPool, tool_name: str, region: str) -> dict[str, Any]:
    tool = pool.get(tool_name)
    if tool is None:
        raise KeyError(tool_name)
    u = stable_seed(pool.seed, tool_name, region) / 2**64
    value = round(tool.lo + u * (tool.hi - tool.lo), 3)
    abnormal = value > tool.abnormal_threshold if tool.high_is_bad else value < tool.abnormal_threshold
    return {
        "kpi": tool_name,
        "region": region,
        "value": value,
        "unit": tool.unit,
        "abnormal": abnormal,
        "threshold": tool.abnormal_threshold,
    }


def kpi_tool_specs() -> list[ToolSpec]:
    region = (ParamSpec("region"),)
    return [ToolSpec(name, _description(name), region) for name in KPI_TOOL_NAMES]


def make_kpi_handlers(pool: KpiToolPool) -> dict[str, Handler]:
    def make(name: str) -> Handler:
        return lambda args, session: ToolResult(content=kpi_query(pool, name, args["region"]))

    return {name: make(name) for name in KPI_TOOL_NAMES}


# ---------------------------------------------------------------------------
# Stress procedure generation


def gen_stress_procedure(k: int, seed: int) -> tuple[Intent, Procedure]:
    """Pick k distinct KPI tools by seeded draw and fix their order.

    The intent text names the tools explicitly; the procedure binds the
    region in every step.
    """
    if k < 1 or k > POOL_SIZE:
        raise ValueError(f"procedure length {k} out of range 1..{POOL_SIZE}")
    rng = random.Random(stable_seed(seed, "stress", k))
    tools = rng.sample(KPI_TOOL_NAMES, k)
    region = f"region-{rng.randrange(1, 17)}"
    intent = Intent(
        intent_key=KPI_INTENT_KEY,
        text=(
            f"Analyze the network health of region '{region}'. Collect these "
            f"KPIs in order using the corresponding tools: {', '.join(tools)}. "
            "Flag any abnormal metrics in your summary."
        ),
        structured={"region": region, "required_kpis": list(tools)},
    )
    calls = [(name, {"region": region}) for name in tools]
    return intent, Procedure.of_calls(f"{KPI_INTENT_KEY}:k{k}:seed{seed}", KPI_INTENT_KEY, calls)

