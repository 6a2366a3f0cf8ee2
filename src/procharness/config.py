"""Harness configuration: built-in defaults plus JSON file overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .agent import NO_FAULT, FaultProgram, RemoteEndpointConfig
from .model import Approach, ModelError
from .toolsim import POOL_SIZE, STRESS_LENGTHS, UeFixture, default_fixtures


def _int(d: Mapping[str, Any], key: str, default: int) -> int:
    value = d.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelConfig:
    model_id: str = "scripted"
    kind: str = "scripted"  # "scripted" or "openai_chat"
    fault: FaultProgram = NO_FAULT
    llm_latency_ms: int = 1
    endpoint: RemoteEndpointConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("scripted", "openai_chat"):
            raise ModelError(f"unknown model kind {self.kind!r}")
        if self.kind == "openai_chat" and self.endpoint is None:
            raise ModelError(f"model {self.model_id!r} needs an endpoint config")
        if self.llm_latency_ms < 0:
            raise ModelError(f"model {self.model_id!r}: llm_latency_ms must be at least 0")

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ModelConfig":
        endpoint = None
        if "endpoint" in d and d["endpoint"] is not None:
            e = d["endpoint"]
            endpoint = RemoteEndpointConfig(
                model=e.get("model", d.get("model_id", "")),
                base_url=e["base_url"],
                api_key_env=e.get("api_key_env", "PROCHARNESS_API_KEY"),
                temperature=float(e.get("temperature", 0.0)),
                max_output_tokens=e.get("max_output_tokens", 1024),
                retries=int(e.get("retries", 2)),
                timeout_s=float(e.get("timeout_s", 60.0)),
            )
        return cls(
            model_id=d.get("model_id", "scripted"),
            kind=d.get("kind", "scripted"),
            fault=FaultProgram.from_dict(d.get("fault", {})),
            llm_latency_ms=_int(d, "llm_latency_ms", 1),
            endpoint=endpoint,
        )


@dataclass(frozen=True)
class ScenarioAConfig:
    runs_per_cell: int = 50
    approaches: tuple[Approach, ...] = (
        Approach.A1,
        Approach.A2,
        Approach.A3,
        Approach.A4,
    )
    request: Mapping[str, str] = field(
        default_factory=lambda: {"ue_id": "ue-001", "session_type": "IPv4"}
    )
    fixtures: tuple[UeFixture, ...] = field(
        default_factory=lambda: tuple(default_fixtures().values())
    )
    repository_text: str | None = None  # None: use the canonical rendering

    def __post_init__(self) -> None:
        if self.runs_per_cell < 1:
            raise ModelError("runs_per_cell must be at least 1")
        for key in ("ue_id", "session_type"):
            if key not in self.request:
                raise ModelError(f"scenario_a.request needs {key!r}")


@dataclass(frozen=True)
class ScenarioBConfig:
    """The stress scenario runs the prompt-embedded approach (A1) only."""

    runs_per_cell: int = 30
    k_values: tuple[int, ...] = STRESS_LENGTHS

    def __post_init__(self) -> None:
        if self.runs_per_cell < 1:
            raise ModelError("runs_per_cell must be at least 1")
        for k in self.k_values:
            if not 1 <= k <= POOL_SIZE:
                raise ModelError(f"scenario_b.k_values must lie in 1..{POOL_SIZE}, got {k}")


@dataclass(frozen=True)
class HarnessConfig:
    seed: int = 42
    workers: int = 1
    tool_latency_ms: int = 1  # injected per-call latency for simulated runs
    scenario_a: ScenarioAConfig = field(default_factory=ScenarioAConfig)
    scenario_b: ScenarioBConfig = field(default_factory=ScenarioBConfig)
    models: tuple[ModelConfig, ...] = (ModelConfig(),)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ModelError("workers must be at least 1")
        if self.tool_latency_ms < 0:
            raise ModelError("tool_latency_ms must be at least 0")


def _scenario_a_from_dict(d: Mapping[str, Any]) -> ScenarioAConfig:
    base = ScenarioAConfig()
    fixtures = base.fixtures
    if "fixtures" in d:
        fixtures = tuple(UeFixture.from_dict(f) for f in d["fixtures"])
    return ScenarioAConfig(
        runs_per_cell=int(d.get("runs_per_cell", base.runs_per_cell)),
        approaches=tuple(Approach(a) for a in d.get("approaches", [a.value for a in base.approaches])),
        request=dict(d.get("request", base.request)),
        fixtures=fixtures,
        repository_text=d.get("repository_text", base.repository_text),
    )


def _scenario_b_from_dict(d: Mapping[str, Any]) -> ScenarioBConfig:
    if d.get("approaches", ["A1"]) != ["A1"]:
        raise ModelError("the stress scenario only supports the prompt-embedded approach")
    base = ScenarioBConfig()
    return ScenarioBConfig(
        runs_per_cell=int(d.get("runs_per_cell", base.runs_per_cell)),
        k_values=tuple(int(k) for k in d.get("k_values", base.k_values)),
    )


def config_from_dict(d: Any) -> HarnessConfig:
    if not isinstance(d, Mapping):
        raise ModelError(f"a config must be a JSON object, got {type(d).__name__}")
    models: tuple[ModelConfig, ...] = (ModelConfig(),)
    if "models" in d:
        models = tuple(ModelConfig.from_dict(m) for m in d["models"])
    return HarnessConfig(
        seed=_int(d, "seed", 42),
        workers=_int(d, "workers", 1),
        tool_latency_ms=_int(d, "tool_latency_ms", 1),
        scenario_a=_scenario_a_from_dict(d.get("scenario_a", {})),
        scenario_b=_scenario_b_from_dict(d.get("scenario_b", {})),
        models=models,
    )


def load_config(path: str | Path | None = None) -> HarnessConfig:
    """Defaults when no file is given; otherwise defaults overlaid with the
    file's values."""
    if path is None:
        return HarnessConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
