"""Harness configuration: built-in defaults plus JSON file overrides."""

from __future__ import annotations

import functools
import json
from collections import abc
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from .agent import NO_FAULT, FaultKind, FaultProgram, RemoteEndpointConfig
from .model import Approach, ModelError
from .toolsim import POOL_SIZE, SESSION_TYPES, STRESS_LENGTHS, UeFixture, default_fixtures

# the fields a fault kind reads besides its kind, where they are not the step alone
_FAULT_READS = dict(none="", no_calls="", random_stop="prob seed", call_outside_at="step tool")


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
        if self.kind == "scripted" and self.endpoint is not None:
            raise ModelError(f"model {self.model_id!r}: an endpoint needs kind 'openai_chat'")
        if self.kind == "openai_chat" and self.fault != NO_FAULT:
            raise ModelError(f"model {self.model_id!r}: a fault program needs kind 'scripted'")
        if self.kind == "openai_chat" and self.llm_latency_ms != ModelConfig.llm_latency_ms:
            raise ModelError(f"model {self.model_id!r}: llm_latency_ms needs kind 'scripted'")
        if self.fault.kind is FaultKind.RANDOM_STOP and not 0 <= self.fault.prob <= 1:
            raise ModelError(f"model {self.model_id!r}: fault.prob must lie in [0, 1]")
        kind = self.fault.kind.value  # a program leaves the fields its kind does not read unset
        reads = ("kind", *_FAULT_READS.get(kind, "step").split())
        for f in fields(FaultProgram):
            if f.name not in reads and getattr(self.fault, f.name) != f.default:
                raise ModelError(f"model {self.model_id!r}: fault kind {kind!r} takes no {f.name}")
        if self.endpoint is not None and self.endpoint.retries < 0:
            raise ModelError(f"model {self.model_id!r}: endpoint.retries must be at least 0")
        if self.endpoint is not None and not self.endpoint.timeout_s > 0:
            raise ModelError(f"model {self.model_id!r}: endpoint.timeout_s must be above 0")
        if self.llm_latency_ms < 0:
            raise ModelError(f"model {self.model_id!r}: llm_latency_ms must be at least 0")
        # a run's id holds its model's id and travels in a request header
        if any(c in "\r\n" or c > "\xff" for c in self.model_id):
            raise ModelError(f"model {self.model_id!r}: model_id must be Latin-1, no CR or LF")


@dataclass(frozen=True)
class ScenarioAConfig:
    runs_per_cell: int = 50
    approaches: tuple[Approach, ...] = tuple(Approach)
    request: Mapping[str, str] = field(
        default_factory=lambda: {"ue_id": "ue-001", "session_type": "IPv4"}
    )
    fixtures: tuple[UeFixture, ...] = field(
        default_factory=lambda: tuple(default_fixtures().values())
    )
    repository_text: str | None = None  # None: use the canonical rendering

    def __post_init__(self) -> None:
        if self.runs_per_cell < 1:
            raise ModelError("scenario_a.runs_per_cell must be at least 1")
        for key in ("ue_id", "session_type"):
            if key not in self.request:
                raise ModelError(f"scenario_a.request needs {key!r}")
        # the host trims a call's strings, so a value with whitespace around it matches no call
        named = [(f"request.{key}", value) for key, value in self.request.items()]
        named += [(f"fixtures[{i}].ue_id", f.ue_id) for i, f in enumerate(self.fixtures)]
        for name, value in named:
            if value != value.strip():
                raise ModelError(f"scenario_a.{name} has whitespace around it: {value!r}")
        if (got := self.request["session_type"]) not in SESSION_TYPES:
            names = ", ".join(SESSION_TYPES)
            raise ModelError(f"scenario_a.request.session_type must be one of {names}, got {got!r}")
        for i, fixture in enumerate(self.fixtures):  # the hosts key fixtures by ue_id
            if any(f.ue_id == fixture.ue_id for f in self.fixtures[:i]):
                raise ModelError(f"scenario_a.fixtures: ue_id {fixture.ue_id!r} names two fixtures")


@dataclass(frozen=True)
class ScenarioBConfig:
    """The stress scenario runs the prompt-embedded approach (A1) only."""

    runs_per_cell: int = 30
    k_values: tuple[int, ...] = STRESS_LENGTHS

    def __post_init__(self) -> None:
        if self.runs_per_cell < 1:
            raise ModelError("scenario_b.runs_per_cell must be at least 1")
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
        ids = [m.model_id for m in self.models]  # a run's id holds its model's id
        for model_id in ids:
            if ids.count(model_id) > 1:
                raise ModelError(f"model_id {model_id!r} names more than one model")


_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}
_type_hints = functools.cache(get_type_hints)


def _load(hint: Any, value: Any, path: str) -> Any:
    """Build a value of type ``hint`` from the JSON value ``value``, checking
    its type at every level; ``path`` names the value in error messages. A
    dataclass takes its fields from an object: a missing key takes the
    field's default, and an unknown key is an error."""
    if hint in _SCALARS:
        # a bool is an int to Python but not to a config, and an int a float
        expected = (int, float) if hint is float else hint
        if not isinstance(value, expected) or isinstance(value, bool) and hint is not bool:
            raise ModelError(f"{path} must be {_SCALARS[hint]}, got {value!r}")
        return hint(value)
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return None if value is None else _load(args[0], value, path)
    if isinstance(hint, type) and issubclass(hint, Enum):
        for member in hint:
            if member.value == value:
                return member
        names = ", ".join(m.value for m in hint)
        raise ModelError(f"{path} must be one of {names}, got {value!r}")
    if origin in (tuple, frozenset):  # tuple[X, ...] or frozenset[X]
        if not isinstance(value, list):
            raise ModelError(f"{path} must be a list, got {value!r}")
        return origin(_load(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        raise ModelError(f"{path} must be an object, got {value!r}")
    if origin is abc.Mapping:
        return {k: _load(args[1], v, f"{path}.{k}") for k, v in value.items()}
    prefix = f"{path}." if path else ""
    hints = _type_hints(hint)
    for key in value:
        if key not in hints:
            raise ModelError(f"unknown key {prefix + key!r}")
    for f in fields(hint):
        if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
            raise ModelError(f"{path} needs {f.name!r}")
    kwargs = {k: _load(hints[k], v, prefix + k) for k, v in value.items()}
    try:
        return hint(**kwargs)
    except ModelError:
        raise
    except ValueError as exc:  # say, ipaddress rejecting a static_ip
        raise ModelError(f"{path}: {exc}") from None


def config_from_dict(d: Any) -> HarnessConfig:
    if not isinstance(d, dict):
        raise ModelError(f"a config must be a JSON object, got {type(d).__name__}")
    return _load(HarnessConfig, d, "")


def load_config(path: str | Path | None = None) -> HarnessConfig:
    """Defaults when no file is given; otherwise defaults overlaid with the
    file's values."""
    if path is None:
        return HarnessConfig()
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers malformed JSON
        raise ModelError(f"cannot read config {path}: {exc}") from None
    return config_from_dict(d)
