"""Symmetric cluster platform simulator: reservation scheduling over an
extended resource vector, deterministic node engine, telemetry bus, and a
line-protocol platform API."""

from .model import (
    ApplicationSpec,
    EnvironmentImage,
    LogicalStatus,
    NodeSample,
    NodeSpec,
    Phase,
    PhysicalSample,
    PlatformEnvEvent,
    Reservation,
    ResourceVector,
    logical_transition,
)
from .core import PlatformCore
from .harness import Report, ScenarioRunner, run_scenario
from .scenario import Scenario, load_scenario, scenario_from_dict

__all__ = [
    "ApplicationSpec",
    "EnvironmentImage",
    "LogicalStatus",
    "NodeSample",
    "NodeSpec",
    "Phase",
    "PhysicalSample",
    "PlatformCore",
    "PlatformEnvEvent",
    "Report",
    "Reservation",
    "ResourceVector",
    "Scenario",
    "ScenarioRunner",
    "load_scenario",
    "logical_transition",
    "run_scenario",
    "scenario_from_dict",
]
