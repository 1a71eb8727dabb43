"""Bundled example systems ex5_1 ... ex5_7 plus the sec6_followup system.

Each preset pins its parameters, response functions, initial history and
simulation horizon, and may carry published reference values (equilibria,
characteristic polynomials, pseudo-delay cubics, critical delays) that
stability reports cross-check against the computed pipeline values.
"""

from __future__ import annotations

import json
from importlib import resources

from .config import ScenarioConfig, scenario_from_dict
from .errors import ConfigError

__all__ = ["PRESET_NAMES", "load_preset"]

PRESET_NAMES = (
    "ex5_1",
    "ex5_2",
    "ex5_3",
    "ex5_4",
    "ex5_5",
    "ex5_6",
    "ex5_7",
    "sec6_followup",
)


def load_preset(name: str) -> ScenarioConfig:
    """Load a bundled scenario by name; unknown names raise ConfigError."""
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}",
            field="preset",
        )
    blob = resources.files("sirdelay").joinpath(f"_presets/{name}.json").read_text()
    return scenario_from_dict(json.loads(blob))

