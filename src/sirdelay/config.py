"""Scenario configuration: a model plus everything a simulation run needs.

JSON layout (the model block alone is also accepted and gets defaults):

    {
      "name": "optional label",
      "model": {
        "params": {"a": ..., "b": ..., "b1": ..., "c": ..., "d": ...,
                    "d1": ..., "r": ..., "alpha": ..., "tau": ..., "delta": ...},
        "f": {"kind": "bilinear"},
        "V": {"kind": "linear", "k": 1.0},
        "P": {"kind": "linear", "k": 1.0}
      },
      "history": {"kind": "constant", "state": [1.0, 1.0, 1.0]},
      "horizon": 100.0,
      "step": 0.04,            // optional requested RK4 step, default 0.04
                               // (at most the smallest positive delay, or
                               // horizon/100 with none); no mesh step of
                               // sirdelay.integrator is longer
      "reference": {...}       // optional published values for cross-checks
    }

Response kinds: zero | linear(k) | bilinear | saturating_incidence(k) |
fractional_mix | saturating_unary(k) | power_sum(p1, p2).

``dump_scenario`` writes this layout through ``sirdelay.model.to_jsonable``
and leaves out a step, name or reference that is not set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError
from .integrator import ConstantHistory, HistorySpec, history_from_dict
from .model import ModelSpec, State, to_jsonable

__all__ = ["ScenarioConfig", "scenario_from_dict", "load_scenario", "dump_scenario"]


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelSpec
    history: HistorySpec
    horizon: float
    step: float | None = None
    name: str | None = None
    reference: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked here, not in the parser, so that dataclasses.replace checks too
        for key in ("horizon", "step") if self.step is not None else ("horizon",):
            v = getattr(self, key)
            if not isinstance(v, (int, float)) or not 0 < v < math.inf:
                raise ConfigError(f"{key} must be a positive finite number, got {v!r}",
                                  field=key)
        # output files are named after the scenario
        if self.name is not None and (not isinstance(self.name, str) or self.name in ("", ".", "..")
                                      or any(c in self.name for c in "/\\\0")):
            raise ConfigError(f"name must be a file name without a path, got {self.name!r}",
                              field="name")
        if not isinstance(self.reference, dict):
            raise ConfigError("reference block must be an object", field="reference")


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Parse a scenario (or bare model) dict, raising ConfigError with the
    offending field named."""
    if not isinstance(d, dict):
        raise ConfigError("configuration must be a JSON object", field="<root>")
    if "model" not in d and "params" in d:
        d = {"model": d}
    if "model" not in d:
        raise ConfigError("configuration needs a 'model' block", field="model")
    try:
        model = ModelSpec.from_dict(d["model"])
    except (DomainError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad model block: {exc}", field="model") from exc

    if "history" in d:
        try:
            history = history_from_dict(d["history"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"bad history block: {exc}", field="history") from exc
    else:
        history = ConstantHistory(State(1.0, 1.0, 1.0))

    horizon, step = d.get("horizon", 100.0), d.get("step")
    return ScenarioConfig(  # an integer horizon or step is kept, and dumped, as a float
        model=model, history=history,
        horizon=float(horizon) if isinstance(horizon, int) else horizon,
        step=float(step) if isinstance(step, int) else step,
        name=d.get("name"), reference=d.get("reference", {}),
    )


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}", field="<file>") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}", field="<json>") from exc
    return scenario_from_dict(data)


def dump_scenario(cfg: ScenarioConfig, fh) -> None:
    data = {k: v for k, v in to_jsonable(cfg).items() if v not in (None, {})}
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")
