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
      "reference": {...}       // optional published values for cross-checks,
                               // shaped as REFERENCE_SIZES says, and an
                               // optional "note" string
    }

Response kinds: zero | linear(k) | bilinear | saturating_incidence(k) |
fractional_mix | saturating_unary(k) | power_sum(p1, p2).

A scenario is always integrated with error-controlled steps, so a "step"
key is refused rather than ignored: an old file never changes method
silently.

``dump_scenario`` writes this layout through ``sirdelay.model.to_jsonable``
and leaves out a name or reference that is not set.
"""

from __future__ import annotations

import json
import reprlib
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError, check_finite
from .integrator import ConstantHistory, HistorySpec, history_from_dict
from .model import ModelSpec, State, to_jsonable

__all__ = ["ScenarioConfig", "scenario_from_dict", "load_scenario", "dump_scenario"]

#: the reference keys that are read, each with the count of numbers it holds
#: (None: a list of any length, 0: one number); other keys are kept unread
REFERENCE_SIZES = {"equilibrium": 3, "char_poly": 4, "pseudo_delay_cubic": 4, "roots": None,
                   "T_plus": 0, "nu_plus": 0, "tau_plus": 0}


@dataclass(frozen=True)
class ScenarioConfig:
    model: ModelSpec
    history: HistorySpec
    horizon: float
    name: str | None = None
    reference: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked here, not in the parser, so that dataclasses.replace checks
        # too; an integer is kept, and dumped, as a float
        v = self.horizon
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not 0 < v <= sys.float_info.max):
            raise ConfigError(f"horizon must be a positive finite number, got {v!r}",
                              field="horizon")
        object.__setattr__(self, "horizon", float(v))
        # output files are named after the scenario
        if self.name is not None and (not isinstance(self.name, str) or self.name in ("", ".", "..")
                                      or any(c in self.name for c in "/\\\0")):
            raise ConfigError(f"name must be a file name without a path, got {self.name!r}",
                              field="name")
        if not isinstance(self.reference, dict):
            raise ConfigError("reference block must be an object", field="reference")
        for key, value in self.reference.items():
            what, size = f"reference {key}", REFERENCE_SIZES.get(key)
            try:
                if key == "note" and not isinstance(value, str):
                    raise DomainError(f"{what} must be a string, got {reprlib.repr(value)}")
                if size == 0:
                    check_finite(what, value)
                elif key in REFERENCE_SIZES:
                    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
                        raise DomainError(f"{what} must be a list of {size or 'any number of'} "
                                          f"numbers, got {reprlib.repr(value)}")
                    check_finite(f"{what} entry", *value)
            except DomainError as exc:
                raise ConfigError(str(exc), field="reference") from None


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Parse a scenario (or bare model) dict, raising ConfigError with the
    offending field named."""
    if not isinstance(d, dict):
        raise ConfigError("configuration must be a JSON object", field="<root>")
    if "step" in d:
        raise ConfigError("a scenario takes no step: it is integrated with error-controlled "
                          "steps; remove the \"step\" key", field="step")
    if "model" not in d and "params" in d:
        d = {"model": d}
    if "model" not in d:
        raise ConfigError("configuration needs a 'model' block", field="model")
    try:
        model = ModelSpec.from_dict(d["model"])
    except (DomainError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"bad model block: {exc}", field="model") from exc

    if "history" in d:
        try:
            history = history_from_dict(d["history"])
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad history block: {exc}", field="history") from exc
    else:
        history = ConstantHistory(State(1.0, 1.0, 1.0))

    return ScenarioConfig(
        model=model, history=history, horizon=d.get("horizon", 100.0), name=d.get("name"),
        reference=d.get("reference", {}),
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
