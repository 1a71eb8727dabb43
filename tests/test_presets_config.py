import io
import json
import math
from dataclasses import replace
from importlib import resources

import pytest

from sirdelay.acceptance import EX5_5_SAMPLED_HISTORY
from sirdelay.config import ScenarioConfig, dump_scenario, load_scenario, scenario_from_dict
from sirdelay.errors import ConfigError
from sirdelay.integrator import ConstantHistory
from sirdelay.model import to_jsonable
from sirdelay.presets import PRESET_NAMES, load_preset


def test_all_presets_load():
    assert len(PRESET_NAMES) == 8
    for name in PRESET_NAMES:
        cfg = load_preset(name)
        assert cfg.name == name
        assert cfg.horizon > 0
        assert isinstance(cfg.history, ConstantHistory)


def test_unknown_preset_raises_config_error():
    with pytest.raises(ConfigError) as exc:
        load_preset("ex9_9")
    assert "ex9_9" in str(exc.value)
    assert exc.value.field == "preset"


def test_scenario_round_trip(tmp_path):
    cfg = load_preset("ex5_7")
    path = tmp_path / "scenario.json"
    with open(path, "w") as fh:
        dump_scenario(cfg, fh)
    again = load_scenario(path)
    assert again == cfg


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_dump_reproduces_the_shipped_preset(name):
    buf = io.StringIO()
    dump_scenario(load_preset(name), buf)
    shipped = resources.files("sirdelay").joinpath(f"_presets/{name}.json").read_text()
    assert json.loads(buf.getvalue()) == json.loads(shipped)


def test_unnamed_scenario_without_step_dumps_only_its_set_fields(tmp_path):
    cfg = ScenarioConfig(model=load_preset("ex5_5").model, history=EX5_5_SAMPLED_HISTORY,
                         horizon=30.0)
    path = tmp_path / "scenario.json"
    with open(path, "w") as fh:
        dump_scenario(cfg, fh)
    assert sorted(json.loads(path.read_text())) == ["history", "horizon", "model"]
    assert load_scenario(path) == cfg


def test_bare_model_dict_gets_defaults():
    blob = to_jsonable(load_preset("ex5_1").model)
    cfg = scenario_from_dict(blob)
    assert cfg.horizon == 100.0
    assert cfg.history.state.as_tuple() == (1.0, 1.0, 1.0)


def test_missing_model_field_named():
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict({"horizon": 10.0})
    assert exc.value.field == "model"


def test_bad_param_field_named(tmp_path):
    blob = to_jsonable(load_preset("ex5_1"))
    del blob["model"]["params"]["b"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert exc.value.field == "model"
    assert "b" in str(exc.value)


def test_malformed_json_named(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert exc.value.field == "<json>"


def test_bad_horizon_rejected():
    blob = to_jsonable(load_preset("ex5_1"))
    blob["horizon"] = -3.0
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(blob)
    assert exc.value.field == "horizon"


@pytest.mark.parametrize("field", ["horizon", "step"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_horizon_and_step_rejected(field, bad):
    blob = to_jsonable(load_preset("ex5_1"))
    blob[field] = bad
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(blob)
    assert exc.value.field == field


@pytest.mark.parametrize("changes, field", [
    ({"horizon": -1.0}, "horizon"),
    ({"horizon": math.inf}, "horizon"),
    ({"step": math.nan}, "step"),
    ({"step": 0.0}, "step"),
    ({"name": "a/b"}, "name"),
    ({"reference": [1.0]}, "reference"),
])
def test_replace_runs_the_scenario_checks(changes, field):
    with pytest.raises(ConfigError) as exc:
        replace(load_preset("ex5_1"), **changes)
    assert exc.value.field == field


def test_bad_history_rejected():
    blob = to_jsonable(load_preset("ex5_1"))
    blob["history"] = {"kind": "constant", "state": [1.0, 1.0]}
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(blob)
    assert exc.value.field == "history"


def test_reference_values_survive_round_trip():
    cfg = load_preset("ex5_3")
    assert cfg.reference["tau_plus"] == 4.3204
    again = scenario_from_dict(to_jsonable(cfg))
    assert again.reference == cfg.reference
