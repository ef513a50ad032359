"""The rule each config setting declares on its field, checked at load."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from stforecast.config import PipelineConfig
from stforecast.solver import VARIANTS

SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}
# settings whose accepted values depend on their shape or on other settings,
# checked by their section's own code instead of a declared rule
STRUCTURED = {"data.ratios", "heads.metric_overrides"}
# the keys of a heads.metric_overrides entry, which the README's example names
OVERRIDE_KEYS = {"head", "instant", "lag", "factor"}
# settings deleted from the config, with the values their rules rejected: a
# config that still names one, as a config saved before the deletion does, is
# rejected at load as an unknown key, whatever its value
RETIRED = {
    ("graph", "projection"): [True, "1", math.nan, math.inf, [math.nan]],
    ("tuner", "decay_exponent"): [True, "1", math.nan, math.inf, -0.5, None],
    ("tuner", "perturb_exponent"): [True, "1", math.nan, math.inf, -0.5, None],
}


def _rule_cases():
    """(section, key, value) for values each declared rule rejects: a boolean
    and a string for every number, NaN and infinity for every float, a
    fraction for every integer, each side of a range and a list entry of a
    table; a value of another type or no option for a choice. Then the
    values each ``RETIRED`` setting's rule rejected, under its old key."""
    for section, klass in SECTIONS.items():
        for f in fields(klass):
            rule = f.metadata.get("rule")
            if rule is None:
                continue
            if rule.options:
                bad = [1, "bogus"] if isinstance(rule.options[0], str) else [1, "no", None]
            else:
                step = 1 if f.type.startswith("int") else 0.5
                bad = [True, "1"] + ([1.5] if step == 1 else [math.nan, math.inf])
                bad += [rule.low - step] if rule.low > -math.inf else []
                bad += [rule.above] if rule.above > -math.inf else []
                bad += [rule.high + step] if rule.high < math.inf else []
                bad += [[math.nan]] if "list" in f.type else []
                bad += [None] if "None" not in f.type else []
            for value in bad:
                name = f"{section}.{f.name}={json.dumps(value)}"
                yield pytest.param(section, f.name, value, id=name)
    for (section, key), bad in RETIRED.items():
        for value in bad:
            yield pytest.param(section, key, value, id=f"{section}.{key}={json.dumps(value)}")


def test_every_setting_declares_a_rule_or_is_structured():
    unchecked = [
        f"{section}.{f.name}"
        for section, klass in SECTIONS.items()
        for f in fields(klass)
        if "rule" not in f.metadata and f"{section}.{f.name}" not in STRUCTURED
    ]
    assert unchecked == []


@pytest.mark.parametrize("section,key,value", _rule_cases())
def test_value_breaking_its_rule_rejected_at_load(section, key, value):
    with pytest.raises(ValueError) as info:
        PipelineConfig.from_dict({section: {key: value}})
    message = str(info.value)
    if (section, key) in RETIRED:
        want = f"config section '{section}': unknown key '{key}' (value {json.dumps(value)})"
        assert message == want
        return
    assert message.startswith(f"config section '{section}': {key} must be "), message
    assert message.endswith(f", got {json.dumps(value)}"), message


@pytest.mark.parametrize(
    "section,key,value",
    [("layers", "rho", None), ("solver", "exact_cap", None), ("tuner", "eval_samples", None),
     ("graph", "swish_beta", None), ("layers", "mu_u", 0), ("layers", "residual", 1),
     ("solver", "cg_tol", 0.0), ("graph", "aggregate_neighbors", True),
     ("heads", "merge", [-1.0, 2.0, 0.0, 0.0]), ("data", "mape_floor", 0)],
)
def test_value_on_the_edge_of_its_rule_loads(section, key, value):
    PipelineConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize("section,key", [("tuner", "step"), ("layers", "mu_u")])
def test_integer_past_float_range_rejected_in_a_float_field(section, key):
    # JSON reads 1 followed by 400 zeros as an int that no float holds
    with pytest.raises(ValueError, match=f"^config section '{section}': {key} must be a finite"):
        PipelineConfig.from_dict({section: {key: 10**400}})


def test_every_setting_documented_in_the_readme():
    """The README's config block names each setting under its own section and
    nothing else, and its solver.mode comment lists every solver variant."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    sections = re.findall(r'^  "(\w+)": \{\n(.*?)^  \}', block, re.S | re.M)
    documented = {section: set(re.findall(r'"(\w+)":', body)) for section, body in sections}
    documented["heads"] -= OVERRIDE_KEYS
    declared = {section: {f.name for f in fields(klass)} for section, klass in SECTIONS.items()}
    assert documented == declared
    mode_comment = re.search(r'"mode":[^\n]*(?:\n *//[^\n]*)*', block).group(0).split("//", 1)[1]
    assert tuple(re.findall(r'"(\w+)"', mode_comment)) == VARIANTS
