"""Pinned advisor verdicts: a refactor cannot silently flip an answer.

``tests/fixtures/advisor_pins.json`` holds what every compress-or-not
advisor answers on a tiny-scale grid (cesm/hacc/nyx/s3d × HDF5/NetCDF on
plat8160): ``Advisor`` and ``DvfsAdvisor`` for each objective, strict and
loose, ``DalyAdvisor`` per scenario, and one ``ClusterAdvisor`` scenario.
Each entry pins the compress flag, the plan (codec, bound, frequency) and
the energies.  Regenerate with ``tools/gen_advisor_pins.py`` only after an
intentional change to an advisor's answer.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.core.experiments import Testbed

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "gen_advisor_pins.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("gen_advisor_pins", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def answers(tool):
    return tool.collect(Testbed(scale="tiny"))


def test_every_scenario_is_pinned(tool, answers):
    assert sorted(answers) == sorted(tool.load())
    kinds = {key.split("/")[0] for key in answers}
    assert kinds == {"advisor", "dvfs", "daly", "cluster"}


@pytest.mark.parametrize("family", ["advisor", "dvfs", "daly", "cluster"])
def test_answers_match_pins(tool, answers, family):
    pinned = tool.load()
    for key in sorted(k for k in pinned if k.startswith(family + "/")):
        assert answers[key] == pinned[key], key


def test_pins_cover_both_verdicts(tool):
    # A pin set that only ever says "compress" (or only "don't") could not
    # catch a flipped verdict in the other direction.
    pinned = tool.load()
    for family in ("advisor", "dvfs", "daly"):
        verdicts = {v["compress"] for k, v in pinned.items() if k.startswith(family)}
        assert verdicts == {True, False}, family
