"""Scene round trip: a curve's rows are stored, its orbit columns recomputed on load.

For every action and law, and for the austere candidates of one seed-3
``austere`` benchmark cycle, save -> load gives a curve whose every array
has the bits of the curve saved, and save -> load -> save gives the same
bytes.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hopflab.actions import LABELS
from hopflab.constructor import CurveLaw, austere_search, integrate_sigma
from hopflab.scene import (_SIGMA_FIELDS, dumps_scene, scene_document, sigma_from_dict,
                           sigma_to_dict)
from test_constructor import LAWS, SIGMA_ARRAYS, launch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import AUSTERE_N_STEPS, WORKLOADS  # noqa: E402


def assert_round_trip(sigma):
    text = dumps_scene(scene_document({}, sigma=sigma))
    loaded = sigma_from_dict(json.loads(text)["sigma"])
    for name in SIGMA_ARRAYS:
        old, new = getattr(sigma, name), getattr(loaded, name)
        assert old.dtype == new.dtype and old.shape == new.shape, name
        assert np.array_equal(np.ascontiguousarray(old).view(np.int64),
                              np.ascontiguousarray(new).view(np.int64)), name
    assert (loaded.law, loaded.step, loaded.truncation_reason) == (
        sigma.law, sigma.step, sigma.truncation_reason)
    assert dumps_scene(scene_document({}, sigma=loaded)) == text


def test_sigma_to_dict_writes_exactly_the_sigma_fields():
    spec, z0, w0 = launch(LABELS[0])
    sigma = integrate_sigma(spec, z0, w0, LAWS[0], n_steps=10)
    assert tuple(sigma_to_dict(sigma)) == _SIGMA_FIELDS


@pytest.mark.parametrize("label", LABELS)
def test_scene_round_trip_is_bit_identical(label):
    spec, z0, w0 = launch(label)
    for law in LAWS:
        assert_round_trip(integrate_sigma(spec, z0, w0, law, n_steps=30))


def test_austere_candidates_round_trip_bit_identical(tmp_path):
    workload = WORKLOADS["austere"](3, str(tmp_path))
    count = 0
    for label in workload.cycle():
        for cand in austere_search(workload.specs[label], workload.grids[label],
                                   n_steps=AUSTERE_N_STEPS):
            assert cand.curve.law == CurveLaw("austere")
            assert_round_trip(cand.curve)
            count += 1
    assert count == 18
