"""Scene round trip: a curve's rows are stored, its orbit columns recomputed on load.

A curve holds real frame rows x; format 4 stores D x as the base64 of its
little-endian bytes. For every action and law, for curves whose zero frame
coordinates are all -0.0, and for the austere candidates of one seed-3
``austere`` benchmark cycle, save -> load gives a curve whose real rows and
every other array have the bits of the curve saved, and save -> load ->
save gives the same bytes. The committed format-3 scene and its format-4
re-save load to the same bits.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DATA, format4_resave_text
from hopflab.actions import LABELS
from hopflab.constructor import CurveLaw, austere_search, curve_from_rows, integrate_sigma
from hopflab.scene import (_SIGMA_FIELDS, SCHEMA_VERSION, dumps_scene, load_scene, patch_from_scene,
                           scene_document, sigma_from_dict, sigma_to_dict)
from test_constructor import LAWS, SIGMA_ARRAYS, launch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import AUSTERE_N_STEPS, WORKLOADS  # noqa: E402


def assert_same_bits(sigma, loaded):
    for name in SIGMA_ARRAYS:
        old, new = getattr(sigma, name), getattr(loaded, name)
        assert old.dtype == new.dtype and old.shape == new.shape, name
        assert np.array_equal(np.ascontiguousarray(old).view(np.int64),
                              np.ascontiguousarray(new).view(np.int64)), name
    assert (loaded.law, loaded.step, loaded.truncation_reason) == (
        sigma.law, sigma.step, sigma.truncation_reason)


def assert_round_trip(sigma):
    text = dumps_scene(scene_document({}, sigma=sigma))
    loaded = sigma_from_dict(json.loads(text)["sigma"], SCHEMA_VERSION)
    assert_same_bits(sigma, loaded)
    for name in ("ts", "xs", "us", "vs"):
        assert getattr(loaded, name).flags.writeable, name
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


def test_negative_zero_entries_round_trip():
    # launched along the line q2 = 0 of ch2-line-g2a, whose third frame
    # coordinate is i-phased: every law's rows hold zero frame coordinates
    spec, z0, w0 = launch("ch2-line-g2a", theta=0.0, coords=(0.1, 0.0))
    for law in LAWS:
        sigma = integrate_sigma(spec, z0, w0, law, n_steps=30)
        assert_round_trip(sigma)
        rows = [np.where(r == 0.0, -0.0, r) for r in (sigma.xs, sigma.us, sigma.vs)]
        assert sum(np.count_nonzero(r == 0.0) for r in rows) > 0, law
        signed = curve_from_rows(spec, law, sigma.step, sigma.ts, *rows,
                                 sigma.truncation_reason)
        assert_round_trip(signed)


def test_format_3_scene_and_its_format_4_resave_load_bit_identical():
    v3 = load_scene(DATA / "construct_v3.json")
    v4 = json.loads(format4_resave_text())
    assert (v3["schema_version"], v4["schema_version"]) == (3, 4)
    sigma = patch_from_scene(v3).sigma
    assert_same_bits(sigma, patch_from_scene(v4).sigma)
    # the format-3 rows load to the floats stored
    assert sigma.ts.tolist() == v3["sigma"]["ts"]
    for name in ("zs", "ws", "xis"):
        rows = getattr(sigma, name)
        assert np.stack([rows.real, rows.imag], -1).tolist() == v3["sigma"][name], name


def test_austere_candidates_round_trip_bit_identical(tmp_path):
    workload = WORKLOADS["austere"](3, str(tmp_path))
    count = 0
    for label in workload.cycle():
        for cand in austere_search(workload.specs[label], workload.grids[label],
                                   n_steps=AUSTERE_N_STEPS):
            assert cand.curve.law == CurveLaw("austere")
            assert_round_trip(cand.curve)
            count += 1
    # 1 + 1 + 1 + 0 + 21: one candidate per geodesic
    assert count == 24
