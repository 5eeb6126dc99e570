import functools
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopflab.actions import LABELS, load_action
from hopflab.ambient import SpaceForm
from hopflab.constructor import CurveLaw, build_hypersurface, integrate_sigma

DATA = Path(__file__).parent / "data"   # committed input files


@functools.cache
def format4_resave_text():
    """The committed format-3 scene ``construct_v3.json``, re-saved with its
    curve written by the current (format-4) writer, as scene text."""
    from hopflab.scene import SCHEMA_VERSION, dumps_scene, sigma_from_dict, sigma_to_dict

    doc = json.loads((DATA / "construct_v3.json").read_text())
    sigma = sigma_from_dict(doc["sigma"], doc["schema_version"])
    return dumps_scene(dict(doc, schema_version=SCHEMA_VERSION, sigma=sigma_to_dict(sigma)))


def subprocess_env(**extra):
    """os.environ with src/ first on PYTHONPATH, for ``python -m hopflab.cli``.

    pytest's ``pythonpath`` setting reaches only the test process, so CLI
    subprocesses need the checkout's sources passed on explicitly.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture(scope="session")
def cp2():
    return SpaceForm(4.0)


@pytest.fixture(scope="session")
def ch2():
    return SpaceForm(-4.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def cmc_ehs():
    """A certified CMC(eta=1) construction on cp2-torus, shared read-only."""
    spec = load_action("cp2-torus")
    z0 = spec.section.point(np.array([0.12, 0.07]))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(0.45) * f1 + np.sin(0.45) * f2
    sigma = integrate_sigma(spec, z0, w0, CurveLaw("cmc", eta=1.0), n_steps=180)
    return build_hypersurface(spec, sigma, s_extent=0.15)


def construct_ehs(action, law, theta, eta):
    """The patch that ``hopflab construct`` builds at its default point, step and extent."""
    spec = load_action(action)
    z0 = spec.section.point(np.array([0.12, 0.07]))
    f1, f2 = spec.section.tangent_frame(z0)
    w0 = np.cos(theta) * f1 + np.sin(theta) * f2
    sigma = integrate_sigma(spec, z0, w0, CurveLaw(law, eta=eta), n_steps=200)
    return build_hypersurface(spec, sigma, s_extent=0.15)


@pytest.fixture(scope="session")
def pin_patches(suite_ws, tmp_path_factory):
    """Ten equivariant patches by name: the five ``Workspace(7).cmc_patch`` patches
    ("ws7-<action>") and the five of the seed-3 construct benchmark cycle, which
    cover every law ("seed3-<action>")."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS

    patches = {f"ws7-{label}": suite_ws.cmc_patch(label) for label in LABELS}
    for cfg in WORKLOADS["construct"](3, str(tmp_path_factory.mktemp("construct"))).configs:
        patches[f"seed3-{cfg['action']}"] = construct_ehs(cfg["action"], cfg["law"],
                                                          cfg["theta"], cfg["eta"])
    return patches


PIN_PATCHES = [f"{kind}-{label}" for kind in ("ws7", "seed3") for label in LABELS]


@pytest.fixture(scope="session")
def suite_ws():
    """A verify-suite workspace at seed 7, shared read-only; patches build on first use."""
    from hopflab.suites import Workspace

    return Workspace(7)


@pytest.fixture(scope="session")
def lohnherr_entry():
    from hopflab.catalog import get_entry

    return get_entry("lohnherr")


@pytest.fixture(scope="session")
def sphere_entry():
    from hopflab.catalog import get_entry

    return get_entry("geodesic-sphere", r=0.5)
