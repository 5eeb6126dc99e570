"""Property tests: mutated construct configs and scenes through ``cli.main``.

Each input starts from a small valid one: a ``construct`` config, the
committed version-1 or version-3 scene, or a freshly written version-4
scene. One mutation then deletes a key or list item, puts a value from a
small pool of mostly wrong-typed values in its place, or makes it
non-finite or of an extreme finite magnitude (+-1e308, +-1e-300); a scene
may instead get a ``schema_version`` of true, 1.0 or 5, which must exit 1.
Whatever the mutation, the command must exit 0, 1 or 2 without an uncaught
exception or a NumPy RuntimeWarning, and an exit 1 prints exactly one line
on stderr.
The examples are derandomized, so the test is the same on every run.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA
from hopflab.actions import LABELS
from hopflab.cli import main
from hopflab.constructor import LAW_KINDS

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

SMALL_CONFIG = {"action": "cp2-torus", "law": "cmc", "eta": 1.0, "c": None,
                "point": [0.12, 0.07], "theta": 0.45, "step": 1e-3, "n_steps": 25,
                "grid": [2, 2, 2], "s_extent": 0.15}

WRONG_TYPES = st.sampled_from(["x", "", None, True, False, [], {}, [1.0], {"k": 1.0},
                               0, -1, 0.5])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
EXTREME = st.sampled_from([1e308, -1e308, 1e-300, -1e-300])


@st.composite
def mutated(draw, doc):
    """A deep copy of ``doc`` with one key or item deleted or replaced."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    # walk down from the top, stopping at a random depth
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
        if not draw(st.booleans()):
            break
    kinds = ["delete", "wrong-type", "non-finite", "extreme"]
    if "schema_version" in doc:
        kinds.append("schema")
    kind = draw(st.sampled_from(kinds))
    if kind == "schema":
        # true and 1.0 compare equal to 1, and 5 is not a known format
        doc["schema_version"] = draw(st.sampled_from([True, 1.0, 5]))
    elif kind == "delete":
        del parent[key]
    else:
        pools = {"wrong-type": WRONG_TYPES, "non-finite": NON_FINITE, "extreme": EXTREME}
        parent[key] = draw(pools[kind])
    return doc


def _run(argv):
    """(exit code, stderr lines) of ``cli.main(argv)``; exceptions and
    RuntimeWarnings propagate."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue().splitlines()


def _assert_clean_exit(rc, err):
    assert rc in (0, 1, 2)
    if rc == 1:
        assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def configs(draw):
    base = dict(SMALL_CONFIG, action=draw(st.sampled_from(LABELS)),
                law=draw(st.sampled_from(LAW_KINDS)),
                n_steps=draw(st.integers(20, 30)))
    return draw(mutated(base))


@PROPERTY
@given(config=configs())
def test_mutated_construct_config_exits_cleanly(config, workdir):
    path = workdir / "run.json"
    path.write_text(json.dumps(config))
    rc, err = _run(["construct", "--config", str(path),
                    "--out-scene", str(workdir / "s.json"), "--out-csv", str(workdir / "m.csv")])
    _assert_clean_exit(rc, err)


@pytest.fixture(scope="module")
def scenes(workdir):
    v4 = workdir / "v4.json"
    rc, _ = _run(["construct", "--action", "ch2-g0", "--law", "levi-flat", "--n-steps", "25",
                  "--grid", "2", "2", "2", "--out-scene", str(v4)])
    assert rc == 0
    return {"v1": json.loads((DATA / "construct_v1.json").read_text()),
            "v3": json.loads((DATA / "construct_v3.json").read_text()),
            "v4": json.loads(v4.read_text())}


@PROPERTY
@given(data=st.data(), which=st.sampled_from(["v1", "v3", "v4"]),
       command=st.sampled_from(["classify", "sample"]))
def test_mutated_scene_exits_cleanly(data, which, command, scenes, workdir):
    doc = data.draw(mutated(scenes[which]))
    path = workdir / "scene.json"
    path.write_text(json.dumps(doc))
    rc, err = _run([command, "--scene", str(path), "--grid", "2", "2", "2",
                    "--out", str(workdir / "out")])
    _assert_clean_exit(rc, err)
    version = doc.get("schema_version")
    if type(version) is not int or version not in (1, 2, 3, 4):
        assert rc == 1
