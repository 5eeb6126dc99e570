import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hopflab.cli import RunConfig, ConfigError, main
from hopflab.scene import (
    SceneError,
    dumps_scene,
    load_scene,
    mesh_rows,
    patch_from_scene,
    save_scene,
    scene_document,
    sigma_from_dict,
)


def run_cli(args):
    return main(list(args))


def test_config_validation():
    cfg = RunConfig()
    cfg.validate()
    bad = RunConfig(action="nope")
    with pytest.raises(ConfigError):
        bad.validate()
    with pytest.raises(ConfigError):
        RunConfig(step=-1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(grid=(1, 1)).validate()


def test_construct_scene_roundtrip(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    csv = tmp_path / "mesh.csv"
    rc = run_cli(["construct", "--action", "cp2-torus", "--law", "cmc",
                  "--eta", "1.0", "--n-steps", "80", "--grid", "8", "3", "3",
                  "--out-scene", str(scene), "--out-csv", str(csv)])
    assert rc == 0
    capsys.readouterr()
    doc = load_scene(scene)
    # lossless round trip of the document model
    assert json.loads(dumps_scene(doc)) == doc
    sigma = sigma_from_dict(doc["sigma"])
    assert len(sigma.ts) == len(doc["sigma"]["ts"])
    assert np.abs(sigma.zs[0]).max() > 0
    ehs = patch_from_scene(doc)
    assert ehs.patch.contains(ehs.patch.grid((2, 2, 2), margin=0.2))
    header = csv.read_text().splitlines()
    assert header[0].startswith("# hopflab mesh")
    assert header[1].split(",")[0] == "t"


def test_construct_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"action": "ch2-torus", "law": "cmc",
                                   "eta": 1.0, "n_steps": 60,
                                   "grid": [6, 3, 3]}))
    scene = tmp_path / "s.json"
    rc = run_cli(["construct", "--config", str(cfgfile), "--eta", "0.5",
                  "--out-scene", str(scene)])
    assert rc == 0
    capsys.readouterr()
    doc = load_scene(scene)
    assert doc["config"]["action"] == "ch2-torus"   # from file
    assert doc["config"]["eta"] == 0.5              # flag wins


def test_construct_geodesic_from_bisector_direction_is_austere(tmp_path, capsys):
    # the geodesic sweep launched along an angle bisector of the cp2-torus
    # orbit triangle produces the Clifford cone
    import numpy as np

    from hopflab.actions import load_action

    spec = load_action("cp2-torus")
    sp = spec.space
    z0 = spec.section.point(np.array([0.0, 0.0]))
    f1, f2 = spec.section.tangent_frame(z0)
    vtx = sp.normalize_rep(np.eye(3, dtype=complex)[2])
    d = sp.project_horizontal(z0, sp.phase_align(z0, vtx) * vtx)
    theta = float(np.arctan2(sp.g(d, f2), sp.g(d, f1)))
    scene = tmp_path / "cone.json"
    rc = run_cli(["construct", "--action", "cp2-torus", "--law", "geodesic",
                  "--point", "0.0", "0.0", "--theta", f"{theta:.15f}",
                  "--n-steps", "120", "--grid", "8", "3", "3",
                  "--out-scene", str(scene)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "'austere': True" in out
    doc = load_scene(scene)
    assert doc["residual_tables"]["classification"]["austere"] is True
    assert doc["residual_tables"]["classification"]["ruled"] is True


def test_classify_catalog(capsys):
    rc = run_cli(["classify", "--catalog", "lohnherr", "--grid", "4", "3", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "strongly_two_hopf True" in out.replace("  ", " ").replace("   ", " ") or \
           "strongly_two_hopf" in out
    assert "austere" in out


def test_classify_corrupted_scene(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "config": {..broken')
    rc = run_cli(["classify", "--scene", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line" in err   # parse error with location


def test_hopf_directions_cli(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    rc = run_cli(["hopf-directions", "--action", "cp2-torus",
                  "--point", "0.12", "0.07", "--samples", "360",
                  "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "Hopf directions" in text
    lines = out.read_text().splitlines()
    assert lines[1] == "theta,phi"
    assert len(lines) == 362


def test_verify_unknown_suite(capsys):
    rc = run_cli(["verify", "nosuch"])
    assert rc == 1


def test_verify_small_suite_deterministic(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    outs = []
    for k in (1, 2):
        out = tmp_path / f"r{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", "verify", "frames",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=str(k)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOPFLAB_SEED", "11")
    rc = run_cli(["verify", "frames"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "seed 11" in out


def test_sample_csv(tmp_path, capsys):
    out = tmp_path / "mesh.csv"
    rc = run_cli(["sample", "--catalog", "horosphere", "--grid", "3", "2", "2",
                  "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()
    assert len(rows) == 2 + 3 * 2 * 2
    # full-precision floats: parse back exactly
    vals = [float(x) for x in rows[2].split(",")]
    assert len(vals) == 15


def test_validation_exit_codes(capsys, tmp_path):
    # nonexistent flag value
    with pytest.raises(SystemExit) as exc:
        run_cli(["construct", "--action", "bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    rc = run_cli(["classify", "--scene", str(tmp_path / "missing.json")])
    assert rc == 1


@pytest.mark.parametrize("field, flags", [
    ("step", ["--step", "nan"]),
    ("eta", ["--eta", "nan"]),
    ("theta", ["--theta", "nan"]),
    ("s_extent", ["--s-extent", "inf"]),
    ("c", ["--c", "nan"]),
    ("point", ["--point", "0.12", "nan"]),
])
def test_construct_rejects_non_finite_config(field, flags, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["construct", *flags])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field '{field}': must be finite"]


def test_scene_error_on_wrong_schema(tmp_path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SceneError):
        load_scene(f)
    f2 = tmp_path / "y.json"
    f2.write_text(json.dumps({"foo": 1}))
    with pytest.raises(SceneError):
        load_scene(f2)


def test_construct_outputs_deterministic(tmp_path, capsys):
    # identical config + seed -> byte-identical scene and CSV (the config
    # echo includes the output paths, so reuse one location)
    scene, csv = tmp_path / "s.json", tmp_path / "m.csv"
    outs = []
    for _ in (1, 2):
        rc = run_cli(["construct", "--action", "ch2-line-g2a", "--law", "geodesic",
                      "--n-steps", "60", "--grid", "6", "3", "3", "--seed", "5",
                      "--out-scene", str(scene), "--out-csv", str(csv)])
        assert rc == 0
        outs.append((scene.read_bytes(), csv.read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_mesh_rows_structure(sphere_entry):
    rows = mesh_rows(sphere_entry.patch, sphere_entry.patch.grid((2, 2, 2), margin=0.2))
    assert len(rows) == 8
    for row in rows:
        assert len(row) == 15
        # Hopf entry: frame-less rows carry the sorted spectrum and nan a, b
        assert np.isnan(row[12]) and np.isnan(row[13])
