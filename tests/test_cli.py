import base64
import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import DATA, format4_resave_text, subprocess_env
from hopflab import cli
from hopflab.cli import RunConfig, ConfigError, main
from hopflab.hypersurface import shape_data
from hopflab.scene import (
    SCHEMA_VERSION,
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


def test_parser_is_built_once_and_keeps_no_state_between_parses():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["construct", "--action", "cp2-torus", "--grid", "4", "5", "6"])
    second = parser.parse_args(["construct"])
    assert (first.action, first.grid) == ("cp2-torus", [4, 5, 6])
    assert (second.action, second.grid) == (None, None)
    assert parser.parse_args(["hopf-directions", "--action", "ch2-g0"]).point == (0.12, 0.07)
    assert parser.parse_args(["verify"]).seed == 7


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
    sigma = sigma_from_dict(doc["sigma"], doc["schema_version"])
    assert doc["sigma"]["ts"]["shape"] == [len(sigma.ts)]
    assert np.abs(sigma.zs[0]).max() > 0
    ehs = patch_from_scene(doc)
    assert ehs.patch.contains(ehs.patch.grid((2, 2, 2), margin=0.2))
    # the format is compact, one line
    assert scene.read_text().count("\n") == 1
    header = csv.read_text().splitlines()
    # the mesh CSV keeps its own schema number
    assert header[0] == "# hopflab mesh schema 1"
    assert header[1].split(",")[0] == "t"


def test_sigma_scene_roundtrip_keeps_every_field(cmc_ehs):
    sigma = cmc_ehs.sigma
    loaded = sigma_from_dict(json.loads(dumps_scene(scene_document({}, sigma=sigma)))["sigma"],
                             SCHEMA_VERSION)
    assert np.abs(sigma.mean_align).max() > 0
    for f in dataclasses.fields(sigma):
        old, new = getattr(sigma, f.name), getattr(loaded, f.name)
        if f.name == "spec":
            assert (new.label, new.space.c) == (old.label, old.space.c)
        elif isinstance(old, np.ndarray):
            assert new.dtype == old.dtype and np.array_equal(new, old), f.name
        else:
            assert new == old, f.name


def test_construct_config_file_and_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"action": "ch2-torus", "law": "cmc",
                                   "eta": 1.0, "n_steps": 24,
                                   "grid": [6, 3, 3]}))
    scene = tmp_path / "s.json"
    rc = run_cli(["construct", "--config", str(cfgfile), "--eta", "0.5",
                  "--out-scene", str(scene)])
    assert rc == 0
    capsys.readouterr()
    doc = load_scene(scene)
    assert doc["config"]["action"] == "ch2-torus"   # from file
    assert doc["config"]["eta"] == 0.5              # flag wins


# one (config-file value, construct flag, merged value) per RunConfig field
FLAG_OVERRIDES = {
    "action": ("ch2-torus", ["--action", "ch2-g0"], "ch2-g0"),
    "c": (2.0, ["--c", "3.0"], 3.0),
    "point": ([0.1, 0.0], ["--point", "0.05", "0.02"], (0.05, 0.02)),
    "theta": (0.2, ["--theta", "0.3"], 0.3),
    "law": ("geodesic", ["--law", "levi-flat"], "levi-flat"),
    "eta": (2.0, ["--eta", "0.5"], 0.5),
    "step": (2e-3, ["--step", "5e-4"], 5e-4),
    "n_steps": (60, ["--n-steps", "80"], 80),
    "grid": ([6, 3, 3], ["--grid", "4", "2", "2"], (4, 2, 2)),
    "s_extent": (0.1, ["--s-extent", "0.05"], 0.05),
    "out_scene": ("a.json", ["--out-scene", "b.json"], "b.json"),
    "out_csv": ("a.csv", ["--out-csv", "b.csv"], "b.csv"),
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
def test_construct_flag_overrides_its_config_file_value(field, tmp_path):
    file_val, flag, merged = FLAG_OVERRIDES[field]
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({field: file_val}))
    args = cli.build_parser().parse_args(["construct", "--config", str(cfgfile)])
    from_file = getattr(cli._merge_config(args), field)
    assert from_file == (tuple(file_val) if isinstance(file_val, list) else file_val)
    args = cli.build_parser().parse_args(["construct", "--config", str(cfgfile), *flag])
    assert getattr(cli._merge_config(args), field) == merged


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


@pytest.mark.parametrize("name, r", [("geodesic-sphere", 0.6), ("tube-rp2", 0.25),
                                     ("tube-ch1", 0.5)])
def test_classify_catalog_radius_reaches_the_entry(name, r, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run_cli(["classify", "--catalog", name, "--r", str(r), "--grid", "2", "2", "2",
                  "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    assert json.loads(out.read_text())["input"]["parameters"] == {"r": r}


def test_classify_corrupted_scene(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "config": {..broken')
    rc = run_cli(["classify", "--scene", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "line" in err   # parse error with location


@pytest.mark.parametrize("argv, message", [
    (["classify", "--scene", "{bad}"], "error: invalid scene JSON at {bad}: not UTF-8 text"),
    (["sample", "--scene", "{bad}", "--out", "{tmp}/m.csv"],
     "error: invalid scene JSON at {bad}: not UTF-8 text"),
    (["construct", "--config", "{bad}"], "error: config field 'config': {bad} is not UTF-8 text"),
], ids=["classify-scene", "sample-scene", "construct-config"])
def test_non_utf8_input_is_one_error_line(argv, message, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00garbage")
    rc = run_cli([a.format(bad=bad, tmp=tmp_path) for a in argv])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message.format(bad=bad))


def test_integer_beyond_float_range_is_one_error_line(tmp_path, capsys):
    # JSON keeps a long integer literal as an int, which math.isfinite cannot convert
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text('{"eta": 1' + "0" * 400 + "}")
    assert run_cli(["construct", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: config field 'eta': must be finite"]
    doc = json.loads((DATA / "construct_v3.json").read_text())
    doc["sigma"]["c"] = 10 ** 400
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    assert run_cli(["classify", "--scene", str(scene)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scene field 'sigma.c' must be a finite number"]


def test_hopf_directions_cli(tmp_path, capsys):
    out = tmp_path / "phi.csv"
    rc = run_cli(["hopf-directions", "--action", "ch2-k0-g2a",
                  "--point", "0.12", "0.07", "--out", str(out)])
    text = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert text[0] == "4 Hopf directions at point [0.12, 0.07] (ch2-k0-g2a):"
    # one simple and one double zero line, each at theta and theta + pi
    assert [line.split("multiplicity")[1].split()[0] for line in text[1:5]] == \
        ["1", "2", "1", "2"]
    assert text[2].startswith("  theta = 2.5452831")
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# hopflab phi profile schema 1", "theta,phi"]
    assert len(lines) == 2 + 720


def test_hopf_directions_regular_at_large_curvature(capsys):
    # the gram floor scales like r^4 = 16/c^2: at c = 1e6 the point 1e-4 (1, 1)
    # lies 0.05 (1, 1) model radii from the origin, as (0.05, 0.05) does at
    # c = 4, and reads as regular with the same zero set
    def zeros(argv):
        assert run_cli(["hopf-directions", "--action", "cp2-torus", *argv]) == 0
        return [line.split("|Phi|")[0] for line in capsys.readouterr().out.splitlines()[1:]]

    scaled = zeros(["--c=1e6", "--point", "1e-4", "1e-4"])
    assert len(scaled) == 6
    assert scaled == zeros(["--point", "0.05", "0.05"])


def test_verify_unknown_suite(capsys):
    rc = run_cli(["verify", "nosuch"])
    assert rc == 1


def test_verify_small_suite_deterministic(tmp_path):
    outs = []
    for k in (1, 2):
        out = tmp_path / f"r{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", "verify", "frames",
             "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env(PYTHONHASHSEED=str(k)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_construct_ignores_env_seed(tmp_path, monkeypatch, capsys):
    # construct takes no seed, and no command reads one from the environment
    monkeypatch.setenv("HOPFLAB_SEED", "abc")
    scene = tmp_path / "s.json"
    rc = run_cli(["construct", "--n-steps", "25", "--grid", "2", "2", "2",
                  "--out-scene", str(scene)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert "seed" not in load_scene(scene)["config"]


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


@pytest.mark.parametrize("action, law", [("cp2-torus", "cmc"), ("ch2-k0-g2a", "levi-flat"),
                                         ("ch2-g0", "geodesic")])
def test_sample_scene_reproduces_the_construct_csv(action, law, tmp_path, capsys):
    # both read the exact shape data of the scene's sweep on the same grid
    scene, csv, sampled = (tmp_path / name for name in ("s.json", "m.csv", "sampled.csv"))
    assert run_cli(["construct", "--action", action, "--law", law, "--out-scene", str(scene),
                    "--out-csv", str(csv)]) == 0
    assert run_cli(["sample", "--scene", str(scene), "--grid", "12", "4", "4",
                    "--out", str(sampled)]) == 0
    capsys.readouterr()
    assert sampled.read_bytes() == csv.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["construct", "--action", "bogus"], "argument --action: invalid choice: 'bogus'"),
    (["classify", "--scene", "{tmp}/missing.json"], "cannot read scene"),
    (["classify", "--catalog", "geodesic-sphere", "--c", "nan"],
     "argument --c: must be a finite number, got 'nan'"),
    (["hopf-directions", "--action", "cp2-torus", "--c", "inf"],
     "argument --c: must be a finite number, got 'inf'"),
    (["hopf-directions", "--action", "cp2-torus", "--point", "nan", "0"],
     "argument --point: must be a finite number, got 'nan'"),
    (["sample", "--catalog", "geodesic-sphere", "--r", "inf", "--out", "{tmp}/m.csv"],
     "argument --r: must be a finite number, got 'inf'"),
    (["classify", "--catalog", "bisector", "--grid", "0", "4", "4"],
     "argument --grid: must be a positive integer, got '0'"),
    (["sample", "--catalog", "bisector", "--grid", "-1", "2", "2", "--out", "{tmp}/m.csv"],
     "argument --grid: must be a positive integer, got '-1'"),
    (["hopf-directions", "--action", "cp2-torus", "--samples", "100000000000"],
     "unrecognized arguments: --samples 100000000000"),
    # extreme finite scales: one line naming the input, no RuntimeWarning
    (["hopf-directions", "--action", "cp2-torus", "--point", "1e308", "0"],
     "config field 'point': [1e+308, 0.0] lies 1e+308 model radii"),
    (["hopf-directions", "--action", "ch2-g0", "--point", "1e10", "0"],
     "config field 'point': [10000000000.0, 0.0] lies 1e+10 model radii"),
    (["hopf-directions", "--action", "ch2-g0", "--c=-1e12"],
     "config field 'point': [0.12, 0.07] lies 6.95e+04 model radii r = 2/sqrt|c| = 2e-06"),
    (["hopf-directions", "--action", "ch2-g0", "--c=-1e300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got -1e+300"),
    (["hopf-directions", "--action", "ch2-g0", "--c=-1e-300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got -1e-300"),
    (["verify", "ambient", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    (["construct", "--seed", "5"], "unrecognized arguments: --seed 5"),
    # an output path in a missing directory
    (["sample", "--catalog", "horosphere", "--grid", "2", "2", "2", "--out", "{tmp}/no/x.csv"],
     "No such file or directory"),
    (["verify", "levi-flat", "--out", "{tmp}/no/report.json"], "No such file or directory"),
    (["classify", "--catalog", "horosphere", "--grid", "2", "2", "2", "--out",
      "{tmp}/no/report.json"], "No such file or directory"),
    (["hopf-directions", "--action", "cp2-torus", "--out", "{tmp}/no/phi.csv"],
     "No such file or directory"),
    (["construct", "--out-scene", "{tmp}/no/scene.json"], "No such file or directory"),
    # on the orbit triangle's edge: integrate_sigma's start check names it
    (["construct", "--action", "cp2-torus", "--point", "-0.44", "0.82"],
     "initial point is not regular"),
    # catalog boxes are absolute lengths, so at r = 2e-10 a chart overflows;
    # every command runs with floating-point errors raised, and the error
    # names --c and keeps the ufunc's text
    (["classify", "--catalog", "clifford-cone-ch2", "--c=-1e20"],
     "config field 'c': -1e+20 overflows the clifford-cone-ch2 chart: "
     "overflow encountered in sinh"),
    (["classify", "--catalog", "bisector", "--c=-1e20"],
     "config field 'c': -1e+20 overflows the bisector chart: overflow encountered in cosh"),
    (["classify", "--catalog", "tube-ch1", "--c=-1e20"],
     "config field 'c': -1e+20 overflows the tube-ch1 chart: overflow encountered in cosh"),
    (["classify", "--catalog", "lohnherr", "--c=-1e20"],
     "config field 'c': -1e+20 overflows the lohnherr chart: overflow encountered in cosh"),
    (["sample", "--catalog", "bisector", "--c=-1e20", "--out", "{tmp}/m.csv"],
     "config field 'c': -1e+20 overflows the bisector chart: overflow encountered in cosh"),
    # a radius bound is printed with its significant digits, not rounded to 0
    (["classify", "--catalog", "geodesic-sphere", "--c=1e20"],
     "radius must lie in (0, pi/sqrt(c)) = (0, 3.14159e-10)"),
    # classify and sample bound a catalog's c as construct does
    (["classify", "--catalog", "horosphere", "--c=-1e-300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got -1e-300"),
    (["classify", "--catalog", "horosphere", "--c=-1e300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got -1e+300"),
    (["classify", "--catalog", "geodesic-sphere", "--c=1e-300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got 1e-300"),
    (["classify", "--catalog", "geodesic-sphere", "--c=1e300"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got 1e+300"),
    (["sample", "--catalog", "bisector", "--c=-1e300", "--out", "{tmp}/m.csv"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got -1e+300"),
    (["sample", "--catalog", "tube-rp2", "--c=1e-300", "--out", "{tmp}/m.csv"],
     "config field 'c': |c| must lie in [1e-100, 1e+100], got 1e-300"),
    # --r on an entry that takes no radius names the entry
    (["classify", "--catalog", "horosphere", "--r", "0.3"],
     "catalog entry 'horosphere' takes no radius"),
    (["classify", "--catalog", "lohnherr", "--r", "0.3"],
     "catalog entry 'lohnherr' takes no radius"),
    (["classify", "--catalog", "bisector", "--r", "1"],
     "catalog entry 'bisector' takes no radius"),
    (["classify", "--catalog", "clifford-cone-cp2", "--r", "0.3"],
     "catalog entry 'clifford-cone-cp2' takes no radius"),
    (["classify", "--catalog", "clifford-cone-ch2", "--r", "0.3"],
     "catalog entry 'clifford-cone-ch2' takes no radius"),
    (["sample", "--catalog", "bisector", "--r", "1", "--out", "{tmp}/x.csv"],
     "catalog entry 'bisector' takes no radius"),
], ids=["bad-action", "missing-scene", "classify-c-nan", "hopf-c-inf", "hopf-point-nan",
        "sample-r-inf", "classify-grid-0", "sample-grid-negative", "hopf-samples-huge",
        "hopf-point-huge", "hopf-point-far", "hopf-c-huge", "hopf-c-1e300", "hopf-c-1e-300",
        "verify-seed-negative", "construct-seed-removed", "sample-out-unwritable",
        "verify-out-unwritable", "classify-out-unwritable", "hopf-out-unwritable",
        "construct-out-unwritable", "construct-point-singular", "classify-cone-c-overflow",
        "classify-bisector-c-overflow", "classify-tube-ch1-c-overflow",
        "classify-lohnherr-c-overflow", "sample-bisector-c-overflow",
        "classify-sphere-radius-bound", "classify-c-minus-1e-300", "classify-c-minus-1e300",
        "classify-c-1e-300", "classify-c-1e300", "sample-c-minus-1e300", "sample-c-1e-300",
        "classify-horosphere-r", "classify-lohnherr-r", "classify-bisector-r",
        "classify-cone-cp2-r", "classify-cone-ch2-r", "sample-bisector-r"])
def test_validation_exit_codes(argv, message, capsys, tmp_path):
    argv = [a.format(tmp=tmp_path) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rc = run_cli(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


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


@pytest.mark.parametrize("step, message", [
    # a finite but huge step overflows on the first step: both sides stop on
    # a non-finite state and keep only the start sample
    ("1e308", "sigma has 1 samples, fewer than the 4 a sweep needs "
              "(truncated: non-finite state; non-finite state)"),
    # the default 50 steps of 1e-5 each way span less than the sweep's margins
    ("1e-5", "sigma spans t in [-0.0005, 0.0005], too short for the time margin 0.02 at "
             "each end"),
], ids=["non-finite", "short-span"])
def test_construct_names_why_sigma_is_too_short_to_sweep(step, message, tmp_path, capsys):
    rc = run_cli(["construct", "--action", "cp2-torus", "--law", "cmc", "--step", step,
                  "--out-scene", str(tmp_path / "s.json"), "--out-csv", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {message}"]
    assert not (tmp_path / "s.json").exists()


def test_construct_fails_a_step_too_coarse_for_its_law(tmp_path, capsys):
    # construct's defaults curve at step 4e-3 and 50 steps, t in
    # [-0.2, 0.2]. At step 0.05 the ch2-torus CMC curve the chart sweeps
    # misses its law by 0.40 between its rows: the certificate names the
    # residual and construct exits 2, with the scene written. At the
    # defaults this law's curve, the closest of the benchmark's to the
    # bound, reads 2.8e-7
    cfg = RunConfig()
    assert (cfg.step, cfg.n_steps) == (4e-3, 50)
    scene = tmp_path / "s.json"
    rc = run_cli(["construct", "--action", "ch2-torus", "--law", "cmc", "--step", "0.05",
                  "--n-steps", "5", "--out-scene", str(scene)])
    assert rc == 2
    assert "certified=no" in capsys.readouterr().out
    cert = json.loads(scene.read_text())["certification"]
    assert not cert["passed"]
    assert cert["residuals"]["curve_defect"] > cert["tolerances"]["curve_defect"] == 1e-6
    rc = run_cli(["construct", "--action", "ch2-torus", "--law", "cmc", "--out-scene", str(scene)])
    assert rc == 0
    cert = json.loads(scene.read_text())["certification"]
    assert cert["passed"] and cert["residuals"]["curve_defect"] < 1e-6


@pytest.mark.parametrize("field, value, message", [
    ("point", 0.5, "must be a list"),
    ("n_steps", "abc", "must be an integer"),
    ("c", "abc", "must be a number"),
    ("grid", [6, "3", 3], "needs three integer sizes, each at least 2"),
    ("out_scene", 5, "must be a file path"),
    # the certificate's tolerances are fixed, so a config file cannot set them
    ("tolerances", {"integrable": 1e-5}, "unknown config key"),
    # construct draws no random numbers, so it has no seed to configure
    ("seed", 5, "unknown config key"),
])
def test_construct_rejects_wrong_typed_config_file(field, value, message, tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({field: value}))
    rc = run_cli(["construct", "--config", str(cfgfile)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field '{field}': {message}"]


@pytest.mark.parametrize("field, value, message", [
    ("s_extent", 1e308, "must be positive and at most pi, got 1e+308"),
    ("c", 1e-300, "|c| must lie in [1e-100, 1e+100], got 1e-300"),
    ("c", -1e300, "|c| must lie in [1e-100, 1e+100], got -1e+300"),
    ("point", [1e308, 0.07], "[1e+308, 0.07] lies 1e+308 model radii r = 2/sqrt|c| = 1 "
                             "from the section origin; at most 4 are allowed"),
])
def test_construct_rejects_extreme_scale(field, value, message, tmp_path, capsys):
    # bounded at the config boundary: one line, and no RuntimeWarning first
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"action": "ch2-g0" if field == "c" and value < 0
                                   else "cp2-torus", field: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["construct", "--config", str(cfgfile)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field '{field}': {message}"]


def test_construct_rejects_config_file_that_is_not_an_object(tmp_path, capsys):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps([{"action": "cp2-torus"}]))
    rc = run_cli(["construct", "--config", str(cfgfile)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: config field 'config': must be a JSON object"]


# each bound just above its limit, as a flag and (for construct) as a config value
_STEPS = str(cli.MAX_N_STEPS + 1)
_GRID = ["100", "100", str(cli.MAX_GRID_POINTS // 10 ** 4 + 1)]


@pytest.mark.parametrize("argv, config, message", [
    (["construct", "--n-steps", _STEPS], None, f"'n_steps': must be at most {cli.MAX_N_STEPS}"),
    (["construct"], {"n_steps": int(_STEPS)}, f"'n_steps': must be at most {cli.MAX_N_STEPS}"),
    (["construct", "--grid", *_GRID], None,
     f"'grid': must have at most {cli.MAX_GRID_POINTS} points in all"),
    (["construct"], {"grid": [int(g) for g in _GRID]},
     f"'grid': must have at most {cli.MAX_GRID_POINTS} points in all"),
    (["classify", "--catalog", "horosphere", "--grid", *_GRID], None,
     f"'grid': must have at most {cli.MAX_GRID_POINTS} points in all"),
    (["sample", "--catalog", "horosphere", "--grid", *_GRID, "--out", "{tmp}/m.csv"], None,
     f"'grid': must have at most {cli.MAX_GRID_POINTS} points in all"),
], ids=["construct-n-steps-flag", "construct-n-steps-config", "construct-grid-flag",
        "construct-grid-config", "classify-grid", "sample-grid"])
def test_size_bounds_reject_before_any_work(argv, config, message, tmp_path, monkeypatch,
                                            capsys):
    def reached(*args, **kwargs):
        raise AssertionError("the input was used before its size bound was checked")

    # no action table or catalog patch is built, so nothing is allocated
    monkeypatch.setattr(cli, "load_action", reached)
    monkeypatch.setattr(cli, "get_entry", reached)
    argv = [a.format(tmp=tmp_path) for a in argv]
    if config is not None:
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        argv += ["--config", str(cfgfile)]
    rc = run_cli(argv)
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: config field {message}"]
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("where, key", [
    ("sigma", "c"),
    ("sigma", "xis"),
    ("sigma", "truncation_reason"),
    ("sigma.law", "eta"),
    ("patch", "s_extent"),
])
def test_classify_scene_missing_field(where, key, cmc_ehs, tmp_path, capsys):
    doc = json.loads(dumps_scene(scene_document({}, sigma=cmc_ehs.sigma, ehs=cmc_ehs)))
    parent = doc
    for part in where.split("."):
        parent = parent[part]
    del parent[key]
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    rc = run_cli(["classify", "--scene", str(scene)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: scene field '{where}.{key}' is missing"]


@pytest.mark.parametrize("key, edit", [
    ("box", lambda box: [box[0], [2 * b for b in box[1]], box[2]]),
    ("orientation", lambda orientation: -orientation),
], ids=["box", "orientation"])
def test_classify_scene_edited_patch_field(key, edit, cmc_ehs, tmp_path, capsys):
    doc = json.loads(dumps_scene(scene_document({}, sigma=cmc_ehs.sigma, ehs=cmc_ehs)))
    # the unedited document rebuilds to the stored fields
    patch_from_scene(doc)
    doc["patch"][key] = edit(doc["patch"][key])
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    rc = run_cli(["classify", "--scene", str(scene)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: scene field 'patch.{key}': stored ")


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e300])
def test_classify_scene_c_out_of_range(c, cmc_ehs, tmp_path, capsys):
    # a tiny c used to overflow while the seed was normalized, and fail later
    # with a message about the sweep extent
    doc = json.loads(dumps_scene(scene_document({}, sigma=cmc_ehs.sigma, ehs=cmc_ehs)))
    doc["sigma"]["c"] = c
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    rc = run_cli(["classify", "--scene", str(scene)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: scene field 'sigma.c': |c| must lie in [1e-100, 1e+100], got {c!r}"]


NAN = float("nan")


def v2_with(key, edit_rows):
    """An edit that swaps in the format-2 scene and then edits its rows of ``key``."""
    def edit(doc):
        doc.clear()
        doc.update(json.loads((DATA / "construct_v2.json").read_text()))
        edit_rows(doc["sigma"][key])
    return edit


def recoded(key, change, dtype=None, shape=None):
    """A format-4 sigma edit: decode the array ``key``, ``change`` it (in place,
    or return the new array) and store it again, as ``dtype`` and with the
    stated ``shape`` if given."""
    def edit(sigma):
        obj = sigma[key]
        arr = np.frombuffer(base64.b64decode(obj["b64"]), obj["dtype"]).reshape(obj["shape"])
        arr = arr.copy()
        out = change(arr)
        arr = arr if out is None else out
        obj["dtype"] = dtype or obj["dtype"]
        obj["b64"] = base64.b64encode(arr.astype(obj["dtype"]).tobytes()).decode()
        obj["shape"] = shape or list(arr.shape)
    return edit


@pytest.mark.parametrize("where, edit", [
    ("sigma.ts", lambda doc: doc["sigma"].update(ts=[str(t) for t in doc["sigma"]["ts"]])),
    ("sigma.zs", lambda doc: doc["sigma"]["zs"][3].pop()),
    ("sigma.zs", lambda doc: doc["sigma"]["zs"][3][1].append(0.0)),
    ("sigma.zs", lambda doc: doc["sigma"]["zs"][5][0].__setitem__(1, NAN)),
    # SigmaCurve.swept's knot spacing is ts[1] - ts[0], nearest_row's the step
    ("sigma.ts", lambda doc: doc["sigma"]["ts"].__setitem__(9, doc["sigma"]["ts"][9] + 3e-4)),
    ("sigma.ts", lambda doc: doc["sigma"].update(step=1.5 * doc["sigma"]["step"])),
    # the rows' orbit data are computed on the section's real frame
    ("sigma.zs", lambda doc: doc["sigma"]["zs"][4][0].reverse()),
    ("sigma.ws", lambda doc: doc["sigma"]["ws"][4][1].reverse()),
    ("sigma.xis", lambda doc: doc["sigma"]["xis"][4][2].reverse()),
    # the orbit columns are recomputed at every row, inside the classify box or not
    ("sigma.zs", v2_with("zs", lambda rows: rows.__setitem__(10, [[0.0, 0.0]] * 3))),
    ("sigma.zs", v2_with("zs", lambda rows: rows[10].__setitem__(0, [1e200, 0.0]))),
    # and so are the unit velocities and normals, which the sweep and the
    # orbit columns read
    ("sigma.ws", v2_with("ws", lambda rows: rows.__setitem__(10, [[0.0, 0.0]] * 3))),
    ("sigma.xis", v2_with("xis", lambda rows: rows.__setitem__(10, [[0.0, 0.0]] * 3))),
    ("sigma.xis", v2_with("xis", lambda rows: rows[10].__setitem__(0, [1e200, 0.0]))),
    ("sigma.c", lambda doc: doc["sigma"].update(c="x")),
    ("sigma.step", lambda doc: doc["sigma"].update(step=None)),
    ("sigma.step", lambda doc: doc["sigma"].update(step=-doc["sigma"]["step"])),
    ("sigma.law.eta", lambda doc: doc["sigma"]["law"].update(eta="1.0")),
    ("patch.s_extent", lambda doc: doc["patch"].update(s_extent="big")),
    # bounded to (0, pi] like construct's s_extent, and checked before the
    # sweep, whose own errors for these (an overflow, a box mismatch, no
    # injective extent) name no field
    ("patch.s_extent", lambda doc: doc["patch"].update(s_extent=1e308)),
    ("patch.s_extent", lambda doc: doc["patch"].update(s_extent=-1e308)),
    ("patch.s_extent", lambda doc: doc["patch"].update(s_extent=-0.1)),
    ("patch.s_extent", lambda doc: doc["patch"].update(s_extent=0.0)),
    ("sigma.truncation_reason", lambda doc: doc["sigma"].update(truncation_reason=5)),
    ("sigma.law.kind", lambda doc: doc["sigma"]["law"].update(kind="bogus")),
    # format 3 recomputes what formats 1 and 2 stored, so a stored column or
    # truncated flag in a format-3 sigma would be ignored: it is rejected
    ("sigma.gammas", lambda doc: doc["sigma"].update(gammas=[NAN] * len(doc["sigma"]["ts"]))),
    ("sigma.alphas", lambda doc: doc["sigma"].update(alphas=[0.0] * (len(doc["sigma"]["ts"]) - 1))),
    ("sigma.truncated", lambda doc: doc["sigma"].update(truncated="false")),
    ("sigma.truncated", lambda doc: doc["sigma"].update(truncated=0)),
], ids=["ts-strings", "zs-short-row", "zs-long-pair", "zs-nan", "ts-off-grid", "ts-other-step",
        "zs-off-frame", "ws-off-frame", "xis-off-frame", "zs-v2-zero-row", "zs-v2-huge",
        "ws-v2-zero-row", "xis-v2-zero-row", "xis-v2-huge",
        "c-string", "step-null",
        "step-negative", "eta-string", "s_extent-string", "s_extent-huge",
        "s_extent-huge-negative", "s_extent-negative", "s_extent-zero", "truncation_reason-int",
        "law-kind-unknown", "gammas-nan", "alphas-short", "truncated-string", "truncated-int"])
def test_classify_scene_rejects_bad_values(where, edit, tmp_path, capsys):
    # the committed format-3 scene, or the scene an edit swaps in
    doc = json.loads((DATA / "construct_v3.json").read_text())
    edit(doc)
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    rc = run_cli(["classify", "--scene", str(scene)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: scene field '{where}' must be ")


# format 4 stores each array as {"b64", "dtype", "shape"}; the loader checks
# the object's keys, then its dtype, its shape against sigma.ts, the base64,
# the byte count (before any allocation) and then the entries
@pytest.mark.parametrize("where, claim, edit", [
    ("sigma.zs", "base64 text", lambda sigma: sigma["zs"].update(b64="*" + sigma["zs"]["b64"][1:])),
    # a lenient decoder would skip the newline and load the rows
    ("sigma.zs", "base64 text",
     lambda sigma: sigma["zs"].update(b64=sigma["zs"]["b64"][:4] + "\n" + sigma["zs"]["b64"][4:])),
    # padding only ends the text; a lenient decoder would stop at the first '='
    ("sigma.zs", "base64 text",
     lambda sigma: sigma["zs"].update(b64=sigma["zs"]["b64"][:4] + "====" + sigma["zs"]["b64"][4:])),
    ("sigma.zs", "base64 text", lambda sigma: sigma["zs"].update(b64="\u00e9" + sigma["zs"]["b64"][1:])),
    ("sigma.ws", "base64 text in its b64 entry, not int", lambda sigma: sigma["ws"].update(b64=5)),
    ("sigma.ts", "408 bytes", lambda sigma: sigma["ts"].update(b64=sigma["ts"]["b64"][:-8])),
    ("sigma.ts", "8000000000000 bytes", lambda sigma: sigma["ts"].update(shape=[10 ** 12])),
    ("sigma.ts", "of dtype '<f8', not '<f4'", recoded("ts", lambda ts: None, dtype="<f4")),
    ("sigma.zs", "of dtype '<c16', not '>c16'", recoded("zs", lambda zs: None, dtype=">c16")),
    ("sigma.ws", "of dtype '<c16', not '|O'", lambda sigma: sigma["ws"].update(dtype="|O")),
    ("sigma.xis", "of shape [51, 3]", recoded("xis", lambda xis: xis[:-1])),
    ("sigma.zs", "of shape [51, 3]", recoded("zs", lambda zs: zs.reshape(-1))),
    ("sigma.ws", "of shape [51, 3]", recoded("ws", lambda ws: ws[:, :2])),
    # true would pass for 1: a one-row ts of shape [true] otherwise loads
    ("sigma.ts", "of shape [n] with n >= 1, not [true]",
     recoded("ts", lambda ts: ts[:1], shape=[True])),
    ("sigma.zs", "of shape [51, 3]",
     lambda sigma: sigma["zs"].update(shape=[-sigma["zs"]["shape"][0], 3])),
    ("sigma.ws", "finite numbers; row 7", recoded("ws", lambda ws: ws.__setitem__((7, 1), NAN))),
    ("sigma.ts", "finite numbers; row 4", recoded("ts", lambda ts: ts.__setitem__(4, np.inf))),
    ("sigma.zs", "an object with exactly the keys", lambda sigma: sigma["zs"].update(order="C")),
    ("sigma.xis", "an object with exactly the keys", lambda sigma: sigma["xis"].pop("dtype")),
    ("sigma.ts", "k * step", recoded("ts", lambda ts: ts.__setitem__(9, ts[9] + 3e-4))),
    # a format-4 sigma holds arrays, not format-3 lists, and only its nine keys
    ("sigma.ts", "an object with exactly the keys",
     lambda sigma: sigma.update(ts=[0.0] * sigma["ts"]["shape"][0])),
    ("sigma.gammas", "absent", lambda sigma: sigma.update(gammas=[0.0])),
], ids=["not-base64", "zs-newline", "zs-inner-padding", "zs-non-ascii", "ws-b64-number",
        "ts-short-bytes", "ts-huge-shape", "ts-f4", "zs-big-endian",
        "ws-object-dtype", "xis-fewer-rows-than-ts", "zs-flat", "ws-two-columns",
        "ts-bool-shape", "zs-negative-shape", "ws-nan", "ts-inf", "zs-extra-key",
        "xis-missing-dtype", "ts-off-grid", "ts-list", "gammas"])
def test_classify_scene_rejects_bad_format_4_arrays(where, claim, edit, tmp_path, capsys):
    doc = json.loads(format4_resave_text())
    edit(doc["sigma"])
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    rc = run_cli(["classify", "--scene", str(scene)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: scene field '{where}' must be {claim}")


def test_format_3_sigma_holding_format_4_arrays_is_rejected(tmp_path, capsys):
    doc = json.loads((DATA / "construct_v3.json").read_text())
    doc["sigma"]["zs"] = json.loads(format4_resave_text())["sigma"]["zs"]
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    assert run_cli(["classify", "--scene", str(scene)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scene field 'sigma.zs' must be 51 rows of 3 finite [re, im] pairs"]


@pytest.mark.parametrize("command", ["classify", "sample"])
def test_scene_unknown_action_label(command, cmc_ehs, tmp_path, capsys):
    doc = json.loads(dumps_scene(scene_document({}, sigma=cmc_ehs.sigma, ehs=cmc_ehs)))
    doc["sigma"]["action"] = "bogus"
    scene = tmp_path / "scene.json"
    save_scene(scene, doc)
    out = ["--out", str(tmp_path / "mesh.csv")] if command == "sample" else []
    rc = run_cli([command, "--scene", str(scene), *out])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: scene field 'sigma.action': unknown action label 'bogus'"]
    assert not (tmp_path / "mesh.csv").exists()


def test_scene_error_on_wrong_schema(tmp_path):
    f = tmp_path / "x.json"
    # true and 1.0 compare equal to 1 but are not the integer 1
    for version in (99, 5, 0, True, 1.0, "2", None):
        f.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(SceneError, match=f"unsupported scene schema {version!r}$"):
            load_scene(f)
    f2 = tmp_path / "y.json"
    f2.write_text(json.dumps({"foo": 1}))
    with pytest.raises(SceneError):
        load_scene(f2)


def test_construct_outputs_deterministic(tmp_path, capsys):
    # identical config -> byte-identical scene and CSV, wherever they are written
    outs = []
    for where in ("a", "somewhere/else"):
        out = tmp_path / where
        out.mkdir(parents=True)
        rc = run_cli(["construct", "--action", "ch2-line-g2a", "--law", "geodesic",
                      "--n-steps", "60", "--grid", "6", "3", "3",
                      "--out-scene", str(out / "s.json"), "--out-csv", str(out / "m.csv")])
        assert rc == 0
        outs.append(((out / "s.json").read_bytes(), (out / "m.csv").read_bytes()))
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_version_2_scene_loads_to_the_recomputed_curve(tmp_path, capsys):
    # written by the format-2 writer with
    # construct --n-steps 25 --grid 2 2 2 --out-scene construct_v2.json;
    # format 2 also stored the orbit columns, which the loader recomputes
    v2 = DATA / "construct_v2.json"
    doc = load_scene(v2)
    assert doc["schema_version"] == 2
    sigma = patch_from_scene(doc).sigma
    stored = doc["sigma"]
    for name in ("gammas", "alphas", "betas", "hopf_a", "hopf_b", "mean_align"):
        assert getattr(sigma, name).tolist() == stored[name], name
    assert sigma.truncated is stored["truncated"] is False
    # edited stored columns are not read: the rows alone make the curve
    stored["gammas"] = [1.5 * g for g in stored["gammas"]]
    stored["alphas"].pop()
    stored["betas"][7] = NAN
    del stored["mean_align"]
    stored["truncated"] = "false"
    edited = sigma_from_dict(stored, 2)
    for f in dataclasses.fields(sigma):
        old, new = getattr(sigma, f.name), getattr(edited, f.name)
        if isinstance(old, np.ndarray):
            assert old.tobytes() == new.tobytes(), f.name
    scene = tmp_path / "edited.json"
    save_scene(scene, doc)
    reports = []
    for path in (v2, scene):
        assert run_cli(["classify", "--scene", str(path), "--grid", "2", "2", "2"]) == 0
        reports.append(capsys.readouterr().out.splitlines()[1:])
    assert reports[0] == reports[1]


def test_version_1_scene_loads_rebuilds_and_classifies(tmp_path, capsys):
    # written by the format-1 writer with
    # construct --n-steps 25 --grid 2 2 2 --out-scene construct_v1.json
    v1 = DATA / "construct_v1.json"
    doc = load_scene(v1)
    assert doc["schema_version"] == 1
    assert {"seed", "out_scene", "out_csv"} <= set(doc["config"])
    # the rebuild checks the stored patch fields against the current sweep
    ehs = patch_from_scene(doc)
    assert len(ehs.sigma.ts) == 51
    rc = run_cli(["classify", "--scene", str(v1), "--grid", "2", "2", "2"])
    assert rc == 0
    assert "strongly_two_hopf" in capsys.readouterr().out
    # the same construct in the current format has the same blocks; its
    # config lacks only the seed, the tolerances and the output paths. The
    # v1 file's step was the default then, so it is passed here
    scene = tmp_path / "v4.json"
    rc = run_cli(["construct", "--step", "1e-3", "--n-steps", "25", "--grid", "2", "2", "2",
                  "--out-scene", str(scene)])
    assert rc == 0
    capsys.readouterr()
    new = json.loads(scene.read_text())
    assert new["schema_version"] == 4 and set(new) == set(doc)
    for key in ("seed", "tolerances", "out_scene", "out_csv"):
        del doc["config"][key]
    assert new["config"] == doc["config"]


def test_mesh_rows_structure(sphere_entry):
    patch = sphere_entry.patch
    rows = mesh_rows(shape_data(patch, patch.grid((2, 2, 2), margin=0.2)))
    assert len(rows) == 8
    for row in rows:
        assert len(row) == 15
        # Hopf entry: frame-less rows carry the sorted spectrum and nan a, b
        assert np.isnan(row[12]) and np.isnan(row[13])
