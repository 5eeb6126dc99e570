"""Acceptance battery.

Each test is one acceptance criterion at its stated tolerance; the criterion
checks live in the verification suites (shared across the battery through a
session-scoped run with seed 7) so `hopflab verify all` exercises exactly the
same battery. Run with -v for one pass/fail line per criterion.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env
from hopflab.actions import LABELS
from hopflab.suites import report_json, run_suites

SEED = 7
# the ``hopflab verify all --seed 7 --out`` report; a change that moves
# check values on purpose regenerates it and lists the moved checks
GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_all_seed7.json"


@pytest.fixture(scope="module")
def suite_results():
    """The in-process ``verify all --seed 7`` run, computed once."""
    return run_suites("all", seed=SEED)


@pytest.fixture(scope="module")
def all_checks(suite_results):
    """name -> Check across all suites."""
    table = {}
    for suite in suite_results:
        for chk in suite.checks:
            table[f"{suite.name}::{chk.name}"] = chk
    return table


def require(table, *fragments, count=1):
    """Assert every check whose name contains all fragments passed."""
    hits = [c for name, c in table.items()
            if all(f in name for f in fragments)]
    assert len(hits) >= count, f"no checks match {fragments}"
    bad = [c for c in hits if not c.passed]
    assert not bad, "failed: " + "; ".join(
        f"{c.name} value={c.value:.3e} tol={c.tol:.1e}" for c in bad)
    return hits


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_ambient_curvature(all_checks):
    for c in ("c+4", "c-4"):
        require(all_checks, "ambient::holomorphic_curvature", c)
        require(all_checks, "ambient::totally_real_curvature", c)
        require(all_checks, "ambient::fd_curvature_oracle", c)
    report(1, "holomorphic curvature = c (1e-8 closed form, 1e-3 FD oracle), "
              "totally real = c/4 (1e-8), 50 points per sign")


def test_criterion_02_kahler_identity(all_checks):
    for c in ("c+4", "c-4"):
        require(all_checks, "ambient::kahler_parallel_J", c)
    report(2, "parallel transport commutes with J along 20 random geodesics (1e-6)")


def test_criterion_03_section_geometry(all_checks):
    for label in LABELS:
        require(all_checks, f"actions::{label}:section_totally_real")
        require(all_checks, f"actions::{label}:section_II")
        require(all_checks, f"actions::{label}:killing_orthogonal_to_section")
    report(3, "sections totally real (1e-8), totally geodesic (1e-6), "
              "Killing fields orthogonal (1e-8), all five actions")


def test_criterion_04_phi_map(all_checks):
    for label in LABELS:
        require(all_checks, f"actions::{label}:phi_not_identically_zero")
        require(all_checks, f"actions::{label}:phi_zeros_even_and_at_least_two")
        require(all_checks, f"actions::{label}:phi_zero_count_stable")
        require(all_checks, f"actions::{label}:phi_algebraic_roots_vanish")
        require(all_checks, f"actions::{label}:phi_simple_roots_match_sampled")
        require(all_checks, f"actions::{label}:phi_multiplicity_pattern_stable")
    report(4, "Phi never identically zero (max > 1e-6 over 720 samples), "
              "zero sets even and stable under doubling, exact zeros vanish, match the "
              "sampled sign changes and keep their multiplicities, 5 points per action")


def test_criterion_05_main_theorem_pipeline(all_checks):
    for label in LABELS:
        require(all_checks, f"cmc::{label}:h2_everywhere")
        require(all_checks, f"cmc::{label}:integrability")
        require(all_checks, f"cmc::{label}:D_spectrum_constancy")
        require(all_checks, f"cmc::{label}:mean_curvature_eq_eta")
        require(all_checks, f"cmc::{label}:wp_launch_hopf_at_p")
    report(5, "CMC(eta=1) constructions certify strongly 2-Hopf on 20x5x5 "
              "grids (h=2 everywhere, integrability < 1e-5, |D alpha|,|D beta| "
              "< 1e-4, mean curvature = 1 +- 1e-3); w_p launches are Hopf at p")


def test_criterion_06_strongly_2hopf_structure(all_checks):
    require(all_checks, "connection::", "strong_connection_entries", count=2)
    require(all_checks, "connection::", "nabla_AA", count=2)
    for label in LABELS:
        require(all_checks, f"cmc::{label}:leaf_flat")
        require(all_checks, f"cmc::{label}:leaf_totally_real")
        require(all_checks, f"cmc::{label}:nabla_AA")
    report(6, "strongly-2-Hopf connection table within 1e-3 relative, "
              "nabla_A A < 1e-4, leaf curvature < 1e-3, leaf totally real < 1e-6")


def test_criterion_07_austere_classification(all_checks):
    require(all_checks, "austere::ch2-k0-g2a:no_austere_curves")
    for label in ("cp2-torus", "ch2-torus", "ch2-g0", "ch2-line-g2a"):
        require(all_checks, f"austere::{label}:austere_curves_found")
        require(all_checks, f"austere::{label}:austere_residual")
        require(all_checks, f"austere::{label}:ruled")
        require(all_checks, f"austere::{label}:levi_flat")
        require(all_checks, f"austere::{label}:a_b_sqrt2")
    for label in ("cp2-torus", "ch2-torus"):
        require(all_checks, f"austere::{label}:on_clifford_cone")
        require(all_checks, f"austere::{label}:perturbed_candidate_off_cone")
        require(all_checks, f"austere::cmc-{label}:off_clifford_cone")
    report(7, "austere search: cones for the torus actions, bisector for "
              "ch2-g0, nothing for ch2-k0-g2a, Lohnherr for ch2-line-g2a; "
              "all austere+ruled+Levi-flat with a = b = 1/sqrt(2) +- 1e-4; "
              "every torus candidate within 1e-4 of a Clifford cone, a 1 % "
              "perturbation and a CMC curve farther")


def test_criterion_08_lohnherr_spectrum(all_checks):
    require(all_checks, "austere::lohnherr:spectrum_1_0_m1")
    require(all_checks, "austere::lohnherr:spectrum_spread")
    report(8, "Lohnherr spectrum {1, -1, 0} within 1e-4 at 20 grid points, "
              "spread < 1e-4")


def test_criterion_09_hopf_cmc_rigidity(all_checks):
    for name in ("geodesic-sphere", "horosphere", "tube-rp2", "tube-ch1"):
        require(all_checks, f"cmc::{name}:hopf_cmc_relation")
        require(all_checks, f"cmc::{name}:spectrum_spread")
    require(all_checks, "cmc::horosphere:spectrum_2_1_1")
    report(9, "|2a(b+g) - 4bg + c| < 1e-6 and constant spectra (< 1e-4) on "
              "all Hopf catalog entries; horosphere spectrum {2,1,1} +- 1e-4")


def test_criterion_10_leviflat_cmc(all_checks):
    require(all_checks, "levi-flat::minimal_leviflat_gamma_eq_eta_over_4")
    require(all_checks, "levi-flat::minimal_leviflat_beta_eq_minus_alpha")
    require(all_checks, "levi-flat::nonminimal_attempt_fails")
    require(all_checks, "levi-flat::nonminimal_attempt_witness")
    report(10, "minimal Levi-flat patch has gamma = eta/4 = 0 and beta = "
               "-alpha within 1e-3; the eta = 1 attempt fails with witnesses")


def test_criterion_11_universal_identities(all_checks):
    require(all_checks, "gauss-codazzi::", ":gauss", count=13)
    require(all_checks, "gauss-codazzi::", ":codazzi", count=13)
    require(all_checks, "gauss-codazzi::negative_control")
    report(11, "Gauss and Codazzi residuals < 1e-4 on every catalog entry "
               "and constructed patch; corrupted control exceeds 1e-2")


def test_criterion_12_determinism(tmp_path):
    outs = []
    for k in (1, 2):
        out = tmp_path / f"report{k}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hopflab.cli", "verify", "all",
             "--seed", str(SEED), "--out", str(out)],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(12, "verify all --seed 7 twice: byte-identical reports")


def _report_changes(old_text, new_text):
    """One line per check that moved, appeared or vanished, with its headroom:
    ``suite::name old -> new (tol T; value/tol old/T -> new/T)``, where a
    changed tolerance reads ``tol T_old -> T_new``."""
    def checks(text):
        return {f"{s['suite']}::{c['name']}": (c["value"], c["tol"])
                for s in json.loads(text)["suites"] for c in s["checks"]}

    def show(entry, ratio=False):
        """A check's value, or its value/tol, as text; '(absent)' when it is missing."""
        if entry is None:
            return "(absent)"
        return f"{entry[0] / entry[1]:.4g}" if ratio else str(entry[0])

    old, new = checks(old_text), checks(new_text)
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key), new.get(key)
        if a != b:
            tol = " -> ".join(dict.fromkeys(str(e[1]) for e in (a, b) if e is not None))
            lines.append(f"{key} {show(a)} -> {show(b)} "
                         f"(tol {tol}; value/tol {show(a, True)} -> {show(b, True)})")
    return lines


def test_report_changes_names_moved_checks():
    old = json.dumps({"suites": [{"suite": "s", "checks": [
        {"name": "a", "value": 1.0, "tol": 2.0}, {"name": "b", "value": 2.0, "tol": 4.0},
        {"name": "d", "value": 1e-5, "tol": 1e-3}, {"name": "e", "value": 7.0, "tol": 9.0}]}]})
    new = json.dumps({"suites": [{"suite": "s", "checks": [
        {"name": "a", "value": 1.5, "tol": 2.0}, {"name": "c", "value": 3.0, "tol": 6.0},
        {"name": "d", "value": 1e-5, "tol": 1e-4}, {"name": "e", "value": 7.0, "tol": 9.0}]}]})
    assert _report_changes(old, new) == [
        "s::a 1.0 -> 1.5 (tol 2.0; value/tol 0.5 -> 0.75)",
        "s::b 2.0 -> (absent) (tol 4.0; value/tol 0.5 -> (absent))",
        "s::d 1e-05 -> 1e-05 (tol 0.001 -> 0.0001; value/tol 0.01 -> 0.1)",
        "s::c (absent) -> 3.0 (tol 6.0; value/tol (absent) -> 0.5)",
    ]


def test_verify_all_report_matches_golden(suite_results):
    text = report_json(suite_results, SEED)
    golden = GOLDEN_REPORT.read_text()
    # the bytes decide; the message names what moved
    assert text.encode() == golden.encode(), "report differs from the golden file:\n" + \
        "\n".join(_report_changes(golden, text) or ["(same values; the bytes differ)"])
