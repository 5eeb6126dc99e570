"""The austere benchmark cycle's output, pinned bit for bit.

``golden/austere_seed3.sha256`` is a SHA-256 over every candidate of one
``austere`` cycle of perfbench/workloads.py at seed 3: per action, the
candidate count, then per candidate its ``start_coords`` and every
``SigmaCurve`` array, as raw bytes. A change that is meant to keep the
search's output, such as a faster evaluation order with the same
operations, must keep the digest; one that moves it on purpose regenerates
the file and says why:

    PYTHONPATH=src python tests/test_austere_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from hopflab.constructor import austere_search  # noqa: E402
from workloads import AUSTERE_N_STEPS, WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "austere_seed3.sha256"
SIGMA_ARRAYS = ("ts", "zs", "ws", "xis", "gammas", "alphas", "betas", "hopf_a", "hopf_b",
                "mean_align")


def austere_cycle_digest(seed, scratch):
    """Hex SHA-256 of the candidates of one ``austere`` cycle at ``seed``."""
    workload = WORKLOADS["austere"](seed, str(scratch))
    h = hashlib.sha256()
    for label in workload.cycle():
        found = austere_search(workload.specs[label], workload.grids[label],
                               n_steps=AUSTERE_N_STEPS)
        h.update(f"{label}:{len(found)}\n".encode())
        for cand in found:
            h.update(cand.start_coords.tobytes())
            for name in SIGMA_ARRAYS:
                h.update(getattr(cand.curve, name).tobytes())
    return h.hexdigest()


def test_austere_cycle_matches_golden(tmp_path):
    assert austere_cycle_digest(3, tmp_path) + "\n" == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(austere_cycle_digest(3, scratch) + "\n")
    print(f"rewrote {GOLDEN}")
