"""The construct benchmark cycle's output, pinned bit for bit.

``golden/construct_seed3.sha256`` holds one line per item of one
``construct`` cycle of perfbench/workloads.py at seed 3: the action, the
law, the SHA-256 of the item's scene bytes, a NUL byte and its CSV bytes
(the digest the benchmark compares between runs), and the SHA-256 of its
CSV bytes alone. The last column shows whether a moved line moved its mesh
or only its scene: a scene format change keeps it. A change that is meant
to keep the scenes must keep every line; one that moves a line on purpose
regenerates the file and says which line moved and why:

    PYTHONPATH=src python tests/test_construct_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "construct_seed3.sha256"


def construct_cycle_lines(seed, scratch):
    """One "action law digest csv-digest" line per item of one ``construct`` cycle
    at ``seed``."""
    workload = WORKLOADS["construct"](seed, str(scratch))
    lines = []
    for item in workload.cycle():
        ok, digest = workload.run(item)
        assert ok, digest
        cfg = workload.configs[item]
        # the CSV the item just wrote, where the workload writes it
        csv = (Path(scratch) / f"construct-{item}.csv").read_bytes()
        lines.append(f"{cfg['action']} {cfg['law']} {digest.hex()} "
                     f"{hashlib.sha256(csv).hexdigest()}\n")
    return lines


def test_construct_cycle_matches_golden(tmp_path):
    assert construct_cycle_lines(3, tmp_path) == GOLDEN.read_text().splitlines(keepends=True)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text("".join(construct_cycle_lines(3, scratch)))
    print(f"rewrote {GOLDEN}")
