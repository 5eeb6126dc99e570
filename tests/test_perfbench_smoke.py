"""The benchmark's workloads still run against the library.

Each workload of perfbench/workloads.py is built from a seed and must pass
its own correctness check on its warm-up item, so a change to a library
entry point that the benchmark calls fails here rather than only when the
benchmark runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_item_passes(name, tmp_path):
    workload = WORKLOADS[name](3, str(tmp_path))
    ok, digest = workload.run(workload.warmup())
    assert ok, digest
