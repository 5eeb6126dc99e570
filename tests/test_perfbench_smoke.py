"""The benchmark's workloads still run against the library.

Each workload of perfbench/workloads.py is built from a seed and must pass
its own correctness check on its warm-up item, so a change to a library
entry point that the benchmark calls fails here rather than only when the
benchmark runs. The warm-up item also runs under the traced run's wrappers
(perfbench/tracer.py), so a rename of a function the tracer wraps fails here
too, and every binding the tracer replaced must be back afterwards.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_item_passes(name, tmp_path):
    workload = WORKLOADS[name](3, str(tmp_path))
    ok, digest = workload.run(workload.warmup())
    assert ok, digest


def _bindings():
    """Every attribute of every loaded hopflab module and of its classes, by key."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hopflab" or name.startswith("hopflab.")):
            continue
        for attr, value in list(vars(mod).items()):
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    out[name, attr, meth] = fn
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warmup_item_passes_traced(name, tmp_path):
    import hopflab.cli  # noqa: F401  (the tracer loads every module that binds a traced name)

    workload = WORKLOADS[name](3, str(tmp_path))
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        ok, digest = workload.run(workload.warmup())
    assert ok, digest
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
    assert sum(v for k, v in tracer.metrics().items() if k.endswith(".calls")) > 0
