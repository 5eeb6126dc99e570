"""Layered benchmark of hopflab: end-to-end metrics, or per-layer counts when traced.

Run from the repository root:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

One client in a closed loop, no threads; set-up is timed in fresh child
interpreters, one at a time. Workloads: construct, austere, catalog (see
perfbench/README.md). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a fuller record
(environment stamp, output digest, item times with their host-speed
references, set-up samples, failures, self-check) goes to .bench_out/.
"""

import os

# pin the BLAS pools before NumPy is imported anywhere in this process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("construct", "austere", "catalog")
END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
                    "passed_frac": "ratio"}
# setup_s is the median of repeated cold set-ups in fresh interpreters: at
# least SETUP_MIN of them, more (up to SETUP_MAX) while they have taken less
# than SETUP_BUDGET_S, so a short set-up gets enough samples for a steady median
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 60


def _import_path():
    if not (SRC / "hopflab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'hopflab'} not found; run from the repository root")
    sys.path[:0] = [str(SRC), str(HERE)]


def _setup(workload, seed, scratch):
    """Import hopflab and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, str(scratch))
    return wl, time.perf_counter() - t0


def _setup_in_child(workload, seed):
    """Seconds of one cold set-up in a fresh interpreter, timed in the child."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, seed):
    """Cold set-ups with a host-speed reference after each; (setup_s, samples).

    setup_s is the median set-up rescaled by the median reference of the
    set-up phase (a few seconds, so one host speed).
    """
    from hostspeed import REFERENCE_S, reference_seconds

    refs = [reference_seconds()]
    setups = []
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX
                                      and sum(setups) < SETUP_BUDGET_S):
        setups.append(_setup_in_child(workload, seed))
        refs.append(reference_seconds())
    setup_s = statistics.median(setups) * REFERENCE_S / statistics.median(refs)
    return setup_s, {"setup_seconds": setups, "setup_references": refs}


class Tally:
    """Attempted and failed items, with the per-item output digests."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []
        self.digests = {}       # item -> digest of its first run

    def run(self, item):
        self.attempted += 1
        try:
            ok, digest = self.wl.run(item)
        except Exception:      # an item that raises is a failed item; keep measuring
            traceback.print_exc(file=sys.stderr)
            ok, digest = False, b"raised"
        first = self.digests.setdefault(repr(item), digest)
        if first != digest:    # outputs must repeat exactly within a run
            ok = False
        if not ok:
            self.failures.append(repr(item))

    def cycle(self, speed):
        """Run one cycle, each item timed by ``speed`` (a HostSpeed);
        returns [(item, seconds, rescaled seconds, reference samples)]."""
        return [(repr(item), *speed.time(lambda: self.run(item))) for item in self.wl.cycle()]

    def digest(self):
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(key.encode() + b"\0" + self.digests[key] + b"\0")
        return h.hexdigest()


def _environment():
    import hopflab._kernels

    return {"kernel_backend": hopflab._kernels.BACKEND,
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def measure_untraced(tally, seconds):
    """Whole cycles for about ``seconds``; items per rescaled second.

    The loop stops once the elapsed time plus half the last cycle's time
    reaches ``seconds``, so the timed span ends within about half a cycle of
    ``seconds``. Every run measures whole cycles, hence the same item mix.
    """
    from hostspeed import HostSpeed

    speed = HostSpeed(periodic=True)
    rows = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rows += tally.cycle(speed)
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            break
    return ({"items_per_s": len(rows) / sum(r[2] for r in rows)},
            {"raw_items_per_s": len(rows) / sum(r[1] for r in rows), "items": rows})


def _traced_cycle(tally, spans_path=None):
    from hostspeed import HostSpeed
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        rows = tally.cycle(HostSpeed(periodic=False))
    if spans_path:
        tracer.write_spans(spans_path)
    return tracer.metrics(), sum(r[2] for r in rows)


def measure_traced(tally, workload, spans_path):
    """One untraced cycle, then two traced cycles whose counts must agree."""
    from hostspeed import HostSpeed
    from tracer import selfcheck

    plain = tally.cycle(HostSpeed(periodic=False))
    n, dt_plain = len(plain), sum(r[2] for r in plain)
    values, dt_traced = _traced_cycle(tally, spans_path)
    repeat, _ = _traced_cycle(tally)
    mismatches = sorted(k for k in values
                        if not k.endswith(("self_s", "per_call", "per_launch"))
                        and values[k] != repeat[k])
    lost, unexpected = selfcheck(workload, values)
    values["trace.items_per_s"] = n / dt_traced
    values["trace.untraced_items_per_s"] = n / dt_plain
    values["trace.overhead_items_per_s"] = n / dt_traced - n / dt_plain
    values["trace.selfcheck_violations"] = len(lost) + len(unexpected)
    values["trace.count_mismatches"] = len(mismatches)
    for label, names in (("zero where work is expected", lost),
                         ("nonzero where no work is expected", unexpected),
                         ("differ between the two traced cycles", mismatches)):
        if names:
            print(f"trace self-check: counters {label}: {', '.join(names)}", file=sys.stderr)
    return values, {"selfcheck_lost": lost, "selfcheck_unexpected": unexpected,
                    "count_mismatches": mismatches}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_path()
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, secs = _setup(args.workload, args.seed, scratch)
            print(repr(secs))
            return 0
        wl, _ = _setup(args.workload, args.seed, scratch)
        # the traced run reports no end-to-end metric, so it skips the set-up timing
        setup_s, setup_detail = (None, {}) if args.trace else measure_setup(args.workload,
                                                                            args.seed)
        tally = Tally(wl)
        tally.run(wl.warmup())
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            from tracer import PER_LAYER

            values, detail = measure_traced(tally, args.workload, f"{stem}-spans.npz")
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, detail = measure_untraced(tally, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values["passed_frac"] = (tally.attempted - len(tally.failures)) / tally.attempted
            units = END_TO_END_UNITS
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": _environment(), "output_digest": tally.digest(),
                  "failures": tally.failures, **setup_detail, **detail,
                  "metrics": metrics}
        with open(f"{stem}.json", "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
        print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
        print(f"output digest ({args.workload}, seed {args.seed}): {record['output_digest']}")
        print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                          "failed": len(tally.failures), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
