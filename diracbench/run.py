"""Run one diraclab benchmark workload and print its metrics.

    python3 diracbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Paths are found from this file, so any working directory works. The program
is imported from ``src/`` next to this directory and from nowhere else. The
run repeats whole rounds of the workload while another round fits in
--seconds. A round runs every operation once: it builds the operation's
inputs (timed as set-up), runs it (timed), and checks its output (untimed)
before the next one starts. Times are scaled to a reference CPU speed (see
REFERENCE_S). Each operation's time is its median over the run's rounds, and
``batch_s`` sums those.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced and the result carries the per-layer metrics. The line before it is the
machine record. Details, and spans for traced runs, go to ``diracbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("exact", "pipeline", "gadgets", "resilience")
# The CPU of the host these figures come from runs up to 1.6x slower for
# seconds to minutes at a time while other tenants load it, and a 30 s run
# can lie wholly in a slow spell. A fixed reference loop, timed around and
# during each operation (SpeedClock), measures the speed of that moment;
# every time the run reports is scaled to the speed at which one pass of the
# loop takes REFERENCE_S, about its fastest pass on that host.
REFERENCE_S = 0.0017
REFERENCE_KEYS = [(i * 7919 % 4099, i % 61, i % 7) for i in range(10_000)]
# each round adds set-up passes, untimed beside the round, until they reach
# this long, so that the median set-up of a run rests on many readings even
# where one set-up takes a fraction of a millisecond
SETUP_SLICE_S = 0.02
# the reference loop also runs this often during an operation (about 2% of
# its time, left out of the times reported)
SAMPLE_EVERY_S = 0.1
# a traced run alternates untraced and traced rounds and needs two of each
MIN_ROUNDS = {0: 2, 1: 4}


def import_program() -> None:
    """Import diraclab from this checkout's src/ and from nowhere else."""
    if not (SRC / "diraclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no diraclab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import diraclab

    origin = Path(diraclab.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: diraclab was imported from {origin}, not {SRC}")


def machine_record(args) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "commit": commit,
    }


def reference_time() -> float:
    """Seconds for one pass of a fixed loop of tuple-keyed dict and set work,
    the kind diraclab spends its time on."""
    t = time.perf_counter()
    counts = {}
    for key in REFERENCE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    seen = set(counts)
    sum(key in seen for key in REFERENCE_KEYS[::3])
    return time.perf_counter() - t


class SpeedClock:
    """Times calls at the reference speed.

    Inside ``with``, the reference loop runs twice at entry, twice at exit,
    and from a SIGALRM handler every SAMPLE_EVERY_S in between, so a long
    operation is scaled by the speed over its whole length and not only at
    its ends. ``time`` leaves the handler's own seconds out; ``scale``
    (valid after exit) turns the seconds it returned into reference seconds.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.paused = 0.0

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        self.readings.append(reference_time())
        self.paused += time.perf_counter() - t

    def __enter__(self):
        self._sample()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self._sample()
        self.scale = REFERENCE_S / statistics.median(self.readings)

    def time(self, fn, *args):
        """``fn(*args)`` and its seconds, less those spent in samples."""
        paused = self.paused
        t = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t - (self.paused - paused)


def run_round(make_ops, seed, tracer=None) -> dict:
    """Make the operations and run each once on fresh inputs, checking each
    output before the next starts. Times are at the reference speed."""
    gc.collect()
    with SpeedClock() as clock:
        ops, setup_s = clock.time(make_ops, seed)
    setup_s *= clock.scale
    records, errors, failed = [], [], 0
    for op in sorted(ops, key=lambda op: not op.timed):
        gc.collect()
        with SpeedClock() as clock:
            args, inputs_s = clock.time(op.inputs)
            if tracer is not None:
                tracer.op = op.label
                tracer.install()
            try:
                out, wall_s = clock.time(op.run, *args)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        setup_s += inputs_s * clock.scale
        if tracer is not None:
            tracer.scale[op.label] = clock.scale
        del args
        why = op.check(out)
        if why:
            errors.append(f"{op.label}: {why}")
        did_fail = op.failed(out)
        failed += did_fail
        if op.timed:
            records.append({"label": op.label, "seconds": wall_s * clock.scale,
                            "wall_s": wall_s, "failed": did_fail})
    return {"setup_s": setup_s, "attempted": len(ops), "failed": failed,
            "errors": errors, "ops": records}


def build_all(make_ops, seed):
    for op in make_ops(seed):
        op.inputs()


def extra_setups(make_ops, seed, slice_s) -> list[float]:
    """Set-up passes without running anything, until they add up to
    ``slice_s``: each makes one round's operations and builds all their
    inputs, one operation's inputs alive at a time. Times are at the
    reference speed."""
    gc.collect()
    passes = []
    with SpeedClock() as clock:
        while sum(passes) < slice_s:
            passes.append(clock.time(build_all, make_ops, seed)[1])
    return [x * clock.scale for x in passes]


def op_medians(rounds) -> list[tuple[float, bool]]:
    """Each timed operation's median time over the rounds, and whether it
    failed."""
    return [(statistics.median(o["seconds"] for o in runs), runs[0]["failed"])
            for runs in zip(*(r["ops"] for r in rounds))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Tracer

    make_ops = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s"]
    tracer = Tracer() if args.trace else None
    # objects alive now (interpreter, numpy, diraclab) stay out of the
    # collections run_round makes before each operation
    gc.collect()
    gc.freeze()
    rss_before_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        round_ = run_round(make_ops, args.seed, tracer if traced else None)
        if traced:
            round_["layers"] = tracer.layer_totals(first_span, layer_names)
        rounds.append(round_)
        setups.append(round_["setup_s"])
        if round_["setup_s"] < SETUP_SLICE_S:
            setups += extra_setups(make_ops, args.seed, SETUP_SLICE_S - round_["setup_s"])
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS[args.trace] and now - start + (now - t) > args.seconds:
            break

    plain = [r for r in rounds if "layers" not in r]
    errors = [e for r in rounds for e in r["errors"]]
    per_op = op_medians(plain)
    batch_s = sum(t for t, _ in per_op)
    if args.trace:
        traced_rounds = [r for r in rounds if "layers" in r]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced_rounds),
                   "unit": "s" if name.endswith("_s") else "count"}
            for name in layer_names
        }
        overhead = sum(t for t, _ in op_medians(traced_rounds)) - batch_s
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "batch_s": {"value": batch_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(math.inf if f else t for t, f in per_op),
                         "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = machine_record(args)
    for e in errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"record": record, "rss_before_mib": rss_before_mib, "setups_s": setups,
              "rounds": rounds, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="ascii")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
