"""Benchmark of circulantwl: one workload in one single-threaded process.

Run from the repository root:

    python3 bench/run.py --workload main_bound --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` beside this directory, never from an
installed copy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A result file, and with tracing the spans, go to
``bench/out/``.

Timing.  Rounds of the workload's operations run, always in the same order,
until ``--seconds`` have passed and the workload's minimum number of rounds
is done.  The machines this runs on slow down by up to 2x, for
stretches of seconds to minutes, while process CPU time keeps pace with
wall time, so a raw time says as much about the neighbours as about the
code.  Each operation's time is therefore scaled by a ``SpeedProbe`` run
around and inside it: an operation of ``t`` seconds whose probes averaged
``p`` seconds counts as ``t * PROBE_REF_S / p``, the seconds it would take
on a machine where the probe takes ``PROBE_REF_S``.  ``wall_s`` is the time
of one round: the sum over operations of the median of each one's scaled
samples.  ``setup_s`` is the median of ``SETUPS`` scaled set-ups spread over
the run; one set-up is an interpreter start that imports
the library plus a build of the workload's inputs and its warm-up.  The
result file keeps the raw times and probe means.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PROBE_REF_S = 0.00035
SETUPS = 5

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CIRCULANTWL_CACHE", None)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    if not (SRC / "circulantwl" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import circulantwl

    if Path(circulantwl.__file__).resolve().parent != SRC / "circulantwl":
        raise SystemExit(f"error: imported circulantwl from {circulantwl.__file__}")


def _time_import() -> float:
    """Seconds to start an interpreter and import the library."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import circulantwl"],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _release_free_memory() -> None:
    """Hand freed heap pages back to the system (glibc only), so that the
    buffers one operation freed do not stay resident under the next."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class SpeedProbe:
    """The machine's speed while an operation runs, measured apart from the
    library: one round of pair refinement on a fixed 12-point colouring,
    written out here with the numpy calls the library's engine makes today,
    plus a small dictionary loop, about 0.35 ms in all.  It runs before and
    after the operation and, from a SIGALRM timer, every ``INTERVAL``
    seconds inside it (Python runs the handler between bytecodes).  The
    probe's own time is taken out of the operation's."""

    INTERVAL = 0.02
    BRACKET = 5

    def __init__(self):
        import numpy as np

        self._np = np
        self._mat = (np.arange(12)[:, None] * np.arange(12)[None, :]) % 5
        self._samples: list[float] = []
        self._spent = 0.0

    def _probe(self) -> None:
        np, mat = self._np, self._mat
        t0 = time.perf_counter()
        codes = mat[:, None, :] * 5 + mat.T[None, :, :]
        codes.sort(axis=2)
        rows = np.concatenate([mat.reshape(144, 1), codes.reshape(144, 12)], axis=1)
        np.unique(rows, axis=0, return_inverse=True)
        counts: dict = {}
        for i in range(300):
            key = (i % 37, i % 11)
            counts[key] = counts.get(key, 0) + 1
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        self._spent += dt

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def start(self, timer: bool = True) -> None:
        self._samples, self._spent = [], 0.0
        for _ in range(self.BRACKET):
            self._probe()
        self._spent = 0.0
        if timer:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)

    def stop(self) -> tuple[float, float, int]:
        """(seconds the probe took inside the operation, mean probe time,
        probes taken)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        spent = self._spent
        for _ in range(self.BRACKET):
            self._probe()
        return spent, statistics.fmean(self._samples), len(self._samples)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        result = _run(args, workloads.WORKLOADS[args.workload](args.seed, workdir, tracer), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = {
            "wall_s": result["wall_s"],
            "setup_s": result["setup_s"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        metrics = spec["end_to_end"]
    else:
        starts = [t0 for _, t0, *_ in result["timeline"]]
        factors = [PROBE_REF_S / speed for *_, speed, _, _ in result["timeline"]]

        def factor_at(t: float) -> float:
            # a span is scaled like the operation it ran in (a failed
            # operation has no probe, so its spans take the one before)
            if not factors:
                return 1.0
            return factors[max(bisect.bisect_right(starts, t) - 1, 0)]

        totals = tracer.totals(factor_at)
        values = {key: v / result["rounds"] for key, v in totals.items()}
        values["trace.wall_s"] = result["wall_s"]
        values["trace.spans"] = len(tracer.start) / result["rounds"]
        metrics = spec["per_layer"]
    report = {
        "correct": not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metrics
        },
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(result, report=report), indent=1), encoding="utf-8"
    )
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.json.gz")
    for failure in result["check_failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(report))
    return 0


def _run(args, workload, tracer) -> dict:
    from workloads import CacheNotFresh

    probe = SpeedProbe()
    # (operation, start, seconds, probe seconds inside it, mean probe, probes, peak RSS MB)
    timeline: list[tuple[str, float, float, float, float, int, float]] = []
    setups: list[tuple[float, float, float]] = []  # (import, build, mean probe)

    def set_up():
        # no timer: the interpreter start runs in a child process
        probe.start(timer=False)
        imported = _time_import()
        t0 = time.perf_counter()
        workload.build()
        built = time.perf_counter() - t0
        setups.append((imported, built, probe.stop()[1]))

    set_up()
    attempted = failed = rounds = 0
    check_failures: list[str] = []
    # further set-ups after the rounds that pass a quarter, half and three
    # quarters of the run, then at its end, so no slow stretch covers all
    marks = [args.seconds * k / 4 for k in (1, 2, 3)]
    start = time.perf_counter()
    while True:
        for op in workload.ops():
            attempted += op.weight
            probe.start()
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = op.run()
            except CacheNotFresh:
                raise
            except Exception:
                failed += op.weight
                print(f"operation {op.key} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.enabled = False
                spent, speed, probes = probe.stop()
                _release_free_memory()
            timeline.append((op.key, t0, dt, spent, speed, probes, _peak_rss_mb()))
            check_failures.extend(op.check(out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and rounds >= workload.min_rounds:
            break
        if marks and elapsed >= marks[0]:
            marks.pop(0)
            set_up()
    while len(setups) < SETUPS:
        set_up()

    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for key, _, dt, spent, speed, _, _ in timeline:
        scaled.setdefault(key, []).append((dt - spent) * PROBE_REF_S / speed)
        raw.setdefault(key, []).append(dt - spent)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "timed_s": time.perf_counter() - start,
        "wall_s": sum(statistics.median(v) for v in scaled.values()),
        "setup_s": statistics.median((i + b) * PROBE_REF_S / speed for i, b, speed in setups),
        "raw_wall_s": sum(statistics.median(v) for v in raw.values()),
        "raw_setup_s": statistics.median(i + b for i, b, _ in setups),
        "timeline": timeline,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "check_failures": check_failures,
    }


if __name__ == "__main__":
    sys.exit(main())
