"""Benchmark of the raresed pipeline.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/``. Each invocation is one fresh process with OpenBLAS pinned
to one thread. It sets up several times (``setup_s`` is the median),
runs whole timed rounds until ``--seconds`` have passed, checks every
round's outputs, and prints a run record and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. See bench/README.md.
"""

import os

# Before numpy loads: one BLAS thread, on every BLAS numpy might use.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, CommandFailed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "raresed" / "__init__.py").is_file():
        print(f"error: no raresed package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import raresed.cli  # noqa: F401  (loads every module the spans wrap)
    if Path(raresed.__file__).resolve().parent != (src / "raresed").resolve():
        print(f"error: imported raresed from {raresed.__file__}, not {src}",
              file=sys.stderr)
        return 2

    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        result = measure(WORKLOADS[args.workload](args.seed), args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            (BENCH / ".work").rmdir()
    if result is None:
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "python": platform.python_version(),
        **result.pop("record"),
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


def measure(workload, args, workdir: Path):
    """Set up, run timed rounds, and collect the result, or None when a
    set-up fails or no round completes.

    The set-ups are spread evenly over the run, each followed by its
    share of the rounds, so that ``setup_s`` samples the whole run as the
    rounds do. A traced run sets up once and alternates untraced and
    traced rounds, so it can state its own overhead; its per-layer
    figures come from the traced rounds.
    """
    tracer = layers.install() if args.trace else None
    setups = 1 if tracer else workload.setup_repeats
    attempted = failed = broken = 0
    correct = True
    setup_times, digests = [], set()
    rates, timed = [], {False: [], True: []}
    round_clock = 0.0
    for k in range(setups):
        out = workdir / f"setup-{k}"
        out.mkdir()
        start = time.perf_counter()
        try:
            digests.add(workload.setup(str(out)))
        except (CommandFailed, check.CheckError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return None
        setup_times.append(time.perf_counter() - start)
        if k:
            shutil.rmtree(workdir / f"setup-{k - 1}")
        attempted += workload.commands_per_setup
        if tracer is not None:
            setup_stats = tracer.snapshot()
            tracer.uninstall()

        last = k == setups - 1
        while round_clock < args.seconds * (k + 1) / setups or (
                last and broken < 3 and not (rates and (tracer is None or timed[True]))):
            traced = tracer is not None and len(timed[False]) > len(timed[True])
            if traced:
                layers.install(tracer)
            out = workdir / f"round-{len(rates) + broken}"
            start = time.perf_counter()
            try:
                done = workload.round(str(out))
            except CommandFailed as exc:
                print(f"operation failed: {exc}", file=sys.stderr)
                attempted += 1
                failed += 1
                broken += 1
                continue
            except check.CheckError as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
                broken += 1
                continue
            finally:
                if tracer is not None:
                    tracer.uninstall()
                shutil.rmtree(out, ignore_errors=True)
                round_clock += time.perf_counter() - start
            attempted += done.attempted
            rates.append(done.units / done.seconds)
            timed[traced].append(done.seconds)
    if len(digests) != 1:
        print("check failed: set-up made different inputs from the same seed",
              file=sys.stderr)
        correct = False
    try:
        workload.verify()
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    if not rates or (tracer is not None and not timed[True]):
        return None

    if tracer is not None:
        metrics = layers.per_layer(setup_stats, tracer.snapshot(), len(timed[True]))
        overhead = statistics.median(timed[True]) / statistics.median(timed[False]) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        metrics = {
            "utt_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    record = {"rounds": len(rates), "round_rates": rates, "setup_times": setup_times,
              "throughput": {workload.throughput: statistics.median(rates)},
              "quality": workload.quality}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


if __name__ == "__main__":
    sys.exit(main())
