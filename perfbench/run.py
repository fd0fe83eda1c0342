"""Fixed-work benchmark of globalcert: one workload per process.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 25 --trace 0

A run builds its seeded instance list and makes one warm-up pass over it
(three times, keeping the median as the set-up time), then times whole
passes over the list, one operation at a time, checking every output
against the reference module. The last line of standard output is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "mixer_golden.txt"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# at least ten samples above the 90th percentile
MIN_SAMPLES = 100


class SetupError(Exception):
    pass


def load_program():
    """Import globalcert from this checkout's source tree, and nothing else."""
    if not (SOURCE / "globalcert" / "__init__.py").is_file():
        raise SetupError(f"no globalcert source tree at {SOURCE}")
    if not GOLDEN.is_file():
        raise SetupError(f"no golden mixer vectors at {GOLDEN}")
    sys.path.insert(0, str(SOURCE))
    import globalcert

    if Path(globalcert.__file__).resolve().parent != SOURCE / "globalcert":
        raise SetupError(f"imported globalcert from {globalcert.__file__}, not from {SOURCE}")
    import reference
    import workloads

    try:
        reference.check_golden_vectors(GOLDEN)
    except reference.CheckFailed as exc:
        raise SetupError(exc) from exc
    return workloads


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Timed:
    """Latencies and failures of the timed operations of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.completed: list[bool] = []
        self.failures: dict[str, int] = {}
        self.failed_ops: set[str] = set()
        self.check_errors: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ops_per_s(self) -> float:
        """Completed operations over the seconds of all timed passes. The
        host's speed moves between a fast and a slow state about a third
        apart; a mean over the whole run moves with the share of the run
        each state covers, where the median pass jumps between them."""
        return (len(self.latencies) - self.failed) / sum(self.latencies)


def warm_up(ops) -> None:
    """Run every operation once, untimed and unchecked: the timed passes
    check every output."""
    for op in ops:
        try:
            op.run()
        except Exception:  # counted when it recurs in a timed pass
            pass


def run_pass(ops, timed: Timed, clock=time.perf_counter) -> None:
    """One operation after another; each output is checked outside its timer."""
    for op in ops:
        t0 = clock()
        try:
            output = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            timed.latencies.append(clock() - t0)
            timed.completed.append(False)
            name = type(exc).__name__
            timed.failures[name] = timed.failures.get(name, 0) + 1
            timed.failed_ops.add(f"{name} in {op.label}")
            continue
        timed.latencies.append(clock() - t0)
        timed.completed.append(True)
        if op.verified is not None and output == op.verified:
            continue
        try:
            op.check(output)
            op.verified = output
        except Exception as exc:
            timed.check_errors.append(f"{op.label}: {type(exc).__name__}: {exc}")


def end_to_end(timed: Timed, setup_s: float) -> dict:
    # a failed operation counts as slower than any completed one
    ranked = sorted(t if ok else math.inf for t, ok in zip(timed.latencies, timed.completed))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (timed.ops_per_s(), "1/s"),
        "op_p50_ms": (percentile(ranked, 0.50) * 1e3, "ms"),
        "op_p90_ms": (percentile(ranked, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads = load_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from globalcert import hashing

    workload = workloads.WORKLOADS[args.workload]
    clear_family_cache = hashing.family_size.cache_clear
    import_s = time.perf_counter() - PROCESS_START

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # each repeat builds the instance list and makes the warm-up pass; the
    # median repeat is the set-up time, so one slow moment of the host
    # does not decide it
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        ops = None  # let the collector free the previous repeat's list
        gc.unfreeze()
        gc.collect()
        clear_family_cache()
        if tracer is not None and repeat == SETUP_REPEATS - 1:
            tracer.install()
        draws = workloads.Draws(args.seed)
        t0 = time.perf_counter()
        ops = workload.build(draws)
        built_s = time.perf_counter() - t0 - draws.reference_s
        # the instance list lives for the whole run: keep the collector from
        # scanning it on every full collection the program's work triggers
        gc.freeze()
        t0 = time.perf_counter()
        warm_up(ops)
        setup_times.append(built_s + time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    # a traced run spends half its time untraced, to measure the overhead
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    passes = max(math.ceil(MIN_SAMPLES / len(ops)), round(seconds / workload.pass_seconds))
    if tracer is not None:
        tracer.uninstall()
    timed = Timed()
    traced = Timed() if tracer is not None else None
    for _ in range(passes):
        run_pass(ops, timed)
        if tracer is not None:
            # traced and untraced passes alternate, so that a drift in the
            # machine's speed does not show up as tracing overhead
            tracer.install()
            run_pass(ops, traced)
            tracer.uninstall()

    checks = timed.check_errors + (traced.check_errors if traced else [])
    failures = dict(timed.failures)
    print(f"workload={args.workload} seed={args.seed} ops_per_pass={len(ops)} passes={passes} samples={len(timed.latencies)}")
    print(f"setup: import {import_s:.3f} s, build and warm-up {' '.join(f'{t:.3f}' for t in setup_times)} s")
    print("failures: " + (", ".join(f"{name} x{count}" for name, count in sorted(failures.items())) or "none"))
    for message in sorted(timed.failed_ops):
        print(f"failed operation: {message}")
    for message in checks[:20]:
        print(f"CHECK FAILED {message}")

    if tracer is None:
        metrics = end_to_end(timed, setup_s)
    else:
        from tracing import layer_metrics

        metrics = layer_metrics(
            tracer.totals(), passes + 1, traced.ops_per_s(), timed.ops_per_s(), len(tracer.start)
        )
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        for name in tracer.missing:
            print(f"trace: the program has no {name}; its layer reads 0")
    result = {
        "correct": not checks,
        "attempted": len(timed.latencies) + (len(traced.latencies) if traced else 0),
        "failed": timed.failed + (traced.failed if traced else 0),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
