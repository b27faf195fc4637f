"""Run one fuserec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from `src/`
and the synthetic data generator from `tests/synthdata.py`. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the
per-layer metrics from a traced run (see README.md). A summary goes to
standard error, and run records (spans, pipeline digests) to `.perfbench_out/`.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# set up at least this many times and for at least this long; setup_s is the median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


def _import_program():
    """Put the checkout's src/ and tests/ on the path and import from there."""
    sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import fuserec
    import synthdata

    for mod in (fuserec, synthdata):
        if not os.path.abspath(mod.__file__).startswith(ROOT + os.sep):
            raise ImportError(f"{mod.__name__} was imported from {mod.__file__}, outside {ROOT}")


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run whole rounds for `seconds`, check, and build the result object."""
    from tracer import Tracer
    from workloads import Round

    workdir = os.path.join(OUT_DIR, f"{workload.name}-{os.getpid()}")
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    null_span = _NullSpan()
    rounds: list[Round] = []
    start = time.perf_counter()
    if not trace:
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(workload.run_round(state, null_span))
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": (statistics.median(r.wall_s for r in rounds), "s"),
        }
        unsteady = []
    else:
        # untraced rounds for the first quarter of the time: the overhead baseline
        while not rounds or time.perf_counter() - start < seconds / 4:
            rounds.append(workload.run_round(state, null_span))
        n_base = len(rounds)
        layer_rounds: list[dict] = []
        with Tracer() as tracer:
            while len(rounds) == n_base or time.perf_counter() - start < seconds:
                tracer.reset()
                with tracer.span(f"round.{workload.name}"):
                    rounds.append(workload.run_round(state, tracer.span))
                layer_rounds.append(tracer.snapshot())
        tracer.write_spans(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.spans.jsonl"))
        metrics, unsteady = layer_metrics(rounds[:n_base], layer_rounds, rounds[n_base:])

    try:
        problems = workload.check(state, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += [f"traced rounds disagree on count {name}" for name in unsteady]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    _write_records(workload, seed, state, rounds)
    _summary(workload, seed, rounds, problems, metrics, state)
    return result


def layer_metrics(base, layer_rounds, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds: counts from the last round (they
    must repeat exactly), times as medians. Also process time and the tracing
    overhead, against the untraced `base` rounds."""
    last = layer_rounds[-1]
    unsteady = []
    metrics = {}
    for name, value in last.items():
        if name.endswith("_s"):
            metrics[name] = (statistics.median(lr[name] for lr in layer_rounds), "s")
        else:
            if any(lr[name] != value for lr in layer_rounds):
                unsteady.append(name)
            metrics[name] = (value, "B" if name.endswith("bytes_written") else "count")
    base_wall = statistics.median(r.wall_s for r in base)
    traced_wall = statistics.median(r.wall_s for r in traced)
    metrics["process.wall_s"] = (base_wall, "s")
    metrics["process.cpu_s"] = (statistics.median(r.cpu_s for r in base), "s")
    metrics["trace.round_s"] = (traced_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / base_wall - 1.0), "%")
    return metrics, unsteady


def _write_records(workload, seed: int, state: dict, rounds) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "round_wall_s": [r.wall_s for r in rounds],
              "round_cpu_s": [r.cpu_s for r in rounds]}
    for key in ("probe_loss", "gradient_worst_rel", "quality"):
        if key in state:
            record[key] = state[key]
    if workload.name == "pipeline":
        record["digests"] = rounds[-1].output
    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary(workload, seed: int, rounds, problems, metrics, state) -> None:
    err = sys.stderr
    print(f"{workload.name} seed {seed}: {len(rounds)} rounds, "
          f"{sum(r.attempted for r in rounds)} operations, {sum(r.failed for r in rounds)} failed", file=err)
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:<40} {value:14.6g} {unit}", file=err)
    for key in ("probe_loss", "gradient_worst_rel", "quality"):
        if key in state:
            print(f"  {key}: {state[key]}", file=err)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=err)


class _NullSpan:
    def __call__(self, name: str):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
