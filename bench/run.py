#!/usr/bin/env python3
"""Seeded benchmark of the gstio pipeline.

    python3 bench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client. Inputs come from the
benchmark's own generator and depend only on the seed; generating them is
outside every timing. With ``--trace 0`` the run times `gstio` CLI
subprocesses (survey, national) or an in-process API sweep in a child
process (sweep) and prints the end-to-end metrics; with ``--trace 1`` it
replays the pipeline layer by layer in this process and prints the
per-layer metrics. Either way every output is checked against an
independent oracle. Metric names and units come from BENCHMARK.json; the
last line of stdout is one JSON object with correct, attempted, failed and
metrics. Details (samples, tails, machine facts, spans) go to
.bench_work/<workload>-seed<seed>-trace<0|1>.json. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# One BLAS thread in this process and every child: the plain
# single-threaded baseline.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100 * (len(ordered) - 10) / len(ordered), "value": ordered[-11]}


def machine() -> dict:
    import numpy as np

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "caches": caches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="three-sector inputs, for the smoke test")
    args = parser.parse_args()

    if not (SRC / "gstio" / "__init__.py").is_file():
        print(f"error: no gstio sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # numpy reads the thread pins when it is first imported, so they are set
    # before the modules that import it.
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import workloads

    directory = WORK / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(directory, ignore_errors=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, directory, traced=bool(args.trace), smoke=args.smoke)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    specs = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in result.values]
    if missing:
        for problem in result.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result.values[m["name"]], "unit": m["unit"]} for m in specs}
    attempted = max(result.attempted, 1)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "generation_s": result.generation_s,
        "fail_ratio": result.failed / attempted,
        "metrics": {
            name: {**metrics[name], "n": len(result.samples.get(name, [])), "tail": tail(result.samples.get(name, []))}
            for name in metrics
        },
        "samples": result.samples,
        "problems": result.problems,
        "spans": result.spans,
    }
    WORK.mkdir(exist_ok=True)
    details_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1), encoding="utf-8")

    for problem in result.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: inputs generated in {result.generation_s:.3f} s (not a metric)")
    for name, entry in details["metrics"].items():
        extra = f"  n={entry['n']}" if entry["n"] else ""
        if entry["tail"]:
            extra += f"  p{entry['tail']['percentile']:.0f}={entry['tail']['value']:.6g}"
        print(f"{name:<44} {entry['value']:>14.6g} {entry['unit']}{extra}")
    print(f"{'fail_ratio':<44} {details['fail_ratio']:>14.6g} ratio  ({result.failed} of {attempted})")
    print(f"# details: {details_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0 and not result.problems,
                "attempted": attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
