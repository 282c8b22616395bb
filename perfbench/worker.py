"""One measured step in a process of its own.

``--mode calibrate`` times a fixed kernel that does not involve castgraph, to
gauge the machine's current speed. ``--mode setup`` times ``castgraph.ingest``
of a dataset directory several times. ``--mode run`` times one ingest and one ``run_pipeline`` with ground
truth, and reports the process's peak RSS, so that the peak belongs to that
ingest and run alone. ``--trace 1`` records spans around castgraph's public
functions during the run. The result goes to ``--result`` as JSON; a step
that raises writes its traceback there and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def calibrate(args) -> dict:
    """Time a fixed kernel with the resource mix of a pipeline run.

    Interpreter loops, JSON float encoding, memory streaming over 128 MB and
    row-by-row BLAS matrix-vector products, as in the pipeline. It runs in a
    process that never imports castgraph, so no change to the program can
    change it: it measures only how fast the machine is right now.
    """
    import numpy as np

    big = np.ones(16_000_000)
    rows = np.random.default_rng(0).standard_normal((400, 1024))
    table = dict.fromkeys(range(1024), 0.0)
    times = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        for i in range(300_000):
            table[i & 1023] += i * 0.5
        json.loads(json.dumps(rows[:80].tolist()))
        for _ in range(8):
            big += 1.0
        for i in range(rows.shape[0]):
            rows[i:] @ rows[i]
        times.append(time.perf_counter() - start)
    return {"calib_s": times}


def setup(args) -> dict:
    import castgraph

    times = []
    for _ in range(args.repeat):
        start = time.perf_counter()
        castgraph.ingest(args.data)
        times.append(time.perf_counter() - start)
    return {"ingest_s": times}


def run(args) -> dict:
    import castgraph

    truth = castgraph.GroundTruth.load(args.truth)
    config = castgraph.PipelineConfig(resume=bool(args.resume))
    run_pipeline = castgraph.run_pipeline
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_pipeline = tracer.wrap("pipeline.run", castgraph.run_pipeline)

    start = time.perf_counter()
    ds = castgraph.ingest(args.data)
    ingested = time.perf_counter()
    cpu_start = cpu_seconds()
    run_pipeline(ds, args.out, config, truth)
    end = time.perf_counter()
    cpu_s = cpu_seconds() - cpu_start

    result = {
        "ingest_s": ingested - start,
        "run_s": end - ingested,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("calibrate", "setup", "run"), required=True)
    parser.add_argument("--data")
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--truth")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--resume", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        result = {"calibrate": calibrate, "setup": setup, "run": run}[args.mode](args)
        code = 0
    except Exception:  # the step's outcome is reported, not raised
        result = {"error": traceback.format_exc()}
        code = 1
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
