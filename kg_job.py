#!/usr/bin/env python
"""CLI entry for the resumable KG-construction job.

Designed for ``ray job submit -- python kg_job.py --input <dir> --out <dir>``
on a cluster (the driver owns the Ray session; the library never inits).
Locally it runs the same way. Re-running with the same --out skips
completed shards (exact resume via per-shard manifests).

Examples:
    python kg_job.py --input /root/testdata/sf0.001 --out /tmp/kg_out
    python kg_job.py --input /tmp/bench_docs_sf0.1 --out /tmp/kg_out2
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="documents parquet file, or a directory of shards")
    ap.add_argument("--out", required=True, help="output root directory")
    ap.add_argument("--model", default="wiki80_cnn_softmax")
    ap.add_argument("--threshold", type=float, default=None)
    ap.add_argument("--pipeline", choices=["kg", "curation"], default="kg",
                    help="kg: triples; curation: Gopher filter -> "
                         "temperature sample -> paragraph dedup -> chunks")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args(argv)

    import ray

    # a caller that already owns a session (main(argv) in-process) keeps it
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    from opennre_ray.pipelines.job import run_kg_job
    from opennre_ray.pipelines.kg import SCORE_THRESHOLD

    if os.path.isdir(args.input):
        # an sf testdata dir holds many tables — take only the documents
        # table; a shard dir (part-*.parquet) is all documents shards
        single = os.path.join(args.input, "documents.parquet")
        if os.path.exists(single):
            shard_files = [single]
        else:
            shard_files = sorted(
                glob.glob(os.path.join(args.input, "*.parquet")))
    else:
        shard_files = [args.input]
    if args.pipeline == "curation":
        from opennre_ray.pipelines.job import run_curation_job
        result = run_curation_job(shard_files, args.out)
    else:
        result = run_kg_job(
            shard_files, args.out, model_name=args.model,
            threshold=(args.threshold if args.threshold is not None
                       else SCORE_THRESHOLD))
    print(json.dumps({"completed": len(result["completed"]),
                      "skipped": len(result["skipped"]),
                      "out": args.out}))
    if owns_session:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
