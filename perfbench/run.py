"""KG-build benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 20 --trace 0

Run from the repository root. One driver process starts a local Ray
cluster with ``num_cpus`` = the CPUs this process may use, sets the
workload up (``--seed`` decides every input), then runs one job at a
time for ``--seconds``; every job's output is checked against a
single-process oracle. Workloads are described in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
the time untraced and half traced (spans around every layer, see
``tracing.py``) and reports the per-layer metrics plus the tracing
overhead (traced minus untraced median job wall). A human-readable
report goes to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

This process and every process it starts are bound to ``nproc`` CPUs
(``procs.bind_cpus``), so helpers cannot borrow CPUs the host did not
grant. Set-up (``setup_s``) = Ray start + worker warm-up on a tiny input (once)
+ the median of ``SETUP_REPS`` input preparations (generation and
sharding from the seed). Restarting Ray for every repetition would cost
~6 s a time on one core, which the run budget cannot carry. The warm-up
job builds every per-worker cache (model weights, gazetteer regex) and
starts the Ray Data executor, so timed jobs start steady.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3
MIN_JOBS = 3
#: stop starting jobs past this many seconds after launch (the run must
#: finish well inside 180 s, including Ray shutdown)
DEADLINE_S = 140.0
#: Ray's unix-socket paths run ~62 characters below its temp dir and must
#: stay under 108; keep the temp dir in the checkout only when it fits
_MAX_RAY_TMP = 44


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _start_ray(tmp: str, nproc: int):
    import ray
    import ray.data as rd

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {"_temp_dir": tmp} if len(tmp) <= _MAX_RAY_TMP else {}
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             log_to_driver=False, logging_level=logging.WARNING,
             object_store_memory=512 * 1024 ** 2, **kw)
    rd.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _stop_ray():
    import ray

    from perfbench import procs

    ours = procs.descendants(os.getpid())
    ray.shutdown()
    return procs.wait_gone(ours, timeout=15.0)


def _nproc() -> int:
    """CPUs available to this process, as GNU ``nproc`` counts them (it
    honours OMP_NUM_THREADS / OMP_THREAD_LIMIT, which hosts that share
    cores set to give each job its share)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        val = os.environ.get(var, "")
        if val.isdigit() and int(val) > 0:
            n = min(n, int(val))
    return n


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def _run_jobs(wl, seconds: float, t_launch: float, tally, tracer_factory=None,
              rss=None):
    """Closed loop: next job starts when the previous one finished.

    With ``rss`` given, its peak is frozen once ``MIN_JOBS`` jobs are done:
    memory is compared over a fixed amount of work, so a faster program
    that fits more jobs into the run is not charged for the extra jobs.
    """
    from perfbench import procs

    results, t0 = [], time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        res = _attempt(wl, tally, tracer)
        if res is not None:
            results.append(res)
            if rss is not None and len(results) == MIN_JOBS:
                rss.freeze()
            parts = "".join(f" {k} {res[k]:.3f}" for k in
                            ("run_s", "compact_s", "resume_s") if k in res)
            print(f"[{wl.name}] job {res['wall_s']:.3f} s{parts} at "
                  f"{time.perf_counter() - t_launch:.1f} s, "
                  f"{len(procs.ray_workers())} Ray workers", file=sys.stderr)
        spent = time.perf_counter() - t0
        if spent >= seconds and len(results) >= MIN_JOBS:
            break
        if time.perf_counter() - t_launch > DEADLINE_S:
            break
    return results


def _attempt(wl, tally, tracer=None):
    tally["attempted"] += 1
    try:
        if tracer is None:
            res = wl.job()
        else:
            from perfbench.tracing import capture_data_stats, patch_layers

            with capture_data_stats() as summaries, patch_layers(tracer), \
                    tracer.span("job"):
                res = wl.job(tracer)
            tracer.collect()
            res["tracer"], res["data_stats"] = tracer, list(summaries)
        err = wl.check(res)
    except Exception:       # a failed job is counted, not fatal
        traceback.print_exc()
        err = "job raised"
        res = None
    if err:
        print(f"[{wl.name}] job {tally['attempted']} WRONG: {err}",
              file=sys.stderr)
        tally["failed"] += 1
        return None
    return res


def _end_to_end(results, setup_s, peak_rss_mb) -> dict:
    walls = [r["wall_s"] for r in results]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median(walls), "s"),
        "pages_per_s": (_median([r["pages"] / r["wall_s"] for r in results]),
                        "1/s"),
        "candidates_per_s": (_median([r["candidates"] / r["wall_s"]
                                      for r in results]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


_LAYER_UNITS = {"busy_s": "s", "keep_ratio": "ratio", "bytes_in": "bytes",
                "bytes_written": "bytes", "bucket_rows_mean": "rows",
                "bucket_rows_max": "rows"}


def _per_layer(wl, untraced, traced) -> tuple[dict, list]:
    from perfbench.tracing import layer_metrics, parse_stats, span_table

    per_job = [layer_metrics(r["tracer"].spans) for r in traced]
    out = {}
    for name in per_job[0] if per_job else []:
        unit = _LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")
        out[name] = (_median([m[name] for m in per_job]), unit)
    data = []
    for r in traced:
        totals = [parse_stats(s) for s in r["data_stats"]]
        data.append({
            "tasks": sum(t["tasks"] for t in totals),
            "remote_cpu_s": sum(t["remote_cpu_s"] for t in totals),
            "wait_s": sum(t["remote_wall_s"] - t["remote_cpu_s"]
                          for t in totals),
            "peak_heap_mb": max((t["peak_heap_mb"] for t in totals),
                                default=0.0),
        })
    for key, unit in (("tasks", "count"), ("remote_cpu_s", "s"),
                      ("wait_s", "s"), ("peak_heap_mb", "MB")):
        out[f"ray.data.{key}"] = (_median([d[key] for d in data]), unit)
    job = wl.summarize(untraced) if hasattr(wl, "summarize") else {}
    for key in ("shard_commit_s.p50", "shard_commit_s.p90", "compact_s",
                "resume_s"):
        out[f"pipelines.job.{key}"] = (job.get(key, 0.0), "s")
    w_untraced = _median([r["wall_s"] for r in untraced])
    w_traced = _median([r["wall_s"] for r in traced])
    out["trace.overhead_s"] = (w_traced - w_untraced, "s")
    table = span_table(traced[len(traced) // 2]["tracer"].spans) \
        if traced else []
    return out, table


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    try:
        import opennre_ray  # noqa: F401  (the program under test)
        import ray  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from perfbench import procs
    from perfbench.tracing import Tracer, make_sink
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    t_launch = time.perf_counter()
    nproc = _nproc()
    cpus = procs.bind_cpus(nproc)
    hygiene = procs.stop_orphan_ray()
    hygiene["loadavg"] = procs.load_average()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    ray_tmp = os.path.join(ROOT, ".perfbench_work", f"r{os.getpid()}")
    for d in (work, ray_tmp):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](work, args.seed)
    tally = {"attempted": 0, "failed": 0}
    leftover = []
    try:
        t0 = time.perf_counter()
        _start_ray(ray_tmp, nproc)
        wl.warm_up()
        start_s = time.perf_counter() - t0
        prep_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(rep)
            prep_times.append(time.perf_counter() - t0)
        setup_s = start_s + _median(prep_times)
        t_oracle = time.perf_counter()
        wl.oracle()
        print(f"[{wl.name}] set-up done at {t_oracle - t_launch:.1f} s, "
              f"oracle {time.perf_counter() - t_oracle:.1f} s",
              file=sys.stderr)
        ticks = procs.cpu_ticks(cpus)
        with procs.RssSampler() as rss:
            untraced = _run_jobs(wl, args.seconds / (2 if args.trace else 1),
                                 t_launch, tally, rss=rss)
            traced = []
            if args.trace:
                sink = make_sink()
                traced = _run_jobs(wl, args.seconds / 2, t_launch, tally,
                                   lambda: Tracer(sink))
        hygiene["steal"] = procs.steal_share(ticks, procs.cpu_ticks(cpus))
    finally:
        leftover += _stop_ray()
        if tally["failed"]:
            print(f"kept {work} and {ray_tmp} (Ray logs) for inspection",
                  file=sys.stderr)
        else:
            for d in (work, ray_tmp):
                shutil.rmtree(d, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        print("no job completed", file=sys.stderr)
        return 1

    metrics = _end_to_end(untraced, setup_s, rss.peak_mb)
    table = []
    if args.trace:
        metrics, table = _per_layer(wl, untraced, traced)
        spans_path = os.path.join(ROOT, ".perfbench_out",
                                  f"trace-{wl.name}-seed{args.seed}.jsonl")
        traced[len(traced) // 2]["tracer"].dump(spans_path, {
            "workload": wl.name, "seed": args.seed, "nproc": nproc})

    print(f"workload {wl.name}  seed {args.seed}  nproc {nproc}  "
          f"bound to CPUs {cpus}  "
          f"loadavg {hygiene['loadavg']}  cpu steal while timed "
          f"{hygiene['steal']:.1%}  orphan ray processes stopped "
          f"{hygiene['orphans_found']}  left after run {len(leftover)}")
    print(f"setup_s = ray start + warm-up {start_s:.3f} s + median input "
          f"preparation of {[round(x, 3) for x in prep_times]}  jobs timed "
          f"{len(untraced)} untraced / {len(traced)} traced  "
          f"failed_frac {tally['failed'] / tally['attempted']:.3f} "
          f"({tally['failed']}/{tally['attempted']})")
    if hasattr(wl, "summarize"):
        for k, v in wl.summarize(untraced).items():
            print(f"  {k:<22} {v:.4f}" if isinstance(v, float)
                  else f"  {k:<22} {v}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {unit}")
    if table:
        wall = sum(r["total_s"] for r in table if r["name"] == "job")
        print("  span                                         n   total_s"
              "    self_s  share")
        for r in table:
            print(f"  {r['name']:<42} {r['n']:>4} {r['total_s']:>9.3f} "
                  f"{r['self_s']:>9.3f} {r['self_s'] / wall:>6.1%}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
