"""Spans for the traced run, recorded from the benchmark's own files.

Driver spans come from ``Tracer.span`` (a context manager) and from
``patch_layers``, which swaps a handful of public library entry points for
timing wrappers while the traced job runs and restores them after. Worker
spans come from ``Timed`` / ``TimedBucket`` wrappers around the batch
callables; each batch sends its span to a zero-CPU sink actor (one awaited
call per batch, the cost the tracing-overhead figure measures). All spans
stay in memory until ``Tracer.dump``.

Ray Data's own executor statistics are captured by turning on
``DataContext.enable_auto_log_stats`` and parsing the summary each
execution logs (the text ``Dataset.stats()`` prints).
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import time
from functools import partial

import pyarrow.compute as pc


def now() -> int:
    """CLOCK_MONOTONIC in ns: one clock for the driver and every worker."""
    return time.monotonic_ns()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _rows(t) -> int:
    return t.num_rows if hasattr(t, "num_rows") else len(t)


def count_rows(batch, out) -> dict:
    return {"rows_in": _rows(batch), "rows_out": _rows(out)}


def count_html_bytes(batch, out) -> dict:
    counts = count_rows(batch, out)
    counts["bytes_in"] = int(pc.sum(pc.binary_length(batch.column("html")))
                             .as_py() or 0)
    return counts


def with_counter_rpc(counter, batch, out) -> dict:
    counts = counter(batch, out)
    counts["counter_rpcs"] = 1
    return counts


class Timed:
    """Batch-callable wrapper: times ``fn`` and ships one span per batch.

    ``probe`` (optional, zero-arg, run in the worker before the call)
    returns True when the call is about to build cached state — used to
    count model builds without touching the stage's code.
    """

    def __init__(self, fn, layer: str, sink, counter=count_rows, probe=None):
        self.fn, self.layer, self.sink = fn, layer, sink
        self.counter, self.probe = counter, probe

    def __call__(self, batch):
        built = self.probe() if self.probe is not None else False
        t0 = now()
        out = self.fn(batch)
        t1 = now()
        counts = self.counter(batch, out)
        if built:
            counts["builds"] = 1
        import ray
        ray.get(self.sink.add.remote(
            {"name": self.layer, "t0": t0, "t1": t1, "pid": os.getpid(),
             "counts": counts}))
        return out


class TimedBucket:
    """``per_bucket`` wrapper for ``hash_bucket_aggregate``: one span per
    bucket, tagged with the grouping keys so the caller can tell the
    canonical-map aggregate from the triple dedup."""

    def __init__(self, fn, keys: list[str], sink):
        self.fn, self.keys, self.sink = fn, list(keys), sink

    def __call__(self, group):
        t0 = now()
        out = self.fn(group)
        t1 = now()
        import ray
        ray.get(self.sink.add.remote(
            {"name": "functions.relational.bucket_agg", "t0": t0, "t1": t1,
             "pid": os.getpid(), "keys": self.keys,
             "counts": {"rows_in": len(group), "rows_out": len(out)}}))
        return out


def scorer_cache_probe(model_name: str):
    """Probe for ``Timed``: True when this worker has no cached scorer for
    ``model_name`` yet, i.e. the next score call builds the model."""
    def probe():
        from opennre_ray.stages import score
        return ("scorer", model_name) not in getattr(score, "_WORKER_CACHE", {})
    return probe


def make_sink():
    import ray

    @ray.remote(num_cpus=0)
    class SpanSink:
        def __init__(self):
            self.spans = []

        def add(self, span: dict) -> bool:
            self.spans.append(span)
            return True

        def drain(self) -> list:
            out, self.spans = self.spans, []
            return out

    return SpanSink.remote()


# ---------------------------------------------------------------------------
# Ray Data executor statistics
# ---------------------------------------------------------------------------

_OP_LINE = re.compile(r"^(?:Operator|Suboperator) \d+ (.+?): (\d+) tasks executed")
_TIME = r"([\d.]+)(us|ms|s)"
_WALL = re.compile(r"\* Remote wall time: .*?" + _TIME + r" total")
_CPU = re.compile(r"\* Remote cpu time: .*?" + _TIME + r" total")
_HEAP = re.compile(r"\* Peak heap memory usage \(MiB\): [\d.]+ min, ([\d.]+) max")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> dict:
    """Totals over every operator in one ``Dataset.stats()`` summary."""
    out = {"tasks": 0, "remote_wall_s": 0.0, "remote_cpu_s": 0.0,
           "peak_heap_mb": 0.0}
    for line in text.splitlines():
        line = line.strip()
        m = _OP_LINE.match(line)
        if m:
            out["tasks"] += int(m.group(2))
        elif (m := _WALL.search(line)):
            out["remote_wall_s"] += float(m.group(1)) * _UNIT[m.group(2)]
        elif (m := _CPU.search(line)):
            out["remote_cpu_s"] += float(m.group(1)) * _UNIT[m.group(2)]
        elif (m := _HEAP.search(line)):
            out["peak_heap_mb"] = max(out["peak_heap_mb"], float(m.group(1)))
    return out


class _StatsCapture(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.summaries: list[str] = []

    def emit(self, record):
        msg = record.getMessage()
        if "tasks executed" in msg:
            self.summaries.append(msg)


@contextlib.contextmanager
def capture_data_stats():
    """Collect the stats summary of every Ray Data execution in the block."""
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    log = logging.getLogger("ray.data._internal.execution.streaming_executor")
    handler = _StatsCapture()
    saved = (ctx.enable_auto_log_stats, log.level, log.propagate)
    ctx.enable_auto_log_stats = True
    log.setLevel(logging.INFO)
    log.propagate = False
    log.addHandler(handler)
    try:
        yield handler.summaries
    finally:
        log.removeHandler(handler)
        ctx.enable_auto_log_stats, level, log.propagate = saved
        log.setLevel(level)


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory span store for one traced job plus the helpers that
    produce worker spans into it."""

    def __init__(self, sink):
        self.sink = sink
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "t0": now(), "t1": None,
               "parent": self._stack[-1] if self._stack else None,
               "pid": os.getpid(), "counts": {}}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["t1"] = now()

    def timed(self, fn, layer: str, counter=count_rows, probe=None) -> Timed:
        return Timed(fn, layer, self.sink, counter, probe)

    def collect(self) -> list[dict]:
        """Pull worker spans from the sink and attach each to the innermost
        driver span whose interval contains it."""
        import ray

        driver = [s for s in self.spans if s["t1"] is not None]
        workers = ray.get(self.sink.drain.remote())
        for w in workers:
            w["id"] = len(self.spans)
            self.spans.append(w)
        for w in workers:
            # a worker span nests in a longer span of the same worker
            # process (a wrapper around a wrapper) or else in a driver span
            inside = [p for p in driver + workers
                      if p is not w and p["t0"] <= w["t0"] and w["t1"] <= p["t1"]
                      and (p in driver or p["pid"] == w["pid"])
                      and (p["t1"] - p["t0"]) >= (w["t1"] - w["t0"])]
            w["parent"] = (min(inside, key=lambda p: p["t1"] - p["t0"])["id"]
                           if inside else None)
        return self.spans

    def dump(self, path: str, meta: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → seconds of its interval not covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, end = 0, s["t0"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, end), min(b, s["t1"])
            if b > a:
                covered += b - a
                end = b
        out[s["id"]] = (s["t1"] - s["t0"] - covered) / 1e9
    return out


@contextlib.contextmanager
def patch_layers(tracer: Tracer):
    """Swap library entry points for span-recording wrappers.

    Every wrapped name is looked up by the library at call time, so the
    library's own callers (``finalize_triples``, ``compact_candidates``,
    ``run_sharded``, ``shard_candidates``) go through the wrappers too.
    """
    from opennre_ray.functions import relational
    from opennre_ray.pipelines import job, kg
    from opennre_ray.pipelines.kg import DEFAULT_MODEL
    from opennre_ray.state import lineage

    orig = {
        (kg, "canonicalize_ids"): kg.canonicalize_ids,
        (kg, "materialize_graph"): kg.materialize_graph,
        (relational, "hash_bucket_aggregate"): relational.hash_bucket_aggregate,
        (lineage, "write_shard"): lineage.write_shard,
        (job, "_counted"): job._counted,
    }

    def canonicalize_ids(inst_ds, columns, *a, **kw):
        with tracer.span("stages.canonicalize"):
            return orig[(kg, "canonicalize_ids")](inst_ds, columns, *a, **kw)

    def materialize_graph(triples_ds, out_dir, *a, **kw):
        with tracer.span("pipelines.kg.materialize_graph") as rec:
            manifest = orig[(kg, "materialize_graph")](
                triples_ds, out_dir, *a, **kw)
            rec["counts"] = {
                "files": manifest["num_files"],
                "bytes_written": sum(
                    os.path.getsize(os.path.join(out_dir, f))
                    for f in manifest["files"])}
        return manifest

    def hash_bucket_aggregate(ds, key_cols, per_bucket, *a, **kw):
        with tracer.span("functions.relational.hash_bucket_aggregate"):
            return orig[(relational, "hash_bucket_aggregate")](
                ds, key_cols, TimedBucket(per_bucket, key_cols, tracer.sink),
                *a, **kw)

    def write_shard(ds, out_root, shard, manifest):
        with tracer.span("state.lineage.write_shard") as rec:
            rec["counts"] = {"count": 1}
            return orig[(lineage, "write_shard")](ds, out_root, shard, manifest)

    stage_layer = {"pages": "sources.pages", "extract": "stages.extract",
                   "mentions": "stages.ner", "pairs": "stages.pairs",
                   "score": "stages.score", "filter": "pipelines.kg.filter"}

    def counted(fn, counters, stage):
        layer = stage_layer.get(stage, f"pipelines.job.{stage}")
        counter = count_html_bytes if stage == "extract" else count_rows
        probe = scorer_cache_probe(DEFAULT_MODEL) if stage == "score" \
            else None
        # each call of the library's counting wrapper makes one awaited
        # counter RPC, so the stage span it wraps carries that count
        return orig[(job, "_counted")](
            Timed(fn, layer, tracer.sink, partial(with_counter_rpc, counter),
                  probe), counters, stage)

    patched = {(kg, "canonicalize_ids"): canonicalize_ids,
               (kg, "materialize_graph"): materialize_graph,
               (relational, "hash_bucket_aggregate"): hash_bucket_aggregate,
               (lineage, "write_shard"): write_shard,
               (job, "_counted"): counted}
    for (mod, name), fn in patched.items():
        setattr(mod, name, fn)
    try:
        yield
    finally:
        for (mod, name), fn in orig.items():
            setattr(mod, name, fn)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer busy (self) seconds and counts for one traced job."""
    from opennre_ray.stages.canonicalize import CANON_BROADCAST_LIMIT

    selfs = self_times(spans)
    busy: dict[str, float] = {}
    counts: dict[str, dict] = {}
    buckets: list[int] = []
    surfaces = 0
    for s in spans:
        busy[s["name"]] = busy.get(s["name"], 0.0) + selfs[s["id"]]
        agg = counts.setdefault(s["name"], {})
        for k, v in s.get("counts", {}).items():
            agg[k] = agg.get(k, 0) + v
        if s["name"] == "functions.relational.bucket_agg":
            buckets.append(s["counts"]["rows_in"])
            if s.get("keys") == ["norm_surface"]:
                surfaces += s["counts"]["rows_out"]

    def c(name, key):
        return counts.get(name, {}).get(key, 0)

    canon_ran = "stages.canonicalize" in busy
    filt_in = c("pipelines.kg.filter", "rows_in")
    return {
        "sources.pages.busy_s": busy.get("sources.pages", 0.0),
        "sources.pages.rows_out": c("sources.pages", "rows_out"),
        "stages.extract.busy_s": busy.get("stages.extract", 0.0),
        "stages.extract.bytes_in": c("stages.extract", "bytes_in"),
        "stages.ner.busy_s": busy.get("stages.ner", 0.0),
        "stages.ner.sentences_out": c("stages.ner", "rows_out"),
        "stages.pairs.busy_s": busy.get("stages.pairs", 0.0),
        "stages.pairs.rows_out": c("stages.pairs", "rows_out"),
        "stages.score.busy_s": busy.get("stages.score", 0.0),
        "stages.score.rows_in": c("stages.score", "rows_in"),
        "stages.score.model_builds": c("stages.score", "builds"),
        "pipelines.kg.filter.rows_in": filt_in,
        "pipelines.kg.filter.keep_ratio":
            c("pipelines.kg.filter", "rows_out") / filt_in if filt_in else 0.0,
        "stages.canonicalize.busy_s": busy.get("stages.canonicalize", 0.0),
        "stages.canonicalize.surfaces": surfaces,
        "stages.canonicalize.broadcast":
            int(canon_ran and surfaces <= CANON_BROADCAST_LIMIT),
        "functions.relational.bucket_agg.busy_s":
            busy.get("functions.relational.bucket_agg", 0.0)
            + busy.get("functions.relational.hash_bucket_aggregate", 0.0),
        "functions.relational.bucket_agg.rows_in": sum(buckets),
        "functions.relational.bucket_agg.groups_out":
            c("functions.relational.bucket_agg", "rows_out"),
        "functions.relational.bucket_agg.bucket_rows_max":
            max(buckets, default=0),
        "functions.relational.bucket_agg.bucket_rows_mean":
            sum(buckets) / len(buckets) if buckets else 0.0,
        "pipelines.kg.materialize_graph.busy_s":
            busy.get("pipelines.kg.materialize_graph", 0.0),
        "pipelines.kg.materialize_graph.files":
            c("pipelines.kg.materialize_graph", "files"),
        "pipelines.kg.materialize_graph.bytes_written":
            c("pipelines.kg.materialize_graph", "bytes_written"),
        "state.lineage.write_shard.busy_s":
            busy.get("state.lineage.write_shard", 0.0),
        "state.lineage.write_shard.count": c("state.lineage.write_shard", "count"),
        "pipelines.job.counter_rpcs":
            sum(s["counts"].get("counter_rpcs", 0) for s in spans),
        "pipelines.job.compact.busy_s": busy.get("pipelines.job.compact", 0.0),
    }


def span_table(spans: list[dict]) -> list[dict]:
    """Per span name: count, total and self seconds (for the report)."""
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        r = rows.setdefault(s["name"], {"name": s["name"], "n": 0,
                                        "total_s": 0.0, "self_s": 0.0})
        r["n"] += 1
        r["total_s"] += (s["t1"] - s["t0"]) / 1e9
        r["self_s"] += selfs[s["id"]]
    return sorted(rows.values(), key=lambda r: -r["self_s"])

