"""Lineage, per-partition manifests, and checkpoint/resume.

North-star requirements: every output partition carries lineage metadata
(input file, byte/row range, model hash) and per-stage counters, with
checkpoint manifests enabling exact resume mid-corpus. The reference has no
data-plane resume at all (only best-model checkpoints,
``framework/sentence_re.py:134-139``) — this module is new engineering.

Design (batch-pipeline resume, SURVEY §4):
- the corpus is processed as named shards (one input file / key range each);
- every output directory — each ``<out>/shard=<name>/`` and the jobs'
  compacted outputs — goes through ``publish``: written to a tmp dir,
  fsynced, renamed into place; a shard also carries a ``manifest.json``
  (written last) recording input path, row count, stage counters, model
  hash, extractor version;
- a restart lists completed manifests and skips those shards — exactly-once
  output without any coordination service.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow.parquet as pq


class ShardManifest:
    def __init__(self, shard: str, input_path: str, model_hash: str = "",
                 extractor_version: str = "", counters: dict | None = None):
        self.data = {
            "shard": shard,
            "input_path": input_path,
            "model_hash": model_hash,
            "extractor_version": extractor_version,
            "counters": counters or {},
            "completed_at": None,
        }

    def to_json(self) -> str:
        return json.dumps(self.data, indent=1, sort_keys=True)


def shard_dir(out_root: str, shard: str) -> str:
    return os.path.join(out_root, f"shard={shard}")


def is_shard_complete(out_root: str, shard: str) -> bool:
    return os.path.exists(os.path.join(shard_dir(out_root, shard),
                                       "manifest.json"))


def completed_shards(out_root: str) -> list[str]:
    if not os.path.isdir(out_root):
        return []
    out = []
    for name in sorted(os.listdir(out_root)):
        if name.startswith("shard=") and os.path.exists(
                os.path.join(out_root, name, "manifest.json")):
            out.append(name[len("shard="):])
    return out


def _fsync(path: str):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(out_root: str, name: str, write) -> str:
    """Atomically replace ``<out_root>/<name>`` with what ``write(tmp)``
    puts into a fresh directory; returns the published path.

    Every file ``write`` left in ``tmp`` and ``tmp`` itself are fsynced
    before the rename, so a crash after it can never expose a
    complete-looking directory with truncated contents. The previous
    output is renamed aside, not deleted, before ``tmp`` takes its place;
    a crash between the two renames leaves no ``<name>`` at all, and
    callers recover by rerunning: a shard without its manifest is redone
    on resume, and compaction rebuilds from the candidate shards.
    ``_tmp-<name>-<pid>`` / ``_old-<name>-<pid>`` dirs that crashed runs
    left behind (under any pid) are swept first.
    """
    os.makedirs(out_root, exist_ok=True)
    for entry in os.listdir(out_root):
        for prefix in (f"_tmp-{name}-", f"_old-{name}-"):
            if entry.startswith(prefix) and entry[len(prefix):].isdigit():
                shutil.rmtree(os.path.join(out_root, entry),
                              ignore_errors=True)
    final = os.path.join(out_root, name)
    tmp = os.path.join(out_root, f"_tmp-{name}-{os.getpid()}")
    old = os.path.join(out_root, f"_old-{name}-{os.getpid()}")
    os.makedirs(tmp)
    write(tmp)
    for dirpath, _, files in os.walk(tmp, topdown=False):
        for f in files:
            _fsync(os.path.join(dirpath, f))
        _fsync(dirpath)
    if os.path.exists(final):
        os.rename(final, old)
    os.rename(tmp, final)
    _fsync(out_root)
    shutil.rmtree(old, ignore_errors=True)
    return final


def write_shard(ds, out_root: str, shard: str, manifest):
    """Atomically write one shard's Dataset + manifest; idempotent.

    If the shard is already complete this is a no-op (resume path).
    ``manifest`` may be a ShardManifest or a zero-arg callable returning one
    — callables are invoked AFTER the data is written, so manifests can
    snapshot post-execution state (stage counters). A part file whose
    footer cannot be read fails the shard: nothing is published, so the
    next run redoes it.
    """
    if is_shard_complete(out_root, shard):
        return False

    def write(tmp):
        ds.write_parquet(tmp)
        m = manifest() if callable(manifest) else manifest
        m.data["completed_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                               time.gmtime())
        parts = [f for f in os.listdir(tmp) if f.endswith(".parquet")]
        m.data["num_files"] = len(parts)
        m.data["num_rows"] = sum(
            pq.ParquetFile(os.path.join(tmp, f)).metadata.num_rows
            for f in parts)
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            fh.write(m.to_json())

    publish(out_root, f"shard={shard}", write)
    return True


def run_sharded(shards: dict[str, "callable"], out_root: str,
                make_manifest) -> dict:
    """Resume-aware driver loop: process only incomplete shards.

    Args:
        shards: {shard_name: fn() -> Dataset} lazily-built per-shard pipelines.
        make_manifest: fn(shard_name) -> ShardManifest (called after the
            shard's data is written — may snapshot execution counters).
    Returns summary {completed, skipped}.
    """
    os.makedirs(out_root, exist_ok=True)
    skipped, completed = [], []
    for name, build in shards.items():
        if is_shard_complete(out_root, name):
            skipped.append(name)
            continue
        write_shard(build(), out_root, name,
                    lambda name=name: make_manifest(name))
        completed.append(name)
    return {"completed": completed, "skipped": skipped}
