"""Lineage, per-partition manifests, and checkpoint/resume.

North-star requirements: every output partition carries lineage metadata
(input file and its fingerprint, model hash, the settings that shaped the
rows) and per-stage counters, with checkpoint manifests enabling exact
resume mid-corpus. The reference has no data-plane resume at all (only
best-model checkpoints, ``framework/sentence_re.py:134-139``) — this
module is new engineering.

Crash contract (batch-pipeline resume, SURVEY §4):
- the corpus is processed as named shards (one input file each);
- every output directory — each ``<out>/shard=<name>/`` and the jobs'
  compacted outputs — goes through ``publish``: written to a tmp dir,
  fsynced, renamed into place. A shard's ``manifest.json`` (written last,
  inside the same tmp dir) records its lineage, row count and stage
  counters, so a shard is either published with its manifest or absent;
  part files staged for a shard that never published are not in it;
- a restart redoes every shard whose manifest is missing or records
  different lineage than the current run (``is_shard_complete``) and skips
  the rest — exactly-once output without any coordination service.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pyarrow.parquet as pq


def input_fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns}


def shard_dir(out_root: str, shard: str) -> str:
    return os.path.join(out_root, f"shard={shard}")


def is_shard_complete(out_root: str, shard: str, lineage: dict) -> bool:
    """True when the shard's manifest exists and records every item of
    ``lineage`` unchanged; a shard built from another input or with other
    settings is incomplete for this run."""
    try:
        with open(os.path.join(shard_dir(out_root, shard),
                               "manifest.json")) as fh:
            m = json.load(fh)
    except FileNotFoundError:
        return False
    return all(m.get(k) == v for k, v in lineage.items())


def _fsync(path: str):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _sweep(out_root: str, prefixes):
    """Remove ``<prefix><pid>`` dirs that crashed runs left, under any pid."""
    for entry in os.listdir(out_root):
        for prefix in prefixes:
            if entry.startswith(prefix) and entry[len(prefix):].isdigit():
                shutil.rmtree(os.path.join(out_root, entry),
                              ignore_errors=True)


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
    _sweep(out_root, (f"_tmp-{name}-", f"_old-{name}-"))
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


def staging_dir(out_root: str) -> str:
    """A fresh ``<out_root>/_stage-<pid>/`` for part files that are not
    yet published; the staging dirs crashed runs left (any pid) are swept
    first, by the same rule ``publish`` applies to its tmp dirs. Parts are
    moved out of it by ``write_shard`` (same filesystem, so a rename)."""
    os.makedirs(out_root, exist_ok=True)
    _sweep(out_root, ("_stage-",))
    path = os.path.join(out_root, f"_stage-{os.getpid()}")
    os.makedirs(path)
    return path


def write_shard(parts: list[str], out_root: str, shard: str,
                manifest: dict) -> str:
    """Atomically publish one shard: its staged ``parts`` (moved, not
    copied) plus its ``manifest.json``, the one definition of the shard
    manifest: ``manifest`` (the shard's lineage — everything that decides
    its rows, which resume compares item by item — and its stage
    ``counters``), its name, its completion time, and the file and row
    counts read back from the part footers. A shard with no parts
    publishes ``num_rows: 0``. A part file whose footer cannot be read
    fails the shard: nothing is published, so the next run redoes it.
    """
    def write(tmp):
        for p in parts:
            os.rename(p, os.path.join(tmp, os.path.basename(p)))
        names = [os.path.basename(p) for p in parts]
        data = {**manifest, "shard": shard,
                "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                              time.gmtime()),
                "num_files": len(names),
                "num_rows": sum(
                    pq.ParquetFile(os.path.join(tmp, f)).metadata.num_rows
                    for f in names)}
        with open(os.path.join(tmp, "manifest.json"), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)

    return publish(out_root, f"shard={shard}", write)
