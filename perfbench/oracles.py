"""Output oracles: single-process answers the Ray pipelines must reproduce.

None of these touch Ray. Each returns what the matching workload's output
must equal, plus the work counts the throughput metrics divide by.
"""

from __future__ import annotations

from collections import Counter

import pandas as pd
import pyarrow as pa


def sequential_triples(docs: pa.Table, model_name: str | None = None,
                       threshold: float | None = None) -> dict:
    """kg_build / kg_job oracle: the sequential reference run of
    ``tests/test_pipeline_kg.py::sequential_oracle`` over an in-memory
    documents table (html render → extract → sentences → gazetteer →
    per-pair ``model.infer`` → filter → per-surface argmax → triple set).

    Returns {triples: set[(subj, pred, obj)], pages, candidates,
    candidates_per_doc, kept, kept_per_doc}.
    """
    from opennre_ray import get_model
    from opennre_ray.fixtures import default_alias_table, page_url, render_html
    from opennre_ray.pipelines.kg import DEFAULT_MODEL, SCORE_THRESHOLD
    from opennre_ray.stages.extract import extract_text
    from opennre_ray.stages.ner import (AliasMatcher, normalize_surface,
                                        split_sentences)
    from opennre_ray.stages.pairs import MAX_GAP, MAX_PAIRS_PER_SENT

    model = get_model(model_name or DEFAULT_MODEL)
    threshold = SCORE_THRESHOLD if threshold is None else threshold
    matcher = AliasMatcher(default_alias_table())
    per_doc, kept_per_doc = [], []
    kept = []
    for doc_id, text, source in zip(docs.column("doc_id").to_pylist(),
                                    docs.column("text").to_pylist(),
                                    docs.column("source").to_pylist()):
        url = page_url(source, doc_id)
        per_doc.append(0)
        kept_per_doc.append(0)
        extracted = extract_text(render_html(doc_id, text))
        if extracted != text:
            raise ValueError(f"extraction changed doc {doc_id}")
        for _, sent in split_sentences(extracted):
            mentions = matcher.find(sent)
            emitted = 0
            for i in range(len(mentions)):
                if emitted >= MAX_PAIRS_PER_SENT:
                    break
                for j in range(i + 1, min(i + 1 + MAX_GAP, len(mentions))):
                    mi, mj = mentions[i], mentions[j]
                    if mi[3] == mj[3]:
                        continue
                    rel, score = model.infer({
                        "text": sent,
                        "h": {"pos": (mi[0], mi[1])},
                        "t": {"pos": (mj[0], mj[1])}})
                    per_doc[-1] += 1
                    if rel != "NA" and score >= threshold:
                        kept.append((url, mi[2], mi[3], mj[2], mj[3], rel))
                        kept_per_doc[-1] += 1
                    emitted += 1
                    if emitted >= MAX_PAIRS_PER_SENT:
                        break
    counts = Counter()
    for _, sh, hid, st, tid, _ in kept:
        counts[(normalize_surface(sh), hid)] += 1
        counts[(normalize_surface(st), tid)] += 1
    best = {}
    for (surf, eid), n in counts.items():
        cur = best.get(surf)
        if cur is None or n > cur[0] or (n == cur[0] and eid < cur[1]):
            best[surf] = (n, eid)
    canon = {s: e for s, (_, e) in best.items()}
    triples = {(canon.get(normalize_surface(sh), hid), rel,
                canon.get(normalize_surface(st), tid))
               for _, sh, hid, st, tid, rel in kept}
    return {"triples": triples, "pages": docs.num_rows,
            "candidates": sum(per_doc), "candidates_per_doc": per_doc,
            "kept": len(kept), "kept_per_doc": kept_per_doc}


def finalize_frame(cands: pa.Table) -> pd.DataFrame:
    """kg_finalize oracle in plain pandas: per normalized surface the most
    frequent id over both mention slots (ties → smaller id), ids rewritten
    through that map, then one row per distinct (subj, pred, obj) with its
    evidence count and max score. Sorted by (subj, pred, obj)."""
    from opennre_ray.stages.ner import normalize_surface

    df = cands.to_pandas()
    names = pd.concat([df["h_name"], df["t_name"]], ignore_index=True)
    ids = pd.concat([df["h_id"], df["t_id"]], ignore_index=True)
    lut = {n: normalize_surface(n) for n in names.unique()}
    mentions = pd.DataFrame({"surface": names.map(lut), "eid": ids})
    counts = mentions.groupby(["surface", "eid"]).size().reset_index(name="n")
    counts = counts.sort_values(["surface", "n", "eid"],
                                ascending=[True, False, True])
    canon = dict(counts.drop_duplicates("surface")[["surface", "eid"]]
                 .itertuples(index=False, name=None))
    out = pd.DataFrame({
        "subj": df["h_name"].map(lut).map(canon),
        "pred": df["pred_rel"],
        "obj": df["t_name"].map(lut).map(canon),
        "score": df["score"],
    })
    return (out.groupby(["subj", "pred", "obj"], as_index=False)
            .agg(n_evidence=("score", "size"), score=("score", "max"))
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True))


def check_graph_dir(graph_dir: str, manifest: dict | None = None) -> pd.DataFrame:
    """Read a ``materialize_graph`` output; raise if it is not subj-sorted
    or its manifest disagrees with the files on disk. Returns the rows."""
    import json
    import os

    import pyarrow.parquet as pq

    files = sorted(f for f in os.listdir(graph_dir) if f.endswith(".parquet"))
    mpath = os.path.join(graph_dir, "_manifest.json")
    if manifest is None and not files and not os.path.exists(mpath):
        # compact_candidates publishes an empty directory when no shard
        # kept a candidate
        manifest = {"files": [], "num_files": 0}
    elif manifest is None:
        with open(mpath) as fh:
            manifest = json.load(fh)
    if manifest["files"] != files or manifest["num_files"] != len(files):
        raise ValueError(f"manifest lists {manifest['files']}, disk has {files}")
    df = pq.read_table(graph_dir).to_pandas() if files else pd.DataFrame(
        columns=["subj", "pred", "obj", "n_evidence", "score"])
    subj = df["subj"].tolist()
    if subj != sorted(subj):
        raise ValueError("graph rows are not sorted by subj")
    return df


def triple_mismatch(got: set, want: set) -> str | None:
    """None when the sets are equal (P = R = 1.0), else a short diff."""
    if got == want:
        return None
    return (f"{len(got - want)} extra, {len(want - got)} missing of "
            f"{len(want)} (e.g. {sorted(got ^ want)[:2]})")


def finalize_mismatch(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """None when the graph rows equal the pandas oracle on the triple set,
    ``n_evidence`` and max ``score``."""
    cols = ["subj", "pred", "obj"]
    got = got.sort_values(cols).reset_index(drop=True)
    if len(got) != len(want):
        return f"{len(got)} triples, oracle has {len(want)}"
    if not got[cols].equals(want[cols]):
        return "triple set differs from the oracle"
    if not (got["n_evidence"].astype("int64").to_numpy()
            == want["n_evidence"].astype("int64").to_numpy()).all():
        return "n_evidence differs from the oracle"
    if not (got["score"].astype("float32").to_numpy()
            == want["score"].astype("float32").to_numpy()).all():
        return "max score differs from the oracle"
    return None
