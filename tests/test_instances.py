"""Instance source (S1), label encode (M5), multi-label expansion/eval
(M18/O7) tests."""

import json

import numpy as np
import pyarrow as pa
import pytest

from opennre_ray.fixtures import default_rel2id
from opennre_ray.pipelines.evalmetrics import multilabel_eval
from opennre_ray.sources.instances import (
    encode_labels,
    expand_multilabel_scores,
    flatten_instance_batch,
    read_instances_jsonl,
)


def _jsonl_rows():
    return [
        {"text": "the spark table join was fast",
         "h": {"id": "Q1", "name": "spark", "pos": [4, 9]},
         "t": {"id": "Q2", "name": "join", "pos": [16, 20]},
         "relation": "father"},
        {"token": ["slow", "hash", "stream"],
         "h": {"id": "Q3", "name": "hash", "pos": [1, 2]},
         "t": {"id": "Q4", "name": "stream", "pos": [2, 3]},
         "relation": "country"},
    ]


def test_read_instances_jsonl(ray_session, tmp_path):
    path = str(tmp_path / "inst.jsonl")
    with open(path, "w") as fh:
        for r in _jsonl_rows():
            fh.write(json.dumps(r) + "\n")
    df = read_instances_jsonl(path).to_pandas()
    assert len(df) == 2
    row0 = df.iloc[0]
    assert row0["text"] == "the spark table join was fast"
    assert not row0["is_token"]
    assert (row0["h_id"], row0["h_start"], row0["h_end"]) == ("Q1", 4, 9)
    row1 = df.iloc[1]
    assert row1["is_token"] and row1["text"] == "slow hash stream"
    assert row1["relation"] == "country"


def test_scorer_honors_token_branch():
    """A pre-tokenized instance scores identically to infer() on the token
    variant, not on the re-joined text with char offsets."""
    import numpy as np

    from opennre_ray import get_model
    from opennre_ray.stages.score import RelationScorer

    scorer = RelationScorer("wiki80_cnn_softmax")
    batch = pa.table({
        "text": ["slow hash stream"],
        "is_token": [True],
        "tokens": pa.array([["slow", "hash", "stream"]],
                           pa.list_(pa.string())),
        "h_start": pa.array([1], pa.int32()),
        "h_end": pa.array([2], pa.int32()),
        "t_start": pa.array([2], pa.int32()),
        "t_end": pa.array([3], pa.int32()),
    })
    out = scorer(batch)
    m = get_model("wiki80_cnn_softmax")
    rel, score = m.infer({"token": ["slow", "hash", "stream"],
                          "h": {"pos": (1, 2)}, "t": {"pos": (2, 3)}})
    assert out.column("pred_rel")[0].as_py() == rel
    np.testing.assert_allclose(out.column("score")[0].as_py(), score,
                               rtol=1e-6)


def test_encode_labels():
    batch = pa.table({"relation": ["NA", "father", "country"]})
    out = encode_labels(batch, default_rel2id())
    assert out.column("label").to_pylist() == [0, 1, 2]


def test_expand_multilabel_scores():
    scores = np.array([[0.9, 0.1, 0.8], [0.2, 0.7, 0.3]], dtype=np.float32)
    id2rel = {0: "NA", 1: "a", 2: "b"}
    out = expand_multilabel_scores([10, 11], scores, id2rel, na_id=0)
    df = out.to_pandas()
    assert len(df) == 4             # 2 sents × 2 non-NA relations
    got = {(r.sent_id, r.relation): round(float(r.score), 4)
           for r in df.itertuples()}
    assert got == {(10, "a"): 0.1, (11, "a"): 0.7,
                   (10, "b"): 0.8, (11, "b"): 0.3}


def test_multilabel_eval_hand_computed():
    rel2id = {"NA": 0, "a": 1, "b": 2}
    scores = np.array([[0.0, 0.9, 0.2],
                       [0.0, 0.4, 0.8],
                       [0.0, 0.6, 0.1]])
    labels = np.array([[0, 1, 0],
                       [0, 0, 1],
                       [0, 1, 0]])
    m = multilabel_eval(scores, labels, rel2id, threshold=0.5)
    # at 0.5: preds = [[1,0],[0,1],[1,0]] == labels → perfect micro
    assert m["micro_p_05"] == 1.0 and m["micro_r_05"] == 1.0
    assert m["acc"] == 1.0
    # sorted scores: .9(hit) .8(hit) .6(hit) .4 .2 .1 → max f1 at rank 3
    assert abs(m["max_micro_f1"] - 1.0) < 1e-9
    assert m["best_threshold"] == 0.6
    # prec=[1,1,1,...], rec starts at 1/3 → trapezoid area = 2/3 (same as
    # the reference's sklearn.auc over the partial curve)
    assert abs(m["auc"] - 2 / 3) < 1e-9


def test_multilabel_eval_imperfect():
    rel2id = {"NA": 0, "a": 1}
    scores = np.array([[0.0, 0.9], [0.0, 0.8]])
    labels = np.array([[0, 1], [0, 0]])
    m = multilabel_eval(scores, labels, rel2id)
    assert abs(m["micro_p_05"] - 0.5) < 1e-9
    assert m["micro_r_05"] == 1.0
    assert m["acc"] == 0.5


# ---------------------------------------------------------------------------
# Annotated multi-label ingestion (anno_relation_list/vec,
# reference data_loader.py:154-160, 425-430) — end to end
# ---------------------------------------------------------------------------

def _annotated_jsonl_rows(rel2id):
    """Two annotated rows + one plain row (mixed, like the reference's
    annotated test sets merged with regular data)."""
    n = len(rel2id)

    def vec(rels):
        v = [0] * n
        for r in rels:
            v[rel2id[r]] = 1
        return v

    rels = [r for r in rel2id if r != "NA"]
    return [
        {"token": ["the", "spark", "table", "join", "was", "fast"],
         "h": {"id": "Q1", "name": "spark", "pos": [1, 2]},
         "t": {"id": "Q2", "name": "join", "pos": [3, 4]},
         "relation": rels[0],
         "anno_relation_list": [rels[0], rels[1]],
         "anno_relation_vec": vec([rels[0], rels[1]])},
        {"token": ["slow", "hash", "stream", "window"],
         "h": {"id": "Q3", "name": "hash", "pos": [1, 2]},
         "t": {"id": "Q4", "name": "stream", "pos": [2, 3]},
         "relation": rels[2],
         "anno_relation_list": [rels[2]],
         "anno_relation_vec": vec([rels[2]])},
        {"text": "the merge sort was slow",
         "h": {"id": "Q5", "name": "merge", "pos": [4, 9]},
         "t": {"id": "Q6", "name": "sort", "pos": [10, 14]},
         "relation": rels[1]},
    ]


def _reference_multilabel_auc(score_matrix, data_rows, rel2id):
    """Slow reimplementation of the reference eval loop
    (data_loader.py:375-410): rank all (sent, non-NA rel) pairs by score,
    walk precision/recall, trapezoid AUC."""
    rows = []
    total = 0
    for sid in range(len(data_rows)):
        item = data_rows[sid]
        for rel, rid in rel2id.items():
            if rel == "NA":
                continue
            rows.append((float(score_matrix[sid][rid]), sid, rel))
            gold = (rel in item["anno_relation_list"]
                    if "anno_relation_list" in item
                    else rel == item["relation"])
            total += int(gold)
    rows.sort(key=lambda x: -x[0])
    prec, rec, correct = [], [], 0
    for i, (s, sid, rel) in enumerate(rows):
        item = data_rows[sid]
        gold = (rel in item["anno_relation_list"]
                if "anno_relation_list" in item
                else rel == item["relation"])
        correct += int(gold)
        prec.append(correct / (i + 1))
        rec.append(correct / total)
    return float(np.trapz(np.array(prec)[np.argsort(rec, kind="stable")],
                          np.sort(rec)))


def test_annotated_multilabel_end_to_end(ray_session, tmp_path):
    """Raw annotated JSONL → flatten → distributed sigmoid score matrix →
    label matrix → multilabel_eval, AUC checked against a slow
    reference-style oracle."""
    from opennre_ray.registry import get_model
    from opennre_ray.sources.instances import label_matrix_from_instances
    from opennre_ray.stages.score import score_matrix_udf

    model = get_model("wiki80_cnn_sigmoid")
    rel2id = model.rel2id
    rows = _annotated_jsonl_rows(rel2id)
    path = str(tmp_path / "anno.jsonl")
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")

    ds = read_instances_jsonl(path).map_batches(
        score_matrix_udf("wiki80_cnn_sigmoid"), batch_format="pyarrow")
    df = ds.to_pandas().sort_values("row_id").reset_index(drop=True)

    # ingestion carried the annotated fields through the whole pipeline
    assert list(df["anno_relation_list"].iloc[0]) == [
        r for r in rel2id if r != "NA"][:2]
    assert len(df["anno_relation_list"].iloc[2]) == 0   # [] == not annotated

    labels = label_matrix_from_instances(df, rel2id)
    n = len(rel2id)
    assert labels.shape == (3, n)
    assert labels[0].sum() == 2 and labels[2].sum() == 1
    # plain row one-hots its single relation
    assert labels[2][rel2id[rows[2]["relation"]]] == 1

    scores = np.stack(df["rel_scores"].to_numpy()).astype(np.float64)
    assert scores.shape == (3, n)

    m = multilabel_eval(scores, labels, rel2id)
    want_auc = _reference_multilabel_auc(scores, rows, rel2id)
    np.testing.assert_allclose(m["auc"], want_auc, rtol=1e-9)
    assert 0.0 <= m["max_micro_f1"] <= 1.0


def test_label_matrix_fallback_from_list():
    """anno_relation_vec absent → one-hot derived from anno_relation_list."""
    import pandas as pd

    from opennre_ray.sources.instances import label_matrix_from_instances

    rel2id = {"NA": 0, "a": 1, "b": 2}
    df = pd.DataFrame({
        "relation": ["a", "b"],
        "anno_relation_list": [["a", "b"], None],
    })
    got = label_matrix_from_instances(df, rel2id)
    np.testing.assert_array_equal(got, [[0, 1, 1], [0, 0, 1]])
