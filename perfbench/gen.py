"""Seeded input generators. The library only ever sees the parquet files
these write; the same seed always gives byte-identical tables.

Documents (``kg_build``, ``kg_job``) copy the shape of the repository's
synthetic ``documents`` test tables, measured on the 5,000-row table:
word count uniform on 10..100, words uniform over the 30-word corpus
vocabulary (the rare word ``dup`` at 0.1%), ``en`` on 41% of rows and the
other four languages sharing the rest, 20 round-robin sources. Generating
instead of reading the test tables keeps the benchmark inside its own
checkout and lets every seed draw a fresh corpus of the same statistics.

Candidates (``kg_finalize``) follow ``pipelines.kg.CANDIDATE_COLUMNS`` and
are built so that every branch of the wide tail has work; see
``candidates`` for the parameters and why each was chosen.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_LANGS = ["en", "de", "es", "fr", "zh"]
_LANG_P = [0.41, 0.1475, 0.1475, 0.1475, 0.1475]
_N_SOURCES = 20


def documents(n_docs: int, seed) -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars) with ``n_docs`` rows.
    ``seed`` is anything ``numpy.random.default_rng`` takes."""
    from opennre_ray.fixtures import CORPUS_WORDS

    rng = np.random.default_rng(seed)
    common = np.array([w for w in CORPUS_WORDS if w != "dup"])
    p = np.full(len(common) + 1, 0.999 / len(common))
    p[-1] = 0.001
    vocab = np.append(common, "dup")
    lens = rng.integers(10, 101, n_docs)
    texts = [" ".join(rng.choice(vocab, int(n), p=p)) for n in lens]
    return document_table(texts, rng.choice(_LANGS, n_docs, p=_LANG_P).tolist())


def document_table(texts: list[str], langs: list[str]) -> pa.Table:
    """The documents table of ``texts``: ids 0.., round-robin sources."""
    doc_ids = np.arange(len(texts), dtype=np.int64)
    return pa.table({
        "doc_id": doc_ids,
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array([f"src{d % _N_SOURCES}" for d in doc_ids],
                           pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def write_documents(table: pa.Table, sf_dir: str) -> str:
    """Write ``table`` as ``<sf_dir>/documents.parquet`` (one row group,
    the layout ``sources.pages.shard_documents`` expects)."""
    os.makedirs(sf_dir, exist_ok=True)
    path = os.path.join(sf_dir, "documents.parquet")
    pq.write_table(table, path)
    return path


#: Zipf exponent of entity popularity. Mention counts on the web fall off
#: roughly as 1/rank; 1.1 puts ~1/7 of all mentions on the head entity at
#: 5k entities, so one hash bucket runs hot (bucket_rows_max well above the
#: mean) while the table is still far from a single key.
ENTITY_ZIPF = 1.1
#: Zipf exponent over the fact pool: popular facts are restated on many
#: pages, so dedup folds real duplicates (n_evidence up to the hundreds)
#: while the long tail keeps most triples at one or two rows.
FACT_ZIPF = 0.8
#: distinct facts per candidate row before canonicalization
FACTS_PER_ROW = 0.25
#: share of mentions whose surface is upper-cased / has its whitespace
#: doubled and padded / has its vowels accented. These are exactly the
#: three foldings ``stages.ner.normalize_surface`` applies, so each variant
#: must land on its entity's one canonical key.
VARIANT_P = (0.1, 0.1, 0.1)
#: share of mentions carrying a neighbouring entity's id: linker noise the
#: per-surface argmax has to outvote. Rare entities seen once or twice end
#: in ties, which exercises the smaller-id tie rule.
CONFLICT_P = 0.1
#: candidate rows per source page (kg_build yields ~20 scored pairs per
#: page before the filter; 10 keeps the url column's cardinality at
#: rows/10 for the ``sample_url`` min)
ROWS_PER_PAGE = 10

_SYLLABLES = ["ka", "re", "mo", "si", "lu", "de", "na", "to", "be", "ri",
              "va", "go"]
_ACCENTS = str.maketrans({"a": "á", "e": "é", "o": "ö"})


def entity_surface(k: int) -> str:
    """Canonical two-word surface of entity ``k``: a bijective base-12
    syllable spelling, split after its first half, so distinct entities
    never share a normalized surface."""
    syl, n = [], k + 1
    while n:
        n, r = divmod(n, len(_SYLLABLES))
        syl.append(_SYLLABLES[r])
    cut = (len(syl) + 1) // 2
    return "".join(syl[:cut]) + " " + "".join(syl[cut:]) if len(syl) > 1 \
        else syl[0]


def entity_qid(k: int) -> str:
    """Zero-padded ids, so string order (the library's tie rule) is
    numeric order."""
    return f"Q{k:07d}"


def candidates(n_rows: int, n_entities: int, seed: int) -> pa.Table:
    """Filtered candidate rows with the ``CANDIDATE_COLUMNS`` schema."""
    from opennre_ray.fixtures import RELATIONS, page_url
    from opennre_ray.pipelines.kg import SCORE_THRESHOLD

    rng = np.random.default_rng(seed)
    p_ent = 1.0 / np.arange(1, n_entities + 1) ** ENTITY_ZIPF
    p_ent /= p_ent.sum()
    n_facts = max(1, int(n_rows * FACTS_PER_ROW))
    fact_h = rng.choice(n_entities, n_facts, p=p_ent)
    fact_t = rng.choice(n_entities, n_facts, p=p_ent)
    fact_r = rng.integers(1, len(RELATIONS), n_facts)
    p_fact = 1.0 / np.arange(1, n_facts + 1) ** FACT_ZIPF
    p_fact /= p_fact.sum()
    pick = rng.choice(n_facts, n_rows, p=p_fact)
    surfaces = [entity_surface(k) for k in range(n_entities)]
    upper, spaced, accented = np.cumsum(VARIANT_P)

    def mention_names(ents):
        draw = rng.random(len(ents))
        out = []
        for e, r in zip(ents.tolist(), draw.tolist()):
            s = surfaces[e]
            if r < upper:
                s = s.upper()
            elif r < spaced:
                s = " " + s.replace(" ", "  ") + " "
            elif r < accented:
                s = s.translate(_ACCENTS)
            out.append(s)
        return out

    def mention_ids(ents):
        wrong = rng.random(len(ents)) < CONFLICT_P
        ids = np.where(wrong, (ents + 1) % n_entities, ents)
        return [entity_qid(k) for k in ids.tolist()]

    h, t = fact_h[pick], fact_t[pick]
    pages = rng.integers(0, max(1, n_rows // ROWS_PER_PAGE), n_rows)
    return pa.table({
        "h_id": pa.array(mention_ids(h), pa.string()),
        "h_name": pa.array(mention_names(h), pa.string()),
        "t_id": pa.array(mention_ids(t), pa.string()),
        "t_name": pa.array(mention_names(t), pa.string()),
        "pred_rel": pa.array([RELATIONS[r] for r in fact_r[pick].tolist()],
                             pa.string()),
        "score": pa.array(rng.uniform(SCORE_THRESHOLD, 1.0, n_rows)
                          .astype(np.float32), pa.float32()),
        "url": pa.array([page_url(f"src{p % _N_SOURCES}", p)
                         for p in pages.tolist()], pa.string()),
        "model_hash": pa.array(["bench-candidates"] * n_rows, pa.string()),
    })


def write_candidates(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Split ``table`` into ``n_files`` parquet files (the layout
    ``compact_candidates`` reads: one file per shard)."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    paths = []
    for i in range(n_files):
        path = os.path.join(out_dir, f"cand-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), path)
        paths.append(path)
    return paths
