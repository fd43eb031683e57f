"""Driver-side numpy oracle for the committee retrieval of ``retrieve_cand``.

It recomputes CAND from the same member embeddings with ``knn_numpy``,
the same per-member rank (row number over distance, then query id, then
index id), the same min-rank merge across members and the same final
order (rank, distance, query id, index id), and keeps the first
``cand_size`` pairs.
"""
from __future__ import annotations

import numpy as np

from repro.index.brute import knn_numpy


def oracle_cand(
    r_rids, s_rids, r_embs_by_member, s_embs_by_member, k: int, cand_size: int
) -> set[tuple[str, str]]:
    """→ the set of (rid_r, rid_s) pairs ``retrieve_cand`` must return."""
    r_ids = np.asarray(r_rids, dtype=str)
    s_ids = np.asarray(s_rids, dtype=str)
    best: dict[tuple[str, str], tuple[int, float]] = {}
    for r_emb, s_emb in zip(r_embs_by_member, s_embs_by_member):
        idx, dist = knn_numpy(s_emb, r_emb, k)
        qid = np.repeat(s_ids, idx.shape[1])
        iid = r_ids[idx.ravel()]
        d = dist.ravel()
        order = np.lexsort((iid, qid, d))  # the last key sorts first
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(1, len(order) + 1)
        for q, i, rk, dd in zip(qid, iid, rank, d):
            key = (str(q), str(i))
            old = best.get(key)
            best[key] = (rk, dd) if old is None else (min(old[0], rk), min(old[1], dd))
    merged = sorted(best.items(), key=lambda kv: (kv[1][0], kv[1][1], kv[0][0], kv[0][1]))
    return {(i, q) for (q, i), _ in merged[: int(cand_size)]}
