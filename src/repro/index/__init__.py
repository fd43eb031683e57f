"""Nearest-neighbour index substrate (the FAISS stand-in).

``brute.knn_numpy`` is exact L2 top-k with vectorized numpy — the same
semantics as FAISS ``IndexFlatL2.search`` in the paper.
``repro.core.ibc.retrieve_cand`` runs it distributed: queries are
partitioned and every committee member's (small) index matrix is
broadcast, all in one Spark job. ``kmeans`` provides k-means++ seeding
for the BADGE selector.
"""
from repro.index.brute import knn_numpy  # noqa: F401
from repro.index.kmeans import kmeans_pp_indices  # noqa: F401
