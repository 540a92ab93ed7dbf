"""Incremental Wi-Fi clusters over keyframe signatures.

A cluster stands in for a spatially separate region: it keeps the signature
it was created with (frozen forever) and the keyframes assigned to it. A new
keyframe joins an existing cluster only when that cluster is similar to the
keyframe's signature AND the keyframe gained a graph edge into one of the
cluster's members this step; otherwise it seeds a new cluster.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .signature import Signature, cosine_similarity


class DuplicateAssignment(ValueError):
    """A keyframe was assigned to a cluster twice."""


@dataclass
class Cluster:
    id: int
    representative: Signature  # frozen at creation, never updated
    members: list[int] = field(default_factory=list)


class ClusterStore:
    """Ordered clusters plus a keyframe -> cluster index; single writer.

    It also keeps, per signature it has been queried with, that signature's similarity to
    each cluster's representative in cluster id order. Representatives are frozen and
    clusters only appended, so a query scores only the clusters made since its signature's
    last one. The row holds the signature itself, so its ``id`` is not reused while the
    store lives.
    """

    def __init__(self) -> None:
        self.clusters: list[Cluster] = []
        self._cluster_of: dict[int, int] = {}
        self._rows: dict[int, tuple[Signature, array]] = {}  # id(signature) -> (signature, similarities)

    def __len__(self) -> int:
        return len(self.clusters)

    def cluster_of(self, keyframe_id: int) -> int | None:
        return self._cluster_of.get(keyframe_id)

    def _new_cluster(self, representative: Signature) -> Cluster:
        c = Cluster(id=len(self.clusters), representative=representative)
        self.clusters.append(c)
        return c

    def _add_member(self, cluster_id: int, keyframe_id: int) -> None:
        if keyframe_id in self._cluster_of:
            raise DuplicateAssignment(f"keyframe {keyframe_id} already assigned")
        self.clusters[cluster_id].members.append(keyframe_id)
        self._cluster_of[keyframe_id] = cluster_id

    def _similarities(self, sig: Signature) -> array:
        """sig's `cosine_similarity` to every cluster's representative, in cluster id order."""
        row = self._rows.get(id(sig))
        if row is None:
            row = self._rows[id(sig)] = (sig, array("d"))
        scores = row[1]
        scores.extend(cosine_similarity(sig, c.representative) for c in self.clusters[len(scores):])
        return scores


def similar_clusters(store: ClusterStore, sig: Signature, threshold: float) -> tuple[tuple[int, float], ...]:
    """The (cluster id, similarity) pairs of every cluster whose representative scores >= threshold
    against sig, by descending score, ties by ascending id."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    scored = [(cid, s) for cid, s in enumerate(store._similarities(sig)) if s >= threshold]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return tuple(scored)


def assign(
    store: ClusterStore,
    keyframe_id: int,
    sig: Signature,
    edges_gained: Iterable[int],
    similar: Sequence[tuple[int, float]],
) -> None:
    """Assign a keyframe to a cluster, creating one if no similar cluster is linked.

    The keyframe joins the highest-similarity cluster of ``similar`` (the
    pairs `similar_clusters` returns) containing one of its new edge neighbors
    (ties break to the lowest cluster id, which the sort order of ``similar``
    already provides). Without such a cluster a new one is created with
    ``sig`` as its frozen representative.
    """
    if store.cluster_of(keyframe_id) is not None:
        raise DuplicateAssignment(f"keyframe {keyframe_id} already assigned")
    neighbor_clusters = {store.cluster_of(n) for n in edges_gained}
    neighbor_clusters.discard(None)
    cid = next((cid for cid, _score in similar if cid in neighbor_clusters), None)
    if cid is None:
        cid = store._new_cluster(sig).id
    store._add_member(cid, keyframe_id)


def members_of(store: ClusterStore, similar: Sequence[tuple[int, float]]) -> list[int]:
    """Member keyframes of the listed (disjoint) clusters, score order then insertion order."""
    out: list[int] = []
    for cid, _ in similar:
        out.extend(store.clusters[cid].members)
    return out


def write_cluster_dump(store: ClusterStore, jsonl_path: str | Path) -> None:
    """Dump each cluster's id and frozen representative as one JSONL line, in cluster id order."""
    with open(jsonl_path, "w") as fh:
        for c in store.clusters:
            rec = {
                "cluster_id": c.id,
                "collected_at": c.representative.collected_at,
                "pause_index": c.representative.pause_index,
                "entries": dict(c.representative.entries),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

