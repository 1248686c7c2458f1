"""Topic-state matrices, their CSV files, and the k-nearest-neighbor similarity.

Each node carries a length-T real topic vector; a state matrix stacks these
vectors as rows, one per node, in the network's layer-major ordering.
Document layers are built from topic vectors by k-nearest-neighbor similarity.

Topic vectors are general real vectors: no simplex normalization is enforced
anywhere, since diffusion does not preserve the simplex.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .files import write_csv

#: Weight of an edge between coincident points, whose inverse distance is
#: otherwise infinite.
DEFAULT_MAX_WEIGHT = 1e6


@dataclass(frozen=True)
class StateMatrix:
    """P x T matrix of per-node topic-state row vectors at one time point."""

    matrix: np.ndarray
    node_index: dict[tuple[int, str], int]
    timestamp: float = 0.0

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "timestamp", float(self.timestamp))
        if mat.ndim != 2 or mat.shape[1] < 1:
            raise ValidationError(f"state matrix must be 2-D with T >= 1, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValidationError("state matrix contains non-finite entries")
        if len(self.node_index) != mat.shape[0]:
            raise ValidationError(
                f"state matrix has {mat.shape[0]} rows but node index lists "
                f"{len(self.node_index)} nodes"
            )

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_topics(self) -> int:
        return self.matrix.shape[1]


def knn_similarity(doc_states, k: int) -> np.ndarray:
    """Symmetrized k-nearest-neighbor graph with inverse-distance weights.

    Neighbors are chosen by Euclidean distance with ties broken in favor of
    the lower node index; an edge exists when either endpoint selects the
    other, and carries weight 1/dist (capped for coincident points).
    """
    points = np.asarray(doc_states, dtype=float)
    if points.ndim != 2:
        raise ValidationError("topic vectors must form a 2-D matrix")
    if not np.isfinite(points).all():
        raise ValidationError("non-finite distances: topic vectors contain non-finite entries")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    if not np.isfinite(dist).all():
        raise ValidationError("non-finite distances between topic vectors")
    n = dist.shape[0]
    k = int(k)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k >= n:
        raise ValidationError(f"k={k} must be smaller than the number of points {n}")
    out = np.zeros((n, n))
    indices = np.arange(n)
    for i in range(n):
        order = np.lexsort((indices, dist[i]))
        neighbors = [j for j in order if j != i][:k]
        for j in neighbors:
            w = min(1.0 / dist[i, j], DEFAULT_MAX_WEIGHT) if dist[i, j] else DEFAULT_MAX_WEIGHT
            out[i, j] = max(out[i, j], w)
    return np.maximum(out, out.T)


# --- CSV state files ----------------------------------------------------------
#
# Header: node_id,t,x_1,...,x_T.  The node_id column holds the composite label
# "<layer_id>:<node_id>" so replicas of the same node in different layers stay
# distinct.  Rows for multiple time points may share one file (long format).


def node_label(key: tuple[int, str]) -> str:
    return f"{key[0]}:{key[1]}"


def _fmt(x) -> str:
    return repr(float(x))


def write_states_csv(path, snapshots: Iterable[StateMatrix], node_order: Sequence[tuple[int, str]]):
    snapshots = sorted(snapshots, key=lambda s: s.timestamp)
    n_topics = snapshots[0].n_topics if snapshots else 0
    write_csv(
        path,
        ["node_id", "t"] + [f"x_{j + 1}" for j in range(n_topics)],
        (
            [node_label(key), _fmt(snap.timestamp)]
            + [_fmt(v) for v in snap.matrix[snap.node_index[key]]]
            for snap in snapshots
            for key in node_order
        ),
    )


def read_states_csv(path, network) -> list[StateMatrix]:
    """Read a long-format state file into per-time-point state matrices."""
    index = {node_label(key): i for key, i in network.node_index.items()}
    by_time: dict[float, np.ndarray] = {}
    seen: dict[float, int] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "node_id" or header[1] != "t":
            raise ValidationError(f"state file {path} must start with header node_id,t,x_1,...")
        n_topics = len(header) - 2
        if n_topics < 1:
            raise ValidationError(f"state file {path} has no topic columns")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_topics + 2:
                raise ValidationError(f"{path}:{line}: expected {n_topics + 2} fields")
            label = row[0]
            try:
                t, values = float(row[1]), [float(v) for v in row[2:]]
            except ValueError:
                raise ValidationError(f"{path}:{line}: non-numeric field in {row!r}") from None
            if label not in index:
                raise ValidationError(f"{path}:{line}: unknown node {label!r}")
            if t not in by_time:
                by_time[t] = np.full((network.n_nodes, n_topics), np.nan)
                seen[t] = 0
            by_time[t][index[label]] = values
            seen[t] += 1
    snapshots = []
    for t in sorted(by_time):
        if seen[t] != network.n_nodes or np.isnan(by_time[t]).any():
            raise ValidationError(f"state file {path} is missing nodes at t={t}")
        snapshots.append(
            StateMatrix(matrix=by_time[t], node_index=dict(network.node_index), timestamp=t)
        )
    if not snapshots:
        raise ValidationError(f"state file {path} contains no snapshots")
    return snapshots
