"""Topic-state matrices, their CSV files, and the k-nearest-neighbor similarity.

Each node carries a length-T real topic vector; a state matrix stacks these
vectors as rows, one per node, in the network's layer-major ordering.
Document layers are built from topic vectors by k-nearest-neighbor similarity.

Topic vectors are general real vectors: no simplex normalization is enforced
anywhere, since diffusion does not preserve the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

from .errors import ValidationError
from .files import csv_floats, read_csv, write_csv
from .network import _csr_from_triplets

#: Weight of an edge between coincident points, whose inverse distance is
#: otherwise infinite.
DEFAULT_MAX_WEIGHT = 1e6
#: Bytes of the difference array that ``knn_similarity`` forms for one block of rows.
KNN_BLOCK_BYTES = 1 << 21


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


def knn_similarity(doc_states, k: int) -> scipy.sparse.csr_array:
    """Symmetrized k-nearest-neighbor graph with inverse-distance weights, as
    canonical read-only CSR.

    Neighbors are chosen by Euclidean distance with ties broken in favor of
    the lower node index; an edge exists when either endpoint selects the
    other, and carries weight 1/dist (capped for coincident points).
    Distances are formed a block of rows at a time, each block's n x T
    difference array within ``KNN_BLOCK_BYTES``, so memory grows with n k,
    not n^2.  Each row's k-th distance comes from a partial selection; the
    entries at or below it, sorted by (distance, column), give the first k.
    """
    points = np.asarray(doc_states, dtype=float)
    if points.ndim != 2:
        raise ValidationError("topic vectors must form a 2-D matrix")
    if not np.isfinite(points).all():
        raise ValidationError("non-finite distances: topic vectors contain non-finite entries")
    n = points.shape[0]
    k = int(k)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k >= n:
        raise ValidationError(f"k={k} must be smaller than the number of points {n}")
    block = max(1, KNN_BLOCK_BYTES // max(1, n * points.shape[1] * points.itemsize))
    neighbors = np.empty((n, k), dtype=np.intp)
    distances = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(n, start + block)
        # diff[i, j] = points[start + i] - points[j], by a tiled copy of the
        # block's rows: a broadcast subtraction over a T-long last axis is slower.
        diff = np.tile(points[start:stop], (1, n)).reshape(stop - start, n, points.shape[1])
        diff -= points
        dist = np.sqrt((diff * diff).sum(axis=-1))
        if not np.isfinite(dist).all():
            raise ValidationError("non-finite distances between topic vectors")
        local = np.arange(stop - start)
        dist[local, local + start] = np.inf  # each point sorts after all the others
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        row, col = np.nonzero(dist <= kth)  # row-major: columns ascend in each row
        near = dist[row, col]
        order = np.lexsort((near, row))  # stable: ties keep the lower column first
        first = np.flatnonzero(np.diff(row, prepend=-1))
        take = order[(first[:, None] + np.arange(k)).ravel()]
        neighbors[start:stop] = col[take].reshape(-1, k)
        distances[start:stop] = near[take].reshape(-1, k)
    with np.errstate(divide="ignore"):
        weights = np.minimum(1.0 / distances.ravel(), DEFAULT_MAX_WEIGHT)
    # Distances are exactly symmetric, so a pair that both endpoints select
    # carries one weight; each (row, col) of the union is kept once.
    picker = np.repeat(np.arange(n), k)
    rows = np.concatenate([picker, neighbors.ravel()])
    cols = np.concatenate([neighbors.ravel(), picker])
    _, once = np.unique(rows * n + cols, return_index=True)
    return _csr_from_triplets([rows[once]], [cols[once]], [np.tile(weights, 2)[once]], n)


# --- CSV state files ----------------------------------------------------------
#
# Header: node_id,t,x_1,...,x_T.  The node_id column holds the composite label
# "<layer_id>:<node_id>" so replicas of the same node in different layers stay
# distinct.  Rows for multiple time points may share one file (long format).


def node_label(key: tuple[int, str]) -> str:
    return f"{key[0]}:{key[1]}"


def write_states_csv(path, snapshots: Iterable[StateMatrix], node_order: Sequence[tuple[int, str]]):
    snapshots = sorted(snapshots, key=lambda s: s.timestamp)
    n_topics = snapshots[0].n_topics if snapshots else 0
    labels = [node_label(key) for key in node_order]
    write_csv(
        path,
        ["node_id", "t"] + [f"x_{j + 1}" for j in range(n_topics)],
        (
            [label, snap.timestamp, *values]
            for snap in snapshots
            for label, values in zip(
                labels, snap.matrix[[snap.node_index[key] for key in node_order]].tolist()
            )
        ),
    )


def read_states_csv(path, network) -> list[StateMatrix]:
    """Read a long-format state file into per-time-point state matrices."""
    header, rows = read_csv(path, "state file")
    if header[:2] != ["node_id", "t"] or len(header) < 3:
        raise ValidationError(f"state file {path} must start with header node_id,t,x_1,...")
    lines, labels, numbers = csv_floats(path, rows, len(header), labelled=True)
    index = {node_label(key): i for key, i in network.node_index.items()}
    # Each time's row of each node, by position: {t: {node: row}}.
    at_time: dict[float, dict[int, int]] = {}
    for k, (line, label, t) in enumerate(zip(lines, labels, numbers[:, 0].tolist())):
        node = index.get(label)
        if node is None:
            raise ValidationError(f"{path}:{line}: unknown node {label!r}")
        if at_time.setdefault(t, {}).setdefault(node, k) != k:
            raise ValidationError(f"{path}:{line}: node {label!r} is given twice at t={t}")
    snapshots = []
    for t in sorted(at_time):
        row_of = at_time[t]
        if len(row_of) != network.n_nodes:
            raise ValidationError(f"state file {path} is missing nodes at t={t}")
        matrix = np.empty((network.n_nodes, len(header) - 2))
        matrix[list(row_of)] = numbers[list(row_of.values()), 1:]
        snapshots.append(
            StateMatrix(matrix=matrix, node_index=dict(network.node_index), timestamp=t)
        )
    if not snapshots:
        raise ValidationError(f"state file {path} contains no snapshots")
    return snapshots
