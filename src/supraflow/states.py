"""Topic-state matrices, agent-state initialization, and similarity networks.

Each node carries a length-T real topic vector; a state matrix stacks these
vectors as rows, one per node, in the network's layer-major ordering.  Agents
start at the mean of their documents' vectors.  Document layers are built from
topic vectors by inverse-distance / k-nearest-neighbor / Jaccard similarity.

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

#: Weight assigned to coincident points under inverse-distance weighting,
#: which is otherwise singular at zero distance.
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

    def topic_vector(self, node: tuple[int, str]) -> np.ndarray:
        """The length-T topic vector of one (layer_id, node_id) node."""
        try:
            return self.matrix[self.node_index[node]]
        except KeyError:
            raise ValidationError(f"unknown node {node!r}") from None


@dataclass(frozen=True)
class DocumentAssignment:
    """For each agent id, the documents that agent produced."""

    docs_by_agent: dict[str, tuple[str, ...]]

    def __post_init__(self):
        normalized = {}
        for agent, docs in self.docs_by_agent.items():
            seen: list[str] = []
            for doc in docs:
                doc = str(doc)
                if doc not in seen:
                    seen.append(doc)
            normalized[str(agent)] = tuple(seen)
        object.__setattr__(self, "docs_by_agent", normalized)


def init_agent_states(
    assignment: DocumentAssignment,
    doc_states: np.ndarray,
    doc_ids: Sequence[str],
    agent_ids: Sequence[str],
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Agent rows as the mean of their documents' topic vectors.

    Returns the agent-block matrix and the ids of agents with no documents,
    whose rows are set to zero.
    """
    docs = np.asarray(doc_states, dtype=float)
    if docs.ndim != 2:
        raise ValidationError("document states must be a 2-D matrix")
    if docs.shape[0] != len(doc_ids):
        raise ValidationError("document states and document ids disagree in length")
    row_of = {str(d): i for i, d in enumerate(doc_ids)}
    out = np.zeros((len(agent_ids), docs.shape[1]))
    empty: list[str] = []
    for i, agent in enumerate(agent_ids):
        owned = assignment.docs_by_agent.get(str(agent), ())
        rows = []
        for doc in owned:
            if doc not in row_of:
                raise ValidationError(f"agent {agent!r} references unknown document {doc!r}")
            rows.append(row_of[doc])
        if rows:
            out[i] = docs[rows].mean(axis=0)
        else:
            empty.append(str(agent))
    return out, tuple(empty)


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    if points.ndim != 2:
        raise ValidationError("topic vectors must form a 2-D matrix")
    if not np.isfinite(points).all():
        raise ValidationError("non-finite distances: topic vectors contain non-finite entries")
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    if not np.isfinite(dist).all():
        raise ValidationError("non-finite distances between topic vectors")
    return dist


def inverse_distance_similarity(
    doc_states, epsilon_threshold: float, max_weight: float = DEFAULT_MAX_WEIGHT
) -> np.ndarray:
    """Similarity adjacency with weights 1/dist, kept only when above the threshold.

    Coincident vectors (zero distance) get `max_weight` instead of infinity.
    """
    epsilon_threshold = float(epsilon_threshold)
    if not epsilon_threshold > 0:
        raise ValidationError("epsilon_threshold must be > 0")
    dist = _pairwise_distances(np.asarray(doc_states, dtype=float))
    with np.errstate(divide="ignore"):
        weights = np.where(dist > 0, 1.0 / np.where(dist > 0, dist, 1.0), np.inf)
    weights = np.minimum(weights, max_weight)
    np.fill_diagonal(weights, 0.0)
    weights[weights <= epsilon_threshold] = 0.0
    return weights


def jaccard_similarity(memberships: Sequence[Iterable], threshold: float = 0.0) -> np.ndarray:
    """Jaccard-index adjacency between items from their container memberships.

    ``memberships[i]`` is the set of containers (e.g. posts) in which item i
    occurs.  The weight is |both| / |either|, kept when above the threshold;
    an empty union yields 0.  Diagonal entries are 0.
    """
    sets = [frozenset(s) for s in memberships]
    n = len(sets)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            union = len(sets[i] | sets[j])
            value = len(sets[i] & sets[j]) / union if union else 0.0
            if value > threshold:
                out[i, j] = out[j, i] = value
    return out


def knn_similarity(doc_states, k: int, max_weight: float = DEFAULT_MAX_WEIGHT) -> np.ndarray:
    """Symmetrized k-nearest-neighbor graph with inverse-distance weights.

    Neighbors are chosen by Euclidean distance with ties broken in favor of
    the lower node index; an edge exists when either endpoint selects the
    other, and carries weight 1/dist (capped for coincident points).
    """
    points = np.asarray(doc_states, dtype=float)
    dist = _pairwise_distances(points)
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
            w = max_weight if dist[i, j] == 0 else min(1.0 / dist[i, j], max_weight)
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


def write_assignment_csv(path, assignment: DocumentAssignment):
    docs_by_agent = assignment.docs_by_agent
    write_csv(
        path,
        ["agent_id", "document_id"],
        ([agent, doc] for agent in sorted(docs_by_agent) for doc in docs_by_agent[agent]),
    )


def read_assignment_csv(path) -> DocumentAssignment:
    docs_by_agent: dict[str, list[str]] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["agent_id", "document_id"]:
            raise ValidationError(f"assignment file {path} must have header agent_id,document_id")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"assignment file {path} has a malformed row: {row!r}")
            docs_by_agent.setdefault(row[0], []).append(row[1])
    return DocumentAssignment({agent: tuple(docs) for agent, docs in docs_by_agent.items()})
