"""Seed-deterministic synthetic interconnected networks and snapshot histories.

Datasets mirror the shapes of agent/document systems: replicated agent layers
with one-to-one couplings, document layers built from random topic vectors by
k-nearest-neighbor similarity, ownership couplings assigning each document to
an agent, and snapshot histories generated by the closed flow (exact, when the
noise scale is zero) or the Euler-Maruyama scheme (otherwise).  All randomness
derives from one master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import REQUIRED, ValidationError, _json_bool, _json_float, _json_int, _json_list
from .errors import _json_str, read_document
from .calibration import SnapshotSeries
from .diffusion import SimulationConfig, _check_budget, _simulate, propagate_closed, step_norm
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    LayerKind,
    _layer_pair,
    assemble_supra_laplacian,
    _check_node_count,
    components,
)
from .states import StateMatrix, knn_similarity

MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class LayerSpec:
    """Recipe for one synthetic layer."""

    kind: str
    n_nodes: int
    model: str = "erdos_renyi"
    edge_prob: float = 0.3
    k_neighbors: int = 3
    weight: float = 1.0

    def __post_init__(self):
        LayerKind(self.kind)
        if self.n_nodes < 1:
            raise ValidationError("layer must have at least one node")
        if self.model not in ("erdos_renyi", "knn", "complete", "empty"):
            raise ValidationError(f"unknown layer model {self.model!r}")
        if not 0 <= self.edge_prob <= 1:
            raise ValidationError("edge_prob must lie in [0, 1]")
        if self.weight < 0:
            raise ValidationError("edge weight must be >= 0")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a full dataset: layers, couplings, planted dynamics.

    Layer ids are assigned 1..M in list order.  All agent layers must share
    one node count (they are replicas); every agent-layer pair is joined by an
    identity coupling and every (agent, information) pair by the ownership
    incidence of a random document assignment.  Constants default to 1.
    """

    layers: tuple[LayerSpec, ...]
    n_topics: int = 2
    intra_constants: dict[int, float] = field(default_factory=dict)
    inter_constants: dict[tuple[int, int], float] = field(default_factory=dict)
    sigma_ratio: float = 0.0
    sigma_nodes: int | None = None
    sigma_scale: float = 0.05
    n_snapshots: int = 10
    spacing: float = 1.0
    dt: float = 0.01
    train_count: int | None = None
    require_connected: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValidationError("a synthetic spec needs at least one layer")
        if self.n_topics < 1:
            raise ValidationError("n_topics must be >= 1")
        if self.n_snapshots < 2:
            raise ValidationError("n_snapshots must be >= 2")
        if not self.spacing > 0 or not self.dt > 0:
            raise ValidationError("spacing and dt must be positive")
        if self.sigma_ratio < 0 or self.sigma_scale < 0:
            raise ValidationError("noise magnitudes must be >= 0")
        agent_sizes = {s.n_nodes for s in self.layers if LayerKind(s.kind) is LayerKind.AGENT}
        if len(agent_sizes) > 1:
            raise ValidationError("agent layers must share one node count (replica layers)")
        _check_node_count(sum(s.n_nodes for s in self.layers))


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth planted into a generated dataset."""

    constants: DiffusionConstants
    sigma: np.ndarray
    sigma_ratio: float
    seed: int
    attempts: int


def _random_adjacency(spec: LayerSpec, rng, topic_vectors: np.ndarray | None):
    """The layer's adjacency: CSR, except the dense draw of an ``erdos_renyi``
    layer and the dense matrix of a ``complete`` one."""
    n = spec.n_nodes
    if spec.model == "empty" or n == 1:
        return scipy.sparse.csr_array((n, n))
    if spec.model == "complete":
        return spec.weight * (np.ones((n, n)) - np.eye(n))
    if spec.model == "knn":
        if topic_vectors is None:
            raise ValidationError("knn layers need topic vectors")
        return knn_similarity(topic_vectors, min(spec.k_neighbors, n - 1))
    upper = np.triu(rng.random((n, n)) < spec.edge_prob, k=1)
    return spec.weight * (upper | upper.T)


class _Disconnected(Exception):
    pass


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[InterconnectedNetwork, SnapshotSeries, PlantedTruth]:
    """Build a network, snapshot history, and planted ground truth from a seed.

    When connectivity is required and a draw produces a disconnected layer or
    network, generation retries with a derived sub-seed up to a fixed cap.
    """
    children = np.random.SeedSequence(seed).spawn(MAX_ATTEMPTS)
    last_error = None
    for attempt, child in enumerate(children, start=1):
        rng = np.random.default_rng(child)
        try:
            return _generate_once(spec, seed, attempt, rng)
        except _Disconnected as exc:
            last_error = exc
    raise ValidationError(
        f"could not generate a connected dataset in {MAX_ATTEMPTS} attempts: {last_error}"
    )


def _generate_once(spec: SyntheticSpec, seed: int, attempt: int, rng):
    layer_ids = tuple(range(1, len(spec.layers) + 1))
    info_ids = [
        lid for lid, s in zip(layer_ids, spec.layers) if LayerKind(s.kind) is LayerKind.INFORMATION
    ]
    agent_ids = [lid for lid in layer_ids if lid not in info_ids]
    multi_info = len(info_ids) > 1

    # Documents first: information layers are built from their topic vectors.
    doc_states: dict[int, np.ndarray] = {}
    doc_names: dict[int, list[str]] = {}
    for lid in info_ids:
        s = spec.layers[lid - 1]
        doc_states[lid] = rng.random((s.n_nodes, spec.n_topics))
        prefix = f"d{lid}_" if multi_info else "d"
        doc_names[lid] = [f"{prefix}{j}" for j in range(s.n_nodes)]

    layers = []
    for lid, s in zip(layer_ids, spec.layers):
        kind = LayerKind(s.kind)
        if kind is LayerKind.INFORMATION:
            nodes = doc_names[lid]
            adjacency = _random_adjacency(s, rng, doc_states[lid])
        else:
            nodes = [f"a{j}" for j in range(s.n_nodes)]
            adjacency = _random_adjacency(s, rng, None)
        layer = LayerGraph(layer_id=lid, kind=kind, node_ids=tuple(nodes), adjacency=adjacency)
        if spec.require_connected and components(layer.adjacency).max() > 0:
            raise _Disconnected(f"layer {lid} came out disconnected")
        layers.append(layer)

    n_agents = layers[agent_ids[0] - 1].n_nodes if agent_ids else 0
    couplings = []
    identity = scipy.sparse.eye_array(n_agents, format="csr")
    for i, a in enumerate(agent_ids):
        for b in agent_ids[i + 1 :]:
            couplings.append(InterLayerCoupling(from_layer=a, to_layer=b, coupling=identity))

    # One owner per document; the ownership incidence couples every agent
    # layer to every information layer identically (replica agents).
    owners = (
        {lid: rng.integers(0, n_agents, size=len(doc_names[lid])) for lid in info_ids}
        if agent_ids
        else {}
    )
    for lid, owner in owners.items():
        incidence = scipy.sparse.csr_array(
            (np.ones(owner.size), (owner, np.arange(owner.size))), shape=(n_agents, owner.size)
        )
        for a in agent_ids:
            couplings.append(InterLayerCoupling(from_layer=a, to_layer=lid, coupling=incidence))

    network = InterconnectedNetwork(layers=tuple(layers), couplings=tuple(couplings), symmetric=True)

    intra = {lid: float(spec.intra_constants.get(lid, 1.0)) for lid in layer_ids}
    inter: dict[tuple[int, int], float] = {}
    for c in couplings:
        key = tuple(sorted((c.from_layer, c.to_layer)))
        inter.setdefault(key, float(spec.inter_constants.get(key, 1.0)))
    constants = DiffusionConstants(intra=intra, inter=inter, symmetric=True)
    supra = assemble_supra_laplacian(network, constants)
    if spec.require_connected and components(supra.csr).max() > 0:
        raise _Disconnected("the assembled network came out disconnected")

    x0 = np.zeros((network.n_nodes, spec.n_topics))
    for lid in info_ids:
        x0[network.layer_slices[lid]] = doc_states[lid]
    if agent_ids and info_ids:
        # Agents start at the mean of the documents they own, or at zero.
        all_owners = np.concatenate([owners[lid] for lid in info_ids])
        all_doc_states = np.vstack([doc_states[lid] for lid in info_ids])
        agent_block = np.zeros((n_agents, spec.n_topics))
        for i in range(n_agents):
            owned = all_owners == i
            if owned.any():
                agent_block[i] = all_doc_states[owned].mean(axis=0)
        for a in agent_ids:
            x0[network.layer_slices[a]] = agent_block
    elif agent_ids:
        agent_block = rng.random((n_agents, spec.n_topics))
        for a in agent_ids:
            x0[network.layer_slices[a]] = agent_block

    x0_norm = float(np.linalg.norm(x0))
    sigma = np.zeros_like(x0)
    if spec.sigma_nodes is not None and spec.sigma_nodes > 0:
        sigma[: min(spec.sigma_nodes, x0.shape[0])] = spec.sigma_scale
    elif spec.sigma_ratio > 0:
        raw = rng.random(x0.shape)
        sigma = raw * (spec.sigma_ratio * x0_norm / np.linalg.norm(raw))
    sigma_ratio = float(np.linalg.norm(sigma) / x0_norm) if x0_norm > 0 else 0.0

    times = [i * spec.spacing for i in range(spec.n_snapshots)]
    node_index = dict(network.node_index)
    if sigma.any():
        # At least the requested sub-steps, and as many more as the explicit
        # scheme needs for its step to stay inside the stability bound.
        norm = step_norm(supra)
        substeps = max(1, round(spec.spacing / spec.dt), math.floor(norm * spec.spacing))
        while norm * (spec.spacing / substeps) >= 1:
            substeps += 1
        config = SimulationConfig(
            dt=spec.spacing / substeps, horizon=(spec.n_snapshots - 1) * spec.spacing
        )
        _check_budget(x0.shape, 1, config, stride=substeps)
        # Only every substeps-th state is a snapshot, so only those are kept.
        noise_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
        _, (states,) = _simulate(x0, supra.csr, sigma, [noise_rng], config, stride=substeps)
        snapshots = [
            StateMatrix(matrix=states[i], node_index=node_index, timestamp=t)
            for i, t in enumerate(times)
        ]
    else:
        states = [x0]
        for _ in times[1:]:
            states.append(propagate_closed(states[-1], supra, spec.spacing))
        snapshots = [
            StateMatrix(matrix=state, node_index=node_index, timestamp=t)
            for state, t in zip(states, times)
        ]

    train_count = spec.train_count
    if train_count is None:
        train_count = max(2, spec.n_snapshots // 3)
    series = SnapshotSeries(snapshots=tuple(snapshots), train_count=train_count)
    truth = PlantedTruth(
        constants=constants,
        sigma=sigma,
        sigma_ratio=sigma_ratio,
        seed=seed,
        attempts=attempt,
    )
    return network, series, truth


#: A synthetic layer entry's table (see ``errors.read_document``), in ``LayerSpec``'s field order.
_LAYER_FIELDS = {
    "kind": (LayerKind, REQUIRED),
    "n": (_json_int, REQUIRED),
    "model": (_json_str, LayerSpec.model),
    "p": (_json_float, LayerSpec.edge_prob),
    "k": (_json_int, LayerSpec.k_neighbors),
    "weight": (_json_float, LayerSpec.weight),
}
#: A synthetic spec's table, each key named as its ``SyntheticSpec`` field; ``seed`` is retired
#: so that a ``generate`` spec passes whole as ``synthetic``, where the experiment's seed governs.
_SPEC_FIELDS = {
    "layers": (
        _json_list(
            lambda v: LayerSpec(*read_document(v, _LAYER_FIELDS, "synthetic layer").values())
        ),
        REQUIRED,
    ),
    "n_topics": (_json_int, SyntheticSpec.n_topics),
    "intra_constants": (lambda intra: {int(k): _json_float(v) for k, v in intra.items()}, {}),
    "inter_constants": (
        lambda inter: {tuple(sorted(_layer_pair(k))): _json_float(v) for k, v in inter.items()},
        {},
    ),
    "sigma_ratio": (_json_float, SyntheticSpec.sigma_ratio),
    "sigma_nodes": (_json_int, SyntheticSpec.sigma_nodes),
    "sigma_scale": (_json_float, SyntheticSpec.sigma_scale),
    "n_snapshots": (_json_int, SyntheticSpec.n_snapshots),
    "spacing": (_json_float, SyntheticSpec.spacing),
    "dt": (_json_float, SyntheticSpec.dt),
    "train_count": (_json_int, SyntheticSpec.train_count),
    "require_connected": (_json_bool, SyntheticSpec.require_connected),
    "seed": (None, None),
}


def synthetic_spec_from_dict(data: dict) -> SyntheticSpec:
    """Parse the JSON form of a synthetic spec (see README for the schema)."""
    return SyntheticSpec(**read_document(data, _SPEC_FIELDS, "synthetic spec"))
