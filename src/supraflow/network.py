"""Interconnected multilayer networks and their supra-Laplacian operators.

A network is a list of layers (agent layers or information layers), each with
a weighted intra-layer adjacency, plus rectangular couplings between layers.
The supra-Laplacian is the P x P operator that drives diffusion over the whole
structure: a block diagonal of scaled per-layer Laplacians (the intra part)
plus an inter-layer part built from coupling degree and connectivity blocks.

Node ordering is layer-major (all nodes of the first layer, then the second,
and so on) and is fixed at network construction; every matrix produced here
shares that ordering.  The supra-Laplacian and its parts are stored dense;
``SupraLaplacian.csr`` adds a compressed sparse row view of the operator for
applying it to states.  Inputs with more than ``MAX_NODES`` total nodes are
rejected.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from enum import Enum
import numpy as np
import scipy.sparse

from .errors import ValidationError, malformed
from .files import write_json

MAX_NODES = 20_000

#: Relative tolerance of every symmetry test: a matrix counts as symmetric when
#: max |A - A^T| is below this times max(1, max |A|).
SYMMETRY_RTOL = 1e-12


class LayerKind(str, Enum):
    AGENT = "agent"
    INFORMATION = "information"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _is_symmetric(matrix: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
    return bool(np.abs(matrix - matrix.T).max(initial=0.0) < SYMMETRY_RTOL * scale)


def _check_weight_matrix(w: np.ndarray, what: str) -> None:
    if w.ndim != 2:
        raise ValidationError(f"{what} must be a 2-D matrix, got ndim={w.ndim}")
    if not np.isfinite(w).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if (w < 0).any():
        raise ValidationError(f"{what} contains negative weights")


@dataclass(frozen=True)
class LayerGraph:
    """One network layer: its nodes and weighted intra-layer adjacency.

    The adjacency may be asymmetric (directed layer); diagonal entries must
    be zero and all weights nonnegative.
    """

    layer_id: int
    kind: LayerKind
    node_ids: tuple[str, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kind", LayerKind(self.kind))
        object.__setattr__(self, "node_ids", tuple(str(n) for n in self.node_ids))
        adj = _frozen_array(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        n = len(self.node_ids)
        if n == 0:
            raise ValidationError(f"layer {self.layer_id} has no nodes")
        if len(set(self.node_ids)) != n:
            raise ValidationError(f"layer {self.layer_id} has duplicate node ids")
        _check_weight_matrix(adj, f"layer {self.layer_id} adjacency")
        if adj.shape != (n, n):
            raise ValidationError(
                f"layer {self.layer_id} adjacency shape {adj.shape} does not match "
                f"{n} nodes"
            )
        if np.diagonal(adj).any():
            raise ValidationError(f"layer {self.layer_id} adjacency has nonzero diagonal")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class InterLayerCoupling:
    """Rectangular coupling: rows indexed by from-layer nodes, columns by to-layer nodes."""

    from_layer: int
    to_layer: int
    coupling: np.ndarray

    def __post_init__(self):
        mat = _frozen_array(self.coupling)
        object.__setattr__(self, "coupling", mat)
        _check_weight_matrix(mat, f"coupling ({self.from_layer},{self.to_layer})")
        if self.from_layer == self.to_layer:
            raise ValidationError("coupling must join two distinct layers")


@dataclass(frozen=True)
class DiffusionConstants:
    """Nonnegative scalars weighting intra-layer and inter-layer flow.

    ``intra`` maps layer_id -> constant; ``inter`` maps (layer_id, layer_id)
    -> constant.  In symmetric mode a missing (b, a) constant falls back to
    (a, b), and declaring both directions with different values is an error.
    """

    intra: dict[int, float]
    inter: dict[tuple[int, int], float] = field(default_factory=dict)
    symmetric: bool = True

    def __post_init__(self):
        intra = {int(k): float(v) for k, v in self.intra.items()}
        inter = {(int(a), int(b)): float(v) for (a, b), v in self.inter.items()}
        object.__setattr__(self, "intra", intra)
        object.__setattr__(self, "inter", inter)
        for name, value in list(intra.items()) + list(inter.items()):
            if not np.isfinite(value) or value < 0:
                raise ValidationError(f"diffusion constant {name} must be finite and >= 0")
        if self.symmetric:
            for (a, b), value in inter.items():
                other = inter.get((b, a))
                if other is not None and other != value:
                    raise ValidationError(
                        f"symmetric mode: constants for ({a},{b}) and ({b},{a}) differ"
                    )

    def intra_for(self, layer_id: int) -> float:
        try:
            return self.intra[layer_id]
        except KeyError:
            raise ValidationError(f"missing intra-layer constant for layer {layer_id}") from None

    def inter_for(self, a: int, b: int) -> float | None:
        value = self.inter.get((a, b))
        if value is None and self.symmetric:
            value = self.inter.get((b, a))
        return value


@dataclass(frozen=True)
class InterconnectedNetwork:
    """A multilayer network of agents and documents with inter-layer couplings.

    In symmetric mode a declared coupling (a, b) implies the transposed
    coupling (b, a) unless the reverse direction is declared explicitly.
    Layer pairs with no declared coupling behave as zero couplings.
    """

    layers: tuple[LayerGraph, ...]
    couplings: tuple[InterLayerCoupling, ...] = ()
    symmetric: bool = True

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        ids = [layer.layer_id for layer in self.layers]
        if not ids:
            raise ValidationError("network needs at least one layer")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate layer ids")
        by_id = {layer.layer_id: layer for layer in self.layers}

        slices: dict[int, slice] = {}
        order: list[tuple[int, str]] = []
        start = 0
        for layer in self.layers:
            slices[layer.layer_id] = slice(start, start + layer.n_nodes)
            order.extend((layer.layer_id, node) for node in layer.node_ids)
            start += layer.n_nodes
        if start > MAX_NODES:
            raise ValidationError(f"total node count {start} exceeds the dense cap {MAX_NODES}")

        pair_map: dict[tuple[int, int], InterLayerCoupling] = {}
        for c in self.couplings:
            for lid in (c.from_layer, c.to_layer):
                if lid not in by_id:
                    raise ValidationError(f"coupling references unknown layer {lid}")
            key = (c.from_layer, c.to_layer)
            if key in pair_map:
                raise ValidationError(f"duplicate coupling for layer pair {key}")
            expected = (by_id[c.from_layer].n_nodes, by_id[c.to_layer].n_nodes)
            if c.coupling.shape != expected:
                raise ValidationError(
                    f"coupling {key} has shape {c.coupling.shape}, expected {expected}"
                )
            pair_map[key] = c

        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_pair_map", pair_map)
        object.__setattr__(self, "layer_slices", slices)
        object.__setattr__(self, "node_order", tuple(order))
        object.__setattr__(self, "node_index", {key: i for i, key in enumerate(order)})

    @property
    def n_nodes(self) -> int:
        return len(self.node_order)

    @property
    def layer_ids(self) -> tuple[int, ...]:
        return tuple(layer.layer_id for layer in self.layers)

    def layer(self, layer_id: int) -> LayerGraph:
        try:
            return self._by_id[layer_id]
        except KeyError:
            raise ValidationError(f"unknown layer id {layer_id}") from None

    def coupling_matrix(self, a: int, b: int) -> np.ndarray | None:
        """Coupling from layer a to layer b, or None when it is (implicitly) zero."""
        declared = self._pair_map.get((a, b))
        if declared is not None:
            return declared.coupling
        if self.symmetric:
            reverse = self._pair_map.get((b, a))
            if reverse is not None:
                return reverse.coupling.T
        return None


@dataclass(frozen=True)
class SupraLaplacian:
    """The P x P diffusion operator with its intra/inter decomposition."""

    matrix: np.ndarray
    intra_part: np.ndarray
    inter_part: np.ndarray
    node_index: dict[tuple[int, str], int]
    layer_slices: dict[int, slice]
    layer_ids: tuple[int, ...]

    def __post_init__(self):
        for name in ("matrix", "intra_part", "inter_part"):
            arr = _frozen_array(getattr(self, name))
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValidationError(f"{name} must be square")
            object.__setattr__(self, name, arr)
        if self.matrix.shape != self.intra_part.shape or self.matrix.shape != self.inter_part.shape:
            raise ValidationError("operator parts have inconsistent shapes")
        if self.matrix.shape[0] != len(self.node_index):
            raise ValidationError("operator size does not match node index")

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def csr(self) -> scipy.sparse.csr_array:
        """Read-only compressed sparse row view of ``matrix``, built on first use."""
        view = scipy.sparse.csr_array(self.matrix)
        for part in (view.data, view.indices, view.indptr):
            part.setflags(write=False)
        return view


def build_laplacian(adjacency) -> np.ndarray:
    """Graph Laplacian K - W with K the diagonal matrix of row sums of W.

    Rows of the result sum to zero.  Directed layers yield out-degree
    Laplacians; nonzero diagonals and negative weights are rejected.
    """
    w = np.asarray(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {w.shape}")
    _check_weight_matrix(w, "adjacency")
    if np.diagonal(w).any():
        raise ValidationError("adjacency has nonzero diagonal entries")
    return np.diag(w.sum(axis=1)) - w


def components(matrix) -> np.ndarray:
    """Connected-component label of every node of a square matrix's graph.

    Nodes i and j are joined when entry (i, j) or (j, i) is nonzero, whatever
    its sign or size, so a Laplacian has the components of its adjacency.
    Labels run 0, 1, ... in the order of each component's lowest node.  The
    search is breadth-first, one vectorized step per level.
    """
    linked = np.asarray(matrix) != 0
    linked |= linked.T
    labels = np.full(linked.shape[0], -1)
    count = 0
    for root in range(linked.shape[0]):
        if labels[root] >= 0:
            continue
        labels[root] = count
        frontier = [root]
        while len(frontier):
            reached = linked[frontier].any(axis=0) & (labels < 0)
            labels[reached] = count
            frontier = np.flatnonzero(reached)
        count += 1
    return labels


def assemble_supra_laplacian(
    network: InterconnectedNetwork, constants: DiffusionConstants
) -> SupraLaplacian:
    """Assemble the supra-Laplacian of a network under given diffusion constants.

    The intra part is the block-diagonal direct sum of the scaled per-layer
    Laplacians.  Each declared (or transposed, in symmetric mode) coupling
    from layer a to layer b adds its scaled inter-layer degree diagonal to
    block (a, a) and subtracts the scaled coupling from block (a, b).
    """
    n = network.n_nodes
    intra = np.zeros((n, n))
    inter = np.zeros((n, n))
    for layer in network.layers:
        sl = network.layer_slices[layer.layer_id]
        intra[sl, sl] = constants.intra_for(layer.layer_id) * build_laplacian(layer.adjacency)
    for a in network.layer_ids:
        sa = network.layer_slices[a]
        for b in network.layer_ids:
            if a == b:
                continue
            w = network.coupling_matrix(a, b)
            if w is None:
                continue
            d = constants.inter_for(a, b)
            if d is None:
                raise ValidationError(f"missing inter-layer constant for layer pair ({a},{b})")
            sb = network.layer_slices[b]
            inter[sa, sa] += d * np.diag(w.sum(axis=1))
            inter[sa, sb] -= d * w
    return SupraLaplacian(
        matrix=intra + inter,
        intra_part=intra,
        inter_part=inter,
        node_index=dict(network.node_index),
        layer_slices=dict(network.layer_slices),
        layer_ids=network.layer_ids,
    )


def _epsilon(epsilon) -> float:
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


def scale_inter_layer(supra: SupraLaplacian, epsilon: float) -> SupraLaplacian:
    """Operator with the inter-layer part scaled by epsilon >= 0."""
    inter = _epsilon(epsilon) * supra.inter_part
    return SupraLaplacian(
        matrix=supra.intra_part + inter,
        intra_part=supra.intra_part,
        inter_part=inter,
        node_index=dict(supra.node_index),
        layer_slices=dict(supra.layer_slices),
        layer_ids=supra.layer_ids,
    )


# --- JSON network files ------------------------------------------------------
#
# Schema (see README for the full description):
# {
#   "symmetric": true,
#   "layers": [
#     {"id": 1, "kind": "agent", "nodes": ["a0", "a1"],
#      "adjacency": {"triplets": [[0, 1, 1.0], [1, 0, 1.0]]}}
#   ],
#   "couplings": [
#     {"from": 1, "to": 2, "matrix": {"triplets": [[0, 0, 1.0]]}}
#   ],
#   "constants": {"intra": {"1": 1.0}, "inter": {"1,2": 0.5}, "symmetric": true}
# }
#
# Every adjacency and coupling is written as {"triplets": [[row, col, weight], ...]}:
# the nonzero entries in row-major order, each (row, col) at most once.  Dense
# row-major arrays, the form older files used, are still read.


def _matrix_to_json(matrix: np.ndarray) -> dict:
    rows, cols = np.nonzero(matrix)
    weights = matrix[rows, cols].tolist()
    return {"triplets": [list(t) for t in zip(rows.tolist(), cols.tolist(), weights)]}


def _matrix_from_json(obj, shape: tuple[int, int], what: str) -> np.ndarray:
    if isinstance(obj, dict):
        if "triplets" not in obj:
            raise ValidationError(f"{what}: sparse matrix object needs a 'triplets' field")
        form = f"{what}: every triplet must be three numbers [row, col, weight]"
        try:
            entries = np.asarray(obj["triplets"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(form) from None
        if entries.shape == (0,):
            entries = entries.reshape(0, 3)
        if entries.ndim != 2 or entries.shape[1] != 3:
            raise ValidationError(form)
        index = entries[:, :2]
        if (index != np.round(index)).any():
            raise ValidationError(f"{what}: triplet indices must be integers")
        if ((index < 0) | (index >= shape)).any():
            raise ValidationError(f"{what}: triplet index out of bounds {shape}")
        rows, cols = index.astype(int).T
        if np.unique(rows * shape[1] + cols).size != len(rows):
            raise ValidationError(f"{what}: an entry (row, col) appears in two triplets")
        mat = np.zeros(shape)
        mat[rows, cols] = entries[:, 2]
        return mat
    mat = np.asarray(obj, dtype=float)
    if mat.shape != shape:
        raise ValidationError(f"{what}: dense matrix shape {mat.shape}, expected {shape}")
    return mat


def constants_to_dict(constants: DiffusionConstants) -> dict:
    return {
        "symmetric": constants.symmetric,
        "intra": {str(k): v for k, v in sorted(constants.intra.items())},
        "inter": {f"{a},{b}": v for (a, b), v in sorted(constants.inter.items())},
    }


def _layer_pair(key) -> tuple[int, int]:
    """The layer pair (a, b) of an inter-layer constant key written 'a,b'."""
    parts = str(key).split(",")
    if len(parts) != 2:
        raise ValidationError(f"inter constant key {key!r} must look like 'a,b'")
    return int(parts[0]), int(parts[1])


def _json_bool(value) -> bool:
    """A JSON ``true`` or ``false``; any other value, ``"false"`` or ``1`` too, is rejected."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected JSON true or false, got {value!r}")
    return value


def network_to_dict(
    network: InterconnectedNetwork, constants: DiffusionConstants | None = None
) -> dict:
    data = {
        "symmetric": network.symmetric,
        "layers": [
            {
                "id": layer.layer_id,
                "kind": layer.kind.value,
                "nodes": list(layer.node_ids),
                "adjacency": _matrix_to_json(layer.adjacency),
            }
            for layer in network.layers
        ],
        "couplings": [
            {
                "from": c.from_layer,
                "to": c.to_layer,
                "matrix": _matrix_to_json(c.coupling),
            }
            for c in network.couplings
        ],
    }
    if constants is not None:
        data["constants"] = constants_to_dict(constants)
    return data


def network_from_dict(data: dict) -> tuple[InterconnectedNetwork, DiffusionConstants | None]:
    with malformed("network document"):
        layers = []
        for spec in data["layers"]:
            nodes = [str(n) for n in spec["nodes"]]
            n = len(nodes)
            layers.append(
                LayerGraph(
                    layer_id=int(spec["id"]),
                    kind=spec.get("kind", "agent"),
                    node_ids=tuple(nodes),
                    adjacency=_matrix_from_json(
                        spec.get("adjacency", np.zeros((n, n))), (n, n), f"layer {spec['id']}"
                    ),
                )
            )
        sizes = {layer.layer_id: layer.n_nodes for layer in layers}
        couplings = []
        for spec in data.get("couplings", []):
            a, b = int(spec["from"]), int(spec["to"])
            if a not in sizes or b not in sizes:
                raise ValidationError(f"coupling references unknown layer ({a},{b})")
            couplings.append(
                InterLayerCoupling(
                    from_layer=a,
                    to_layer=b,
                    coupling=_matrix_from_json(
                        spec["matrix"], (sizes[a], sizes[b]), f"coupling ({a},{b})"
                    ),
                )
            )
        network = InterconnectedNetwork(
            layers=tuple(layers),
            couplings=tuple(couplings),
            symmetric=_json_bool(data.get("symmetric", True)),
        )
        constants = None
        if "constants" in data:
            spec = data["constants"]
            constants = DiffusionConstants(
                intra={int(k): float(v) for k, v in spec.get("intra", {}).items()},
                inter={_layer_pair(k): float(v) for k, v in spec.get("inter", {}).items()},
                symmetric=_json_bool(spec.get("symmetric", True)),
            )
        return network, constants


def save_network(path, network: InterconnectedNetwork, constants: DiffusionConstants | None = None):
    write_json(path, network_to_dict(network, constants))


def load_network(path) -> tuple[InterconnectedNetwork, DiffusionConstants | None]:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"network file {path} is not valid JSON: {exc}") from None
    return network_from_dict(data)
