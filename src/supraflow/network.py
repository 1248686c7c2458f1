"""Interconnected multilayer networks and their supra-Laplacian operators.

A network is a list of layers (agent layers or information layers), each with
a weighted intra-layer adjacency, plus rectangular couplings between layers.
The supra-Laplacian is the P x P operator that drives diffusion over the whole
structure: a block diagonal of scaled per-layer Laplacians (the intra part)
plus an inter-layer part built from coupling degree and connectivity blocks.

Node ordering is layer-major (all nodes of the first layer, then the second,
and so on) and is fixed at network construction; every matrix produced here
shares that ordering.  Every adjacency, coupling and operator part is stored
in one form, canonical read-only CSR (sorted indices, no duplicate and no
explicit zero entries), so memory grows with the edge count, not with P^2.
A ``SupraLaplacian`` stores its intra and inter parts; their CSR sum ``csr``
is derived on first use, and no dense copy is kept: ``build`` dumps ``csr``
by blocks of rows.  Inputs with more than ``MAX_NODES`` nodes are rejected:
that cap bounds the P x P arrays of the dense consumers, such as the fit's
L(D) and the lambda2 work array (3.2 GB each at the cap).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
import numpy as np
import scipy.sparse

from .errors import REQUIRED, ValidationError, _json_bool, _json_float, _json_int, _json_list
from .errors import _json_str, read_document
from .files import read_json, write_json

MAX_NODES = 20_000


def _check_node_count(total: int):
    """Reject a total node count above ``MAX_NODES``."""
    if total > MAX_NODES:
        raise ValidationError(
            f"total node count {total} exceeds the cap of {MAX_NODES} nodes, which bounds "
            "the P x P arrays of the dense operator consumers"
        )

#: Relative tolerance of every symmetry test: a matrix counts as symmetric when
#: max |A - A^T| is below this times max(1, max |A|).
SYMMETRY_RTOL = 1e-12


class LayerKind(str, Enum):
    AGENT = "agent"
    INFORMATION = "information"


def _freeze(matrix: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """Make a CSR matrix canonical in place, then read-only."""
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    for part in (matrix.data, matrix.indices, matrix.indptr):
        part.setflags(write=False)
    return matrix


def _frozen_csr(values, what: str) -> scipy.sparse.csr_array:
    """Canonical read-only CSR of a dense or sparse 2-D matrix.

    A read-only canonical float CSR matrix, the form this module hands out,
    is shared; anything else is copied.
    """
    if isinstance(values, scipy.sparse.csr_array) and values.dtype == float:
        if not values.data.flags.writeable and values.has_canonical_format and values.data.all():
            return values
    if not scipy.sparse.issparse(values):
        values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValidationError(f"{what} must be a 2-D matrix, got ndim={values.ndim}")
    return _freeze(scipy.sparse.csr_array(values, dtype=float, copy=True))


def _is_symmetric(matrix) -> bool:
    """Whether max |A - A^T| < SYMMETRY_RTOL * max(1, max |A|), for a dense or
    a sparse A; a dense A takes one n x n temporary."""
    if scipy.sparse.issparse(matrix):
        scale = max(1.0, float(abs(matrix).max()))
        return bool(abs(matrix - matrix.T).max() < SYMMETRY_RTOL * scale)
    scale = max(1.0, float(matrix.max(initial=0.0)), -float(matrix.min(initial=0.0)))
    skew = matrix - matrix.T
    return bool(np.abs(skew, out=skew).max(initial=0.0) < SYMMETRY_RTOL * scale)


def _check_weights(w: scipy.sparse.csr_array, what: str) -> None:
    if not np.isfinite(w.data).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if (w.data < 0).any():
        raise ValidationError(f"{what} contains negative weights")


@dataclass(frozen=True)
class LayerGraph:
    """One network layer: its nodes and weighted intra-layer adjacency.

    The adjacency, given dense or sparse, is stored as canonical read-only
    CSR.  It may be asymmetric (directed layer); diagonal entries must be zero
    and all weights nonnegative.
    """

    layer_id: int
    kind: LayerKind
    node_ids: tuple[str, ...]
    adjacency: scipy.sparse.csr_array

    def __post_init__(self):
        object.__setattr__(self, "kind", LayerKind(self.kind))
        object.__setattr__(self, "node_ids", tuple(str(n) for n in self.node_ids))
        what = f"layer {self.layer_id} adjacency"
        adj = _frozen_csr(self.adjacency, what)
        object.__setattr__(self, "adjacency", adj)
        n = len(self.node_ids)
        if n == 0:
            raise ValidationError(f"layer {self.layer_id} has no nodes")
        if len(set(self.node_ids)) != n:
            raise ValidationError(f"layer {self.layer_id} has duplicate node ids")
        _check_weights(adj, what)
        if adj.shape != (n, n):
            raise ValidationError(
                f"layer {self.layer_id} adjacency shape {adj.shape} does not match "
                f"{n} nodes"
            )
        if adj.diagonal().any():
            raise ValidationError(f"layer {self.layer_id} adjacency has nonzero diagonal")

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class InterLayerCoupling:
    """Rectangular coupling: rows indexed by from-layer nodes, columns by to-layer
    nodes; given dense or sparse, stored as canonical read-only CSR."""

    from_layer: int
    to_layer: int
    coupling: scipy.sparse.csr_array

    def __post_init__(self):
        what = f"coupling ({self.from_layer},{self.to_layer})"
        mat = _frozen_csr(self.coupling, what)
        object.__setattr__(self, "coupling", mat)
        _check_weights(mat, what)
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
        _check_node_count(start)

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

    def _coupling_entries(self, a: int, b: int):
        """``_entries`` of the coupling from layer a to layer b, or None when
        it is (implicitly) zero.  In symmetric mode an undeclared (a, b) is
        the declared (b, a) transposed: its rows and columns swapped."""
        declared = self._pair_map.get((a, b))
        if declared is not None:
            return _entries(declared.coupling)
        if self.symmetric:
            reverse = self._pair_map.get((b, a))
            if reverse is not None:
                rows, cols, values = _entries(reverse.coupling)
                return cols, rows, values
        return None


@dataclass(frozen=True)
class SupraLaplacian:
    """The P x P diffusion operator, held as its intra and inter parts.

    Parts given dense or sparse are stored as canonical read-only CSR.
    """

    intra_part: scipy.sparse.csr_array
    inter_part: scipy.sparse.csr_array
    node_index: dict[tuple[int, str], int]
    layer_ids: tuple[int, ...]

    def __post_init__(self):
        shape = (len(self.node_index),) * 2
        for name in ("intra_part", "inter_part"):
            part = _frozen_csr(getattr(self, name), name)
            if part.shape != shape:
                raise ValidationError(
                    f"{name} has shape {part.shape}, the node index needs {shape}"
                )
            object.__setattr__(self, name, part)

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @functools.cached_property
    def csr(self) -> scipy.sparse.csr_array:
        """The read-only CSR operator intra_part + inter_part, summed on first use."""
        return _freeze(self.intra_part + self.inter_part)


def _entries(w: scipy.sparse.csr_array):
    """(rows, cols, values) of the stored entries of a CSR matrix, read from
    its arrays.  ``np.bincount`` of the rows weighted by the values gives the
    row sums, each row's entries added in storage order."""
    return np.repeat(np.arange(w.shape[0]), np.diff(w.indptr)), w.indices, w.data


def _laplacian_triplets(w: scipy.sparse.csr_array, scale: float, offset: int):
    """Triplet pieces (rows, cols, values) of scale * (K - W), K the diagonal
    of W's row sums, placed at rows and columns ``offset`` on: the entries of
    W negated, then the whole diagonal.  W has a zero diagonal, so no (row,
    col) appears twice."""
    rows, cols, values = _entries(w)
    diagonal = np.arange(offset, offset + w.shape[0])
    return (
        [rows + offset, diagonal],
        [cols + offset, diagonal],
        [scale * -values, scale * np.bincount(rows, weights=values, minlength=w.shape[0])],
    )


def _scatter_sum(terms, out: np.ndarray) -> np.ndarray:
    """Write sum_k w_k A_k, for (CSR part A_k, weight w_k) in ``terms``, into
    the dense ``out``: zeroed, then each part's stored entries times its
    weight added in term order, entry by entry the arithmetic of the sparse
    sum, with no temporary the size of ``out``."""
    out.fill(0.0)
    for part, weight in terms:
        rows, cols, values = _entries(part)
        out[rows, cols] += weight * values
    return out


def _csr_from_triplets(rows: list, cols: list, values: list, n: int) -> scipy.sparse.csr_array:
    """The read-only n x n CSR matrix of triplet pieces in which no (row, col)
    appears twice: one concatenation, then one sort into row-major order.
    Indices are 32-bit, as scipy stores them for a matrix converted from dense."""
    rows, cols, values = (np.concatenate(pieces) for pieces in (rows, cols, values))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[order].astype(np.int32)
    return _freeze(scipy.sparse.csr_array((values[order], indices, indptr), shape=(n, n)))


def components(matrix) -> np.ndarray:
    """Connected-component label of every node of a square matrix's graph.

    Nodes i and j are joined when entry (i, j) or (j, i) is nonzero, whatever
    its sign or size, so a Laplacian has the components of its adjacency.
    Labels run 0, 1, ... in the order of each component's lowest node.  The
    matrix may be dense or sparse.  The search is breadth-first over the CSR
    pattern of A + A^T, one vectorized row slice per level.
    """
    coo = scipy.sparse.coo_array(matrix)
    nonzero = coo.data != 0
    rows, cols = coo.row[nonzero], coo.col[nonzero]
    n = coo.shape[0]
    linked = scipy.sparse.csr_array(
        (np.ones(2 * rows.size), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )
    labels = np.full(n, -1)
    count = 0
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = count
        frontier = np.array([root])
        while frontier.size:
            reached = linked[frontier].indices
            frontier = np.unique(reached[labels[reached] < 0])
            labels[frontier] = count
        count += 1
    return labels


def assemble_supra_laplacian(
    network: InterconnectedNetwork, constants: DiffusionConstants
) -> SupraLaplacian:
    """Assemble the supra-Laplacian of a network under given diffusion constants.

    The intra part is the block-diagonal direct sum of the scaled per-layer
    Laplacians.  Each declared (or transposed, in symmetric mode) coupling
    from layer a to layer b adds its scaled inter-layer degree diagonal to
    block (a, a) and subtracts the scaled coupling from block (a, b).  Both
    parts are built in CSR from the sparse layers and couplings, each by one
    conversion of its triplets; no dense P x P array is formed.
    """
    n = network.n_nodes
    intra: tuple[list, list, list] = ([], [], [])
    for layer in network.layers:
        pieces = _laplacian_triplets(
            layer.adjacency,
            constants.intra_for(layer.layer_id),
            network.layer_slices[layer.layer_id].start,
        )
        for whole, piece in zip(intra, pieces):
            whole.extend(piece)
    inter: tuple[list, list, list] = ([], [], [])
    degree = np.zeros(n)
    for a in network.layer_ids:
        sa = network.layer_slices[a]
        for b in network.layer_ids:
            if a == b:
                continue
            entries = network._coupling_entries(a, b)
            if entries is None:
                continue
            d = constants.inter_for(a, b)
            if d is None:
                raise ValidationError(f"missing inter-layer constant for layer pair ({a},{b})")
            rows, cols, values = entries
            degree[sa] += d * np.bincount(rows, weights=values, minlength=sa.stop - sa.start)
            inter[0].append(rows + sa.start)
            inter[1].append(cols + network.layer_slices[b].start)
            inter[2].append(-(d * values))
    for whole, piece in zip(inter, (np.arange(n), np.arange(n), degree)):
        whole.append(piece)
    return SupraLaplacian(
        intra_part=_csr_from_triplets(*intra, n),
        inter_part=_csr_from_triplets(*inter, n),
        node_index=dict(network.node_index),
        layer_ids=network.layer_ids,
    )


def _epsilon(epsilon) -> float:
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon}")
    return epsilon


def scale_inter_layer(supra: SupraLaplacian, epsilon: float) -> SupraLaplacian:
    """Operator with the inter-layer part scaled by epsilon >= 0."""
    return SupraLaplacian(
        intra_part=supra.intra_part,
        inter_part=_epsilon(epsilon) * supra.inter_part,
        node_index=dict(supra.node_index),
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


def _matrix_to_json(matrix: scipy.sparse.csr_array) -> dict:
    coo = matrix.tocoo()  # canonical CSR: row-major, each (row, col) once, no zeros
    triplets = zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    return {"triplets": [list(t) for t in triplets]}


def _number_array(rows, form: str) -> np.ndarray:
    """``rows``, lists of JSON numbers, as a float array; anything else is the
    ValidationError ``form``.  One type scan of the items comes first: numpy
    alone reads ``"0.5"`` and ``true`` as numbers."""
    try:
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
            return np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(form)


def _matrix_from_json(obj, shape: tuple[int, int], what: str) -> scipy.sparse.csr_array:
    if isinstance(obj, dict):
        triplets = read_document(obj, _SPARSE_FIELDS, f"{what}: sparse matrix object")["triplets"]
        form = f"{what}: every triplet must be three numbers [row, col, weight]"
        entries = _number_array(triplets, form)
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
        coo = scipy.sparse.coo_array((entries[:, 2], (rows, cols)), shape=shape)
        return _frozen_csr(coo, what)
    mat = _number_array(obj, f"{what}: every dense matrix row must be a list of numbers")
    if mat.shape != shape:
        raise ValidationError(f"{what}: dense matrix shape {mat.shape}, expected {shape}")
    return _frozen_csr(mat, what)


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


#: The tables of a network file's objects (see ``errors.read_document``).  A
#: matrix is read as given, to be parsed once its layers fix its shape.
_SPARSE_FIELDS = {"triplets": (list, REQUIRED)}
_LAYER_FIELDS = {
    "id": (_json_int, REQUIRED),
    "kind": (LayerKind, LayerKind.AGENT),
    "nodes": (_json_list(_json_str), REQUIRED),
    "adjacency": (lambda matrix: matrix, {"triplets": []}),
}
_COUPLING_FIELDS = {
    "from": (_json_int, REQUIRED),
    "to": (_json_int, REQUIRED),
    "matrix": (lambda matrix: matrix, REQUIRED),
}
_CONSTANTS_FIELDS = {
    "intra": (lambda intra: {key: _json_float(value) for key, value in intra.items()}, {}),
    "inter": (
        lambda inter: {_layer_pair(key): _json_float(value) for key, value in inter.items()},
        {},
    ),
    "symmetric": (_json_bool, True),
}
_NETWORK_FIELDS = {
    "symmetric": (_json_bool, True),
    "layers": (_json_list(lambda v: read_document(v, _LAYER_FIELDS, "network layer")), REQUIRED),
    "couplings": (_json_list(lambda v: read_document(v, _COUPLING_FIELDS, "network coupling")), []),
    "constants": (
        lambda v: DiffusionConstants(**read_document(v, _CONSTANTS_FIELDS, "network constants")),
        None,
    ),
}


def network_from_dict(data: dict) -> tuple[InterconnectedNetwork, DiffusionConstants | None]:
    fields = read_document(data, _NETWORK_FIELDS, "network document")
    layers = []
    for layer in fields["layers"]:
        n = len(layer["nodes"])
        adjacency = _matrix_from_json(layer["adjacency"], (n, n), f"layer {layer['id']}")
        layers.append(LayerGraph(layer["id"], layer["kind"], tuple(layer["nodes"]), adjacency))
    sizes = {layer.layer_id: layer.n_nodes for layer in layers}
    couplings = []
    for coupling in fields["couplings"]:
        a, b = coupling["from"], coupling["to"]
        if a not in sizes or b not in sizes:
            raise ValidationError(f"coupling references unknown layer ({a},{b})")
        matrix = _matrix_from_json(coupling["matrix"], (sizes[a], sizes[b]), f"coupling ({a},{b})")
        couplings.append(InterLayerCoupling(from_layer=a, to_layer=b, coupling=matrix))
    network = InterconnectedNetwork(
        layers=tuple(layers), couplings=tuple(couplings), symmetric=fields["symmetric"]
    )
    return network, fields["constants"]


def save_network(path, network: InterconnectedNetwork, constants: DiffusionConstants | None = None):
    write_json(path, network_to_dict(network, constants))


def load_network(path) -> tuple[InterconnectedNetwork, DiffusionConstants | None]:
    return network_from_dict(read_json(path, "network file"))
