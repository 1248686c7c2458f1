import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from supraflow import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    LearnedOperator,
    assemble_supra_laplacian,
    diffusion,
    matrix_exponential,
)
from supraflow.kalman import PHASE_UPDATED, KalmanState


def global_random_state():
    """numpy's global random state, in a form that compares with ``==``."""
    name, keys, *rest = np.random.get_state()
    return name, keys.tobytes(), *rest


def connected_adjacency(rng, n, extra_prob=0.3, weight=1.0):
    """Random symmetric adjacency guaranteed connected (path backbone + extras)."""
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        w[a, b] = w[b, a] = weight
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_prob:
                w[i, j] = w[j, i] = weight
    return w


def random_network(rng, n_layers=3, connected=True):
    """Random undirected network with constants, for property sweeps."""
    layers = []
    sizes = []
    for k in range(n_layers):
        n = int(rng.integers(2, 6))
        sizes.append(n)
        if connected:
            adjacency = connected_adjacency(rng, n)
        else:
            upper = np.triu(rng.random((n, n)) < 0.4, k=1).astype(float)
            adjacency = upper + upper.T
        kind = "agent" if k < n_layers - 1 else "information"
        layers.append(
            LayerGraph(
                layer_id=k + 1,
                kind=kind,
                node_ids=tuple(f"L{k + 1}n{i}" for i in range(n)),
                adjacency=adjacency,
            )
        )
    couplings = []
    for a in range(1, n_layers + 1):
        for b in range(a + 1, n_layers + 1):
            if rng.random() < 0.85:
                matrix = (rng.random((sizes[a - 1], sizes[b - 1])) < 0.5).astype(float)
                couplings.append(InterLayerCoupling(from_layer=a, to_layer=b, coupling=matrix))
    network = InterconnectedNetwork(layers=tuple(layers), couplings=tuple(couplings))
    constants = DiffusionConstants(
        intra={k + 1: float(rng.uniform(0.5, 2.0)) for k in range(n_layers)},
        inter={
            (c.from_layer, c.to_layer): float(rng.uniform(0.5, 2.0)) for c in couplings
        },
    )
    return network, constants


def directed_network(rng, n_layers=3):
    """Random directed network: asymmetric layer weights, and each coupling
    declared in both directions with its own matrix and constant."""
    network, constants = random_network(rng, n_layers)
    layers = tuple(
        LayerGraph(
            layer.layer_id,
            layer.kind,
            layer.node_ids,
            layer.adjacency * rng.uniform(0.5, 2.0, layer.adjacency.shape),
        )
        for layer in network.layers
    )
    couplings = []
    for c in network.couplings:
        couplings.append(c)
        reverse = c.coupling.T * rng.uniform(0.5, 2.0, c.coupling.T.shape)
        couplings.append(InterLayerCoupling(c.to_layer, c.from_layer, reverse))
    inter = {}
    for (a, b), value in constants.inter.items():
        inter[(a, b)] = value
        inter[(b, a)] = float(rng.uniform(0.5, 2.0))
    return (
        InterconnectedNetwork(layers, tuple(couplings), symmetric=False),
        DiffusionConstants(intra=constants.intra, inter=inter, symmetric=False),
    )


def dense_coupling(network, a, b):
    """Dense coupling from layer a to layer b, or None when it is zero.  In
    symmetric mode an undeclared (a, b) is the declared (b, a) transposed."""
    declared = {(c.from_layer, c.to_layer): c.coupling.toarray() for c in network.couplings}
    if (a, b) in declared:
        return declared[(a, b)]
    if network.symmetric and (b, a) in declared:
        return declared[(b, a)].T
    return None


def brute_force_supra(network, constants):
    """Entry-by-entry reference assembly, independent of the production path."""
    total = network.n_nodes
    out = np.zeros((total, total))
    for layer in network.layers:
        sl = network.layer_slices[layer.layer_id]
        d = constants.intra[layer.layer_id]
        adjacency = layer.adjacency.toarray()
        n = layer.n_nodes
        for i in range(n):
            for j in range(n):
                w = adjacency[i, j]
                out[sl.start + i, sl.start + j] -= d * w
                out[sl.start + i, sl.start + i] += d * w
    for a in network.layer_ids:
        for b in network.layer_ids:
            if a == b:
                continue
            coupling = dense_coupling(network, a, b)
            if coupling is None:
                continue
            d = constants.inter_for(a, b)
            sa = network.layer_slices[a]
            sb = network.layer_slices[b]
            for i in range(coupling.shape[0]):
                for p in range(coupling.shape[1]):
                    w = coupling[i, p]
                    out[sa.start + i, sb.start + p] -= d * w
                    out[sa.start + i, sa.start + i] += d * w
    return out


def heterogeneous_network(rng):
    """Connected layers of different sizes joined by an uneven coupling, so the
    first-order connectivity estimate carries a genuine second-order error."""
    n1, n2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
    l1 = LayerGraph(1, "agent", tuple(f"a{i}" for i in range(n1)), connected_adjacency(rng, n1))
    l2 = LayerGraph(
        2, "information", tuple(f"d{i}" for i in range(n2)), connected_adjacency(rng, n2)
    )
    coupling = (rng.random((n1, n2)) < 0.6).astype(float)
    coupling[0, 0] = 1.0  # keep the coupled system connected
    network = InterconnectedNetwork(
        layers=(l1, l2), couplings=(InterLayerCoupling(1, 2, coupling),)
    )
    constants = DiffusionConstants(
        intra={1: float(rng.uniform(0.5, 1.5)), 2: float(rng.uniform(0.5, 1.5))},
        inter={(1, 2): 1.0},
    )
    return network, constants


def single_layer_supra(adjacency, constant=1.0, kind="agent"):
    n = len(adjacency)
    layer = LayerGraph(
        layer_id=1, kind=kind, node_ids=tuple(f"n{i}" for i in range(n)), adjacency=adjacency
    )
    network = InterconnectedNetwork(layers=(layer,), couplings=())
    supra = assemble_supra_laplacian(network, DiffusionConstants(intra={1: constant}))
    return network, supra


def closed_action_reference(a, x):
    """e^A X by the front end that closed propagation had to itself before
    it shared the learned operator's action: A - mu I in CSR with
    mu = trace(A) / n, its exact 1-norm, nnz(A) multiply-adds per product, and
    e^A formed from A's array where the norm times the column count times
    nnz(A) reaches 4 n^3, else the package's ``_taylor_action``."""
    mat = scipy.sparse.csr_array(a, dtype=float)
    n = mat.shape[0]
    columns = 1 if x.ndim == 1 else x.shape[1]
    mu = float(mat.trace()) / n
    shifted = mat - mu * scipy.sparse.eye_array(n, format="csr")
    norm = float(abs(shifted).sum(axis=0).max(initial=0.0))
    if not norm * columns * mat.nnz < 4 * n**3:
        return matrix_exponential(mat.toarray()) @ x
    return diffusion._taylor_action(shifted, mu, norm, x)


def kronecker_lift(supra, n_topics):
    """kron(I_T, -L) as a dense array: the learner's start, as a reference."""
    return np.kron(np.eye(int(n_topics)), -supra.csr.toarray())


def learned_operator(block, inputs, corrections, n_nodes, n_topics):
    """LearnedOperator with lambda_hat = kron(I_T, block) + corrections inputs^T."""
    return LearnedOperator(
        block=scipy.sparse.csr_array(block, dtype=float),
        inputs=np.asarray(inputs, dtype=float),
        corrections=np.asarray(corrections, dtype=float),
        gain=0.0,
        threshold=0.0,
        iteration_log=(0.0,),
        n_nodes=n_nodes,
        n_topics=n_topics,
        iterations=0,
        converged=True,
        initial_error=0.0,
        final_error=0.0,
        residual_variance=np.zeros(n_nodes * n_topics),
    )


def make_operator(lam, n_nodes, n_topics):
    """LearnedOperator whose lambda_hat is the given generator matrix, held as
    B = 0, X = I, G = lam, for filter tests; a nonzero lam takes the
    whole-state route."""
    lam = np.asarray(lam, dtype=float)
    dim = n_nodes * n_topics
    return learned_operator(np.zeros((n_nodes, n_nodes)), np.eye(dim), lam, n_nodes, n_topics)


def ring_supra(n_nodes):
    """A one-layer ring of ``n_nodes`` nodes and its supra-Laplacian, built
    from sparse triplets with no n x n array."""
    nodes = np.arange(n_nodes)
    ring = scipy.sparse.coo_array(
        (np.ones(n_nodes), (nodes, (nodes + 1) % n_nodes)), shape=(n_nodes, n_nodes)
    )
    layer = LayerGraph(1, "agent", tuple(f"n{i}" for i in range(n_nodes)), ring + ring.T)
    network = InterconnectedNetwork(layers=(layer,), couplings=())
    return network, assemble_supra_laplacian(network, DiffusionConstants(intra={1: 1.0}))


def topic_operator(block, n_topics):
    """LearnedOperator with lambda_hat = kron(I_T, block) and no correction:
    it runs per topic."""
    n_nodes = block.shape[0]
    empty = np.zeros((n_nodes * n_topics, 0))
    return learned_operator(block, empty, empty, n_nodes, n_topics)


def joined_final_state(result):
    """The whole state's last updated filter state from a ``FilterResult``'s
    ``final_states``: the estimates concatenated, the covariances and the
    transitions joined block-diagonally (a copy of the one whole-state filter's)."""
    states = result.final_states
    return KalmanState(
        x_hat=np.concatenate([state.x_hat for state in states]),
        pi=scipy.linalg.block_diag(*(state.pi for state in states)),
        phase=PHASE_UPDATED,
        f_hat=scipy.linalg.block_diag(*(state.f_hat for state in states)),
    )


@pytest.fixture
def hand_expanded_fixture():
    """3-layer, 2-node fixture whose operator was expanded by hand.

    Layers: two agent layers (ring / empty) and one document layer; identity
    coupling between the agent layers, asymmetric-looking 0/1 couplings to the
    documents; all constants 1.
    """
    l1 = LayerGraph(1, "agent", ("a0", "a1"), [[0, 1], [1, 0]])
    l2 = LayerGraph(2, "agent", ("a0", "a1"), [[0, 0], [0, 0]])
    l3 = LayerGraph(3, "information", ("d0", "d1"), [[0, 1], [1, 0]])
    network = InterconnectedNetwork(
        layers=(l1, l2, l3),
        couplings=(
            InterLayerCoupling(1, 2, np.eye(2)),
            InterLayerCoupling(1, 3, [[1, 1], [0, 1]]),
            InterLayerCoupling(2, 3, [[0, 1], [1, 0]]),
        ),
    )
    constants = DiffusionConstants(
        intra={1: 1.0, 2: 1.0, 3: 1.0},
        inter={(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0},
    )
    expected = np.array(
        [
            [4, -1, -1, 0, -1, -1],
            [-1, 3, 0, -1, 0, -1],
            [-1, 0, 2, 0, 0, -1],
            [0, -1, 0, 2, -1, 0],
            [-1, 0, 0, -1, 3, -1],
            [-1, -1, -1, 0, -1, 4],
        ],
        dtype=float,
    )
    return network, constants, expected
