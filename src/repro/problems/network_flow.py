"""Convex separable network flow problems and their dual relaxation.

The paper's own application domain ([6], [8]): minimum-cost flow with
strictly convex separable arc costs,

    ``min_x  sum_a f_a(x_a)   s.t.  A x = b``

with ``A`` the node-arc incidence matrix and ``b`` the supply vector
(``sum_i b_i = 0``).  Quadratic arc costs
``f_a(x_a) = (w_a/2) x_a^2 + r_a x_a`` give a smooth dual in the node
prices ``p``:

    ``min_p  phi(p) = sum_a ((A'p)_a - r_a)^2 / (2 w_a) - b'p``

whose gradient is the *flow surplus* ``A x(p) - b`` with the primal
recovery ``x_a(p) = ((A'p)_a - r_a)/w_a``.  Each node's gradient
component only involves its incident arcs — the distributed relaxation
("price adjustment") method of Bertsekas & El Baz, and the setting in
which asynchronous convergence with unbounded delays was first proved
for optimization.

The dual Hessian ``A W^{-1} A'`` is the weighted graph Laplacian, which
is singular (constant shift of prices); we ground a reference node and
optimize over the remaining prices, making the problem mu-strongly
convex for connected networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.problems.base import CompositeProblem, SmoothProblem
from repro.operators.proximal import ZeroRegularizer
from repro.utils.rng import as_generator
from repro.utils.validation import check_vector

__all__ = ["FlowNetwork", "NetworkFlowDualProblem", "random_flow_network", "make_network_flow_dual"]


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with quadratic arc costs and node supplies.

    Attributes
    ----------
    n_nodes:
        Number of nodes.
    arcs:
        Array of shape ``(m, 2)``: ``arcs[a] = (tail, head)``.
    weights:
        Positive quadratic coefficients ``w_a``.
    linear:
        Linear coefficients ``r_a``.
    supplies:
        Node supplies ``b`` with ``sum(b) == 0``.
    """

    n_nodes: int
    arcs: np.ndarray
    weights: np.ndarray
    linear: np.ndarray
    supplies: np.ndarray

    def __post_init__(self) -> None:
        arcs = np.asarray(self.arcs, dtype=np.int64)
        if arcs.ndim != 2 or arcs.shape[1] != 2:
            raise ValueError(f"arcs must have shape (m, 2), got {arcs.shape}")
        if np.any(arcs < 0) or np.any(arcs >= self.n_nodes):
            raise ValueError("arc endpoints out of node range")
        if np.any(arcs[:, 0] == arcs[:, 1]):
            raise ValueError("self-loop arcs are not allowed")
        w = check_vector(self.weights, "weights", dim=arcs.shape[0])
        if np.any(w <= 0):
            raise ValueError("arc weights must be strictly positive")
        check_vector(self.linear, "linear", dim=arcs.shape[0])
        b = check_vector(self.supplies, "supplies", dim=self.n_nodes)
        if abs(float(np.sum(b))) > 1e-9 * max(1.0, float(np.max(np.abs(b)))):
            raise ValueError("supplies must sum to zero (balanced network)")
        object.__setattr__(self, "arcs", arcs)

    @property
    def n_arcs(self) -> int:
        return self.arcs.shape[0]

    def incidence_matrix(self) -> np.ndarray:
        """Dense node-arc incidence ``A``: +1 at the tail, -1 at the head."""
        A = np.zeros((self.n_nodes, self.n_arcs))
        A[self.arcs[:, 0], np.arange(self.n_arcs)] = 1.0
        A[self.arcs[:, 1], np.arange(self.n_arcs)] = -1.0
        return A

    def is_connected(self) -> bool:
        """Whether the underlying undirected graph is connected."""
        import networkx as nx  # the one networkx use: keep imports light

        g = nx.Graph()
        g.add_nodes_from(range(self.n_nodes))
        g.add_edges_from(map(tuple, self.arcs))
        return nx.is_connected(g)

    def arc_cost(self, flows: np.ndarray) -> float:
        """Total primal cost ``sum_a (w_a/2) x_a^2 + r_a x_a``."""
        x = check_vector(flows, "flows", dim=self.n_arcs)
        return float(0.5 * np.sum(self.weights * x * x) + np.sum(self.linear * x))


class NetworkFlowDualProblem(SmoothProblem):
    """Grounded dual of the quadratic network flow problem.

    The decision variable is the reduced price vector
    ``p in R^{n_nodes - 1}`` (the reference node's price is fixed at
    zero).  ``objective``/``gradient`` evaluate the reduced dual
    ``phi``; :meth:`recover_flows` maps prices to primal flows and
    :meth:`surplus` reports the per-node conservation violation that
    drives the relaxation method.
    """

    def __init__(self, network: FlowNetwork, reference_node: int = 0) -> None:
        if not network.is_connected():
            raise ValueError("network must be connected for a strongly convex reduced dual")
        if not 0 <= reference_node < network.n_nodes:
            raise IndexError(f"reference_node {reference_node} out of range")
        self.network = network
        self.reference_node = int(reference_node)
        A = network.incidence_matrix()
        keep = [i for i in range(network.n_nodes) if i != reference_node]
        self._keep = np.array(keep, dtype=np.int64)
        self._A_red = A[self._keep, :]
        self._Winv = 1.0 / network.weights
        # Reduced Hessian: grounded weighted Laplacian.
        H = (self._A_red * self._Winv[None, :]) @ self._A_red.T
        eigs = np.linalg.eigvalsh(H)
        super().__init__(len(keep), float(eigs[0]), float(eigs[-1]))
        self._H = H
        self._b_red = network.supplies[self._keep]
        self._r = network.linear
        # Constant linear term of the gradient: A_red W^{-1} (-r) - b_red.
        self._g0 = -(self._A_red @ (self._Winv * self._r)) - self._b_red
        self._sol: np.ndarray | None = None

    # -- smooth problem contract ---------------------------------------
    def objective(self, p: np.ndarray) -> float:
        p = np.asarray(p, dtype=np.float64)
        t = self._A_red.T @ p  # (A'p) on arcs, reference price = 0
        resid = t - self._r
        return 0.5 * float(np.sum(self._Winv * resid * resid)) - float(self._b_red @ p)

    def gradient(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        return self._H @ p + self._g0

    def gradient_block(self, p: np.ndarray, sl: slice) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)
        return self._H[sl, :] @ p + self._g0[sl]

    def hessian(self, p: np.ndarray) -> np.ndarray:
        return self._H.copy()

    def solution(self) -> np.ndarray | None:
        if self._sol is None:
            self._sol = np.linalg.solve(self._H, -self._g0)
        return self._sol.copy()

    # -- network-flow specifics ------------------------------------------
    def full_prices(self, p: np.ndarray) -> np.ndarray:
        """Embed reduced prices into all-node prices (reference = 0)."""
        p = check_vector(p, "p", dim=self.dim)
        full = np.zeros(self.network.n_nodes)
        full[self._keep] = p
        return full

    def recover_flows(self, p: np.ndarray) -> np.ndarray:
        """Primal flows ``x_a(p) = ((A'p)_a - r_a) / w_a``."""
        full = self.full_prices(p)
        A = self.network.incidence_matrix()
        t = A.T @ full
        return (t - self._r) * self._Winv

    def surplus(self, p: np.ndarray) -> np.ndarray:
        """Per-node conservation violation ``A x(p) - b`` (all nodes)."""
        flows = self.recover_flows(p)
        A = self.network.incidence_matrix()
        return A @ flows - self.network.supplies

    def primal_infeasibility(self, p: np.ndarray) -> float:
        """Max-norm flow-conservation violation at prices ``p``."""
        return float(np.max(np.abs(self.surplus(p))))


def random_flow_network(
    n_nodes: int,
    arc_density: float = 0.3,
    *,
    supply_scale: float = 1.0,
    weight_range: tuple[float, float] = (0.5, 2.0),
    seed: int | np.random.Generator | None = 0,
) -> FlowNetwork:
    """Random connected flow network with quadratic arc costs.

    A random spanning tree guarantees connectivity; extra arcs are
    added i.i.d. with probability ``arc_density``.  Supplies are
    centered Gaussian (balanced by construction).
    """
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not 0.0 <= arc_density <= 1.0:
        raise ValueError(f"arc_density must lie in [0, 1], got {arc_density}")
    rng = as_generator(seed)
    arcs: list[tuple[int, int]] = []
    # Random spanning tree (random attachment order).
    order = rng.permutation(n_nodes)
    for k in range(1, n_nodes):
        parent = order[rng.integers(0, k)]
        child = order[k]
        if rng.random() < 0.5:
            arcs.append((int(parent), int(child)))
        else:
            arcs.append((int(child), int(parent)))
    existing = set(arcs)
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if (i, j) in existing or (j, i) in existing:
                continue
            if rng.random() < arc_density:
                arc = (i, j) if rng.random() < 0.5 else (j, i)
                arcs.append(arc)
                existing.add(arc)
    arcs_arr = np.array(arcs, dtype=np.int64)
    m = arcs_arr.shape[0]
    lo, hi = weight_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid weight_range {weight_range}")
    weights = rng.uniform(lo, hi, size=m)
    linear = rng.standard_normal(m)
    b = supply_scale * rng.standard_normal(n_nodes)
    b -= b.mean()
    return FlowNetwork(n_nodes, arcs_arr, weights, linear, b)


def make_network_flow_dual(
    n_nodes: int = 30,
    arc_density: float = 0.3,
    *,
    seed: int | np.random.Generator | None = 0,
) -> CompositeProblem:
    """Convenience builder: random network, grounded dual, no regularizer."""
    net = random_flow_network(n_nodes, arc_density, seed=seed)
    return CompositeProblem(NetworkFlowDualProblem(net), ZeroRegularizer())
