"""Tests for ARock, DAve-PG, Bellman–Ford, relaxation and Newton solvers."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.delays.bounded import UniformRandomDelay
from repro.problems import (
    make_classification,
    make_lasso,
    make_logistic,
    make_network_flow_dual,
    make_regression,
    make_sparse_logistic,
    random_flow_network,
)
from repro.solvers import (
    ARockSolver,
    AsyncNewtonSolver,
    DAvePGSolver,
    NetworkFlowRelaxationSolver,
    async_bellman_ford,
    shard_gradients,
    sync_bellman_ford,
    weights_from_graph,
)
from repro.solvers.dave_pg import DAvePGSolver as _D


@pytest.fixture
def lasso():
    data = make_regression(80, 10, sparsity=0.3, seed=0)
    return make_lasso(data, l1=0.05, l2=0.1)


class TestARock:
    def test_converges_serial(self, lasso):
        res = ARockSolver(max_delay=0, seed=1).solve(lasso, tol=1e-8)
        assert res.converged
        assert res.error_to(lasso.solution()) < 1e-5

    def test_converges_with_delays(self, lasso):
        res = ARockSolver(max_delay=10, eta=0.6, seed=2).solve(
            lasso, tol=1e-8, max_iterations=500_000
        )
        assert res.converged
        assert res.error_to(lasso.solution()) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            ARockSolver(eta=0.0)
        with pytest.raises(ValueError):
            ARockSolver(eta=1.5)
        with pytest.raises(ValueError):
            ARockSolver(max_delay=-1)


class TestDAvePG:
    def test_converges_uniform_workers(self, lasso):
        res = DAvePGSolver(4, seed=3).solve(lasso, tol=1e-9)
        assert res.converged
        assert res.error_to(lasso.solution()) < 1e-6

    def test_converges_heterogeneous_rates(self, lasso):
        res = DAvePGSolver(
            4, worker_rates=np.array([8.0, 4.0, 2.0, 1.0]), seed=4
        ).solve(lasso, tol=1e-9, max_iterations=500_000)
        assert res.converged
        assert res.error_to(lasso.solution()) < 1e-6

    def test_sharded_gradients_average_to_full(self, lasso, rng):
        oracles = shard_gradients(lasso, 4)
        x = rng.standard_normal(lasso.dim)
        avg = np.mean([o(x) for o in oracles], axis=0)
        np.testing.assert_allclose(avg, lasso.smooth.gradient(x), atol=1e-10)

    def test_sharded_logistic_average_to_full(self, rng):
        data = make_classification(60, 6, seed=5)
        prob = make_logistic(data, l2=0.2)
        oracles = shard_gradients(prob, 3)
        x = rng.standard_normal(6)
        avg = np.mean([o(x) for o in oracles], axis=0)
        np.testing.assert_allclose(avg, prob.smooth.gradient(x), atol=1e-8)

    def test_trace_owners_are_workers(self, lasso):
        res = DAvePGSolver(3, seed=6).solve(lasso, tol=1e-8)
        assert res.trace is not None
        assert res.trace.n_components == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DAvePGSolver(0)
        with pytest.raises(ValueError):
            DAvePGSolver(2, worker_rates=np.array([1.0]))
        with pytest.raises(ValueError):
            DAvePGSolver(2, worker_rates=np.array([1.0, -1.0]))


#: Frozen comparator runs: ``(solver, problem) -> (sha256 of x.tobytes(),
#: iterations, converged, repr(final_residual), sha256 of the trace's
#: residuals or None)``.  Any change to a loop's arithmetic or to the
#: order of its RNG draws moves a digest.
COMPARATOR_GOLDEN = {
    ("arock-serial", "lasso"): (
        "42f0e52758f7b9ce0aab110fc6e8b1e61eb9ea35904617074a2c0bc00d5ad0f8",
        440, True, "9.066546486917959e-08", None,
    ),
    ("arock-delayed", "lasso"): (
        "d4639a7e2cce820798f636286e34b7bc4cb6bbf559b563f6689d86022d1d9c0a",
        460, True, "6.130798517656957e-08", None,
    ),
    ("dave-pg", "lasso"): (
        "222418c82ecad96dbe2a60a5a3d5244848603171d012f0156e412813211a4218",
        76, True, "8.491181631143748e-08",
        "5344cbcaceec0b9bf9ac8e4f930f9fc756cf02be14fc89b6bd2707bc1cd1b4b5",
    ),
    ("dave-pg-rates", "lasso"): (
        "a023bcf7ae1b73ea99ec907c568d3b9ee98d2dcb05315a3c4ba1c2b6fd851c1c",
        138, True, "5.014735725506736e-08",
        "e821896aeafbbed209d85af5875e0bc3fbc6e4fd3b09c08791400e1020ae197a",
    ),
    ("arock-serial", "sparse-logistic"): (
        "ef1536017846edc00eebd1c7765b773da507d8d8e533ca1db2c5bc43a45c2114",
        114, True, "7.649349378837162e-08", None,
    ),
    ("arock-delayed", "sparse-logistic"): (
        "d3d070485d7560b8ee560aae6eda84680466514f4b5d24b2274e74af3ce9feaa",
        174, True, "6.306368477103684e-08", None,
    ),
    ("dave-pg", "sparse-logistic"): (
        "ad16504be0eca54d3e6b71dcd4427a632d600d88eb87fd94e2709764c162ae5b",
        44, True, "4.052934624806515e-08",
        "f6d23d72b749fee82fd4163116be851f0aa13f0cd7489c2be77a5bd04f2249cc",
    ),
    ("dave-pg-rates", "sparse-logistic"): (
        "b891f5fbbc6340caf32181b1bed7b85111d41193c807356e509777563edaec62",
        75, True, "3.855151802876872e-08",
        "136066012e30c4c00add0fd04fe8b50dba9bf49044a623389086ecf53aa6e43d",
    ),
}

_COMPARATORS = {
    "arock-serial": lambda: ARockSolver(max_delay=0, seed=1),
    "arock-delayed": lambda: ARockSolver(max_delay=5, eta=0.8, seed=2),
    "dave-pg": lambda: DAvePGSolver(4, seed=3),
    "dave-pg-rates": lambda: DAvePGSolver(3, worker_rates=[1, 2, 4], seed=4),
}

_GOLDEN_PROBLEMS = {
    "lasso": lambda: make_lasso(make_regression(80, 10, sparsity=0.3, seed=0), l1=0.05, l2=0.1),
    "sparse-logistic": lambda: make_sparse_logistic(
        make_classification(60, 6, seed=5), l1=0.02, l2=0.1
    ),
}


@pytest.mark.parametrize("solver, problem", sorted(COMPARATOR_GOLDEN))
def test_comparator_golden(solver, problem):
    res = _COMPARATORS[solver]().solve(
        _GOLDEN_PROBLEMS[problem](), tol=1e-7, max_iterations=20_000
    )
    trace = None if res.trace is None else _sha256(res.trace.residuals.tobytes())
    got = (_sha256(res.x.tobytes()), res.iterations, res.converged,
           repr(res.final_residual), trace)
    assert got == COMPARATOR_GOLDEN[solver, problem]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestBellmanFord:
    @pytest.fixture
    def graph(self):
        g = nx.gnp_random_graph(25, 0.2, seed=1, directed=True)
        for u, v in g.edges:
            g[u][v]["weight"] = 1.0 + ((u * 7 + v) % 10) / 3.0
        return g

    def test_sync_matches_networkx(self, graph):
        W = weights_from_graph(graph)
        res = sync_bellman_ford(W, destination=0)
        # networkx: shortest path TO node 0 = reverse graph from 0
        rev = graph.reverse()
        dist = nx.single_source_dijkstra_path_length(rev, 0, weight="weight")
        for node, d in dist.items():
            assert res.x[node] == pytest.approx(d, abs=1e-9)

    def test_async_matches_sync(self, graph):
        W = weights_from_graph(graph)
        rs = sync_bellman_ford(W, 0)
        ra = async_bellman_ford(W, 0, seed=2)
        np.testing.assert_allclose(ra.x, rs.x, atol=1e-9)

    def test_async_with_heavy_delays(self, graph):
        W = weights_from_graph(graph)
        n = W.shape[0]
        ra = async_bellman_ford(
            W, 0, delays=UniformRandomDelay(n, 20, seed=3), seed=4
        )
        rs = sync_bellman_ford(W, 0)
        np.testing.assert_allclose(ra.x, rs.x, atol=1e-9)

    def test_negative_weight_rejected(self):
        g = nx.DiGraph()
        g.add_nodes_from([0, 1])
        g.add_edge(1, 0, weight=-1.0)
        with pytest.raises(ValueError):
            weights_from_graph(g)

    def test_bad_node_labels_rejected(self):
        g = nx.DiGraph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError):
            weights_from_graph(g)


class TestNetworkFlowRelaxation:
    def test_all_modes_agree(self, flow_network):
        results = {}
        for mode in ("sync_jacobi", "sync_gauss_seidel", "async"):
            r = NetworkFlowRelaxationSolver("relaxation", mode, seed=5).solve(
                flow_network, tol=1e-11
            )
            assert r.converged, mode
            results[mode] = r
        p_ref = results["sync_jacobi"].x
        for mode, r in results.items():
            np.testing.assert_allclose(r.x, p_ref, atol=1e-7)
            assert r.info["primal_infeasibility"] < 1e-7

    def test_gradient_method_agrees_with_relaxation(self, flow_network):
        r1 = NetworkFlowRelaxationSolver("relaxation", "async", seed=6).solve(
            flow_network, tol=1e-11
        )
        r2 = NetworkFlowRelaxationSolver("gradient", "async", seed=7).solve(
            flow_network, tol=1e-11
        )
        np.testing.assert_allclose(r1.x, r2.x, atol=1e-6)

    def test_recovered_flows_conserve(self, flow_network):
        r = NetworkFlowRelaxationSolver("relaxation", "async", seed=8).solve(
            flow_network, tol=1e-12
        )
        A = flow_network.incidence_matrix()
        np.testing.assert_allclose(
            A @ r.info["flows"], flow_network.supplies, atol=1e-7
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkFlowRelaxationSolver("bogus")
        with pytest.raises(ValueError):
            NetworkFlowRelaxationSolver("relaxation", "bogus")


class TestAsyncNewton:
    def test_converges_on_flow_dual(self):
        prob = make_network_flow_dual(14, 0.3, seed=9)
        res = AsyncNewtonSolver(4, seed=10).solve(prob, tol=1e-10)
        assert res.converged
        assert res.error_to(prob.solution()) < 1e-7

    def test_newton_beats_gradient_per_iteration(self):
        """Block Newton needs far fewer updates than scalar relaxation."""
        from repro.solvers import AsyncSolver

        prob = make_network_flow_dual(14, 0.3, seed=11)
        rn = AsyncNewtonSolver(4, seed=12).solve(prob, tol=1e-9)
        rg = AsyncSolver(seed=13).solve(prob, tol=1e-9, max_iterations=500_000)
        assert rn.converged and rg.converged
        assert rn.iterations < rg.iterations

    def test_rejects_nonsmooth(self, lasso):
        with pytest.raises(ValueError, match="smooth"):
            AsyncNewtonSolver().solve(lasso)
