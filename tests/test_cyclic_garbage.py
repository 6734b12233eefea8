"""Searches and reductions free what they build by reference counting alone:
none leaves objects that only the cyclic garbage collector could reclaim, so
no collector pause lands inside a later call."""

import gc

import pytest

from ksumclique import solve_kclique_bruteforce, solve_nw_kclique, solve_nw_triangle
from ksumclique import reduce_sum_to_clique as fwd
from ksumclique.cli import REDUCTIONS, ExperimentConfig, run_equivalence_experiment

from util import complete_edges, cycle_edges, make_clique, make_ew_graph, make_nw_graph


def cyclic_garbage(run):
    """Objects left unreachable but uncollected by run(), counted with the
    collector off while it runs; the collector's earlier state is restored."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _first_then_close(alphas):
    next(alphas)  # StopIteration here would mean the case has no alpha to stop at
    alphas.close()


EW = make_ew_graph(5, complete_edges(5), 3, [1, -1, 0, 2, -2, 1, 0, -1, 1, 0])


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("search", [fwd.present_alpha_tuples, fwd.consistent_alpha_tuples])
def test_alpha_searches_leave_no_cycles_exhausted_or_closed(search, k):
    assert cyclic_garbage(lambda: list(search(EW, k))) == 0
    assert cyclic_garbage(lambda: _first_then_close(search(EW, k))) == 0


def test_full_alpha_enumeration_leaves_no_cycles():
    assert cyclic_garbage(lambda: list(fwd.alpha_tuples_full(2, 4))) == 0


@pytest.mark.parametrize("k", [3, 4, 5])
def test_clique_solvers_leave_no_cycles(k):
    n = 7
    weights = [3, -1, 4, 1, -5, 2, 6]
    hit = make_nw_graph(n, complete_edges(n), k, weights, sum(weights[:k]))
    miss = make_nw_graph(n, complete_edges(n), k, weights, 100)

    def run():
        for g in (make_clique(n, complete_edges(n), k), make_clique(n, cycle_edges(n), k), hit, miss):
            solve_kclique_bruteforce(g)
        for g in (hit, miss):
            solve_nw_kclique(g)
            if k == 3:
                solve_nw_triangle(g, backend="naive-mm")
                solve_nw_triangle(g, backend="degree-split")

    assert cyclic_garbage(run) == 0


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_experiments_leave_no_cycles(name):
    chain, source = (name,), REDUCTIONS[name].source
    if source == "vectorsum":  # no generator draws vector sums
        chain, source = ("ksum_to_vectorsum", name), "ksum"
    k_range = (2, 2) if source == "clique" else (2, 3)  # k = 3 cliques reduce past the brute oracles' budget
    cfg = ExperimentConfig(trials=4, seed=3, n_range=(3, 6), k_range=k_range, m_range=(0, 5), chain=chain,
                           source=source)
    assert cyclic_garbage(lambda: run_equivalence_experiment(cfg)) == 0
