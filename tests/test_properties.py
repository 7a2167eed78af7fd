"""Hypothesis properties of the shared block, union-find and Hom code, past
the fixed sweep bounds."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from spolink.frobenius import comp_factors_r, hom_r
from spolink.linkage import connected_components
from spolink.spo21 import block_of

primes = st.sampled_from((3, 5, 7, 11))
weights = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def small_graphs(draw):
    nodes = draw(st.sets(st.integers(-20, 20), max_size=25))
    node_list = sorted(nodes)
    pairs = []
    if node_list:
        node = st.sampled_from(node_list)
        pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    return node_list, pairs


@given(small_graphs())
def test_connected_components_match_networkx(graph):
    nodes, pairs = graph
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(pairs)
    want = sorted((sorted(c) for c in nx.connected_components(g)), key=lambda c: c[0])
    assert connected_components(nodes, pairs) == want


@given(weights, primes)
def test_block_of_is_periodic_and_reflected(l, p):
    b = block_of(l, p)
    assert 0 <= b < p
    assert block_of(l + 2 * p, p) == b
    assert block_of(2 * p - 1 - l, p) == b


@settings(max_examples=60, deadline=None)
@given(weights, st.integers(min_value=1, max_value=3), primes)
def test_block_of_constant_on_thickened_factors(l, r, p):
    b = block_of(l, p)
    assert all(block_of(f, p) == b for f in comp_factors_r(l, r, p))


@given(weights, weights, st.integers(min_value=1, max_value=4), primes)
def test_hom_r_is_one_dimensional_and_odd_or_zero(k, l, r, p):
    assert hom_r(k, l, r, p) in ((1, "odd"), (0, None))
    assert hom_r(k, 2 * p**r - k - 1, r, p) == (1, "odd")
