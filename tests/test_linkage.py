from fractions import Fraction
from math import gcd

import pytest

from spolink import linkage

from spolink.frobenius import comp_factors_r
from spolink.linkage import (
    EVEN_MOVE,
    ISO_ODD,
    NONISO_ODD,
    TooManyEdges,
    build_graph,
    components,
)
from spolink.rootdata import (
    EVEN, ODD, GroupShape, Root, pairing, phi_plus, rho_parts, standard_flag,
)
from spolink.spo21 import block_of


def _moves(graph, source, kind, r=1):
    """The graph's moves of one kind and r out of one source, in build order."""
    return [m for m in graph.edges if m.source == source and m.kind == kind and m.r == r]


def test_iso_odd_known():
    shape = GroupShape(1, 1, ODD)
    # the box holds every iso target of both sources
    graph = build_graph([(0, 3), (0, 3)], shape, {1}, 3)
    moves = _moves(graph, (2, 1), ISO_ODD)
    # both isotropic roots pair to a multiple of 3 at this weight
    assert {(m.alpha, m.target) for m in moves} == {
        ((1, -1), (1, 2)),
        ((1, 1), (1, 0)),
    }
    # at (1, 1) the shifted pairings are 2 and -1: nothing divides
    assert _moves(graph, (1, 1), ISO_ODD) == []


def test_iso_odd_pairings_are_integral():
    for t in (ODD, EVEN):
        shape = GroupShape(2, 1, t)
        rho2 = rho_parts(standard_flag(shape), shape)[2]
        for root in phi_plus(standard_flag(shape), shape):
            if root.parity == "odd" and root.isotropic:
                for lam in [(0, 0, 0), (1, 2, 3), (-2, 5, 1)]:
                    # (lam + rho, alpha), halved from 2 (lam + rho)
                    val = Fraction(pairing(
                        tuple(2 * a + b for a, b in zip(lam, rho2)), root.vec, shape
                    ), 2)
                    assert val.denominator == 1


def test_noniso_odd_even_type_is_empty():
    shape = GroupShape(2, 1, EVEN)
    roots = phi_plus(standard_flag(shape), shape)
    assert not any(root.parity == "odd" and not root.isotropic for root in roots)
    graph = build_graph([(0, 4), (0, 2), (-1, 1)], shape, {1, 2}, 3)
    assert (3, 1, 0) in graph.nodes
    assert not any(m.kind == NONISO_ODD for m in graph.edges)


def test_noniso_odd_rank1_known():
    shape = GroupShape(1, 0, ODD)
    # l = 3 mod 3 = 0; the non-head thickened constituent at head 0 is -1, a step of 1
    graph = build_graph([(0, 6)], shape, {1}, 3)
    moves = _moves(graph, (3,), NONISO_ODD)
    assert [m.target for m in moves] == [(2,)]


def test_noniso_targets_match_constituents():
    shape = GroupShape(1, 0, ODD)
    for p in (3, 5):
        # every target c - (l - l') has 0 <= l - l' < 2 p^2, so the box holds it
        graph = build_graph([(-2 * p * p, 40)], shape, {1, 2}, p)
        for r in (1, 2):
            q = p**r
            for c in range(0, 40):
                moves = _moves(graph, (c,), NONISO_ODD, r)
                l = c % q
                want = {c - (l - lp) for lp in comp_factors_r(l, r, p) if lp != l}
                assert {m.target[0] for m in moves} == want


def test_moves_even_rank1_known():
    shape = GroupShape(1, 0, ODD)
    moves = _moves(build_graph([(-20, 20)], shape, {1}, 3), (3,), EVEN_MOVE)
    assert {m.target[0] for m in moves} == {2, -4, -10, -16}
    # every reflected weight stays in the block of the source
    for m in moves:
        if m.target[0] >= 0:
            assert block_of(m.target[0], 3) == block_of(3, 3)


def test_moves_follow_single_root_directions():
    shape = GroupShape(1, 1, ODD)
    box = [(-6, 6), (-6, 6)]
    graph = build_graph(box, shape, {1}, 3)
    for mv in graph.edges:
        diff = tuple(a - b for a, b in zip(mv.source, mv.target))
        assert any(c != 0 for c in diff)
        ratios = {
            Fraction(d, a) for d, a in zip(diff, mv.alpha) if a != 0
        }
        assert len(ratios) == 1
        assert ratios.pop() > 0
        assert all(d == 0 for d, a in zip(diff, mv.alpha) if a == 0)


def test_graph_components_rank1_blocks():
    shape = GroupShape(1, 0, ODD)
    p = 3
    hi = 4 * p * p
    graph = build_graph([(0, hi)], shape, {1, 2}, p)
    comps = components(graph)
    assert len(comps) == p
    for comp in comps:
        blocks = {block_of(w[0], p) for w in comp}
        assert len(blocks) == 1


def test_components_of_empty_edge_set():
    shape = GroupShape(1, 0, ODD)
    graph = build_graph([(0, 5)], shape, set(), 3)
    assert components(graph) == [[(c,)] for c in range(6)]


def test_edges_monotone_in_r_set():
    shape = GroupShape(1, 0, ODD)
    p = 3
    small = build_graph([(0, 30)], shape, {1}, p)
    large = build_graph([(0, 30)], shape, {1, 2}, p)
    small_pairs = {(m.source, m.target, m.kind, m.r) for m in small.edges}
    large_pairs = {(m.source, m.target, m.kind, m.r) for m in large.edges}
    assert small_pairs <= large_pairs


def test_rank2_graph_stays_inside_iso_blocks():
    # weights joined by any move agree in every pairing invariant mod p used
    # by the rank-one specialisations along each coordinate line
    shape = GroupShape(1, 1, ODD)
    box = [(-8, 8), (-8, 8)]
    graph = build_graph(box, shape, {1}, 3)
    assert graph.src  # the box is large enough to produce moves
    comps = components(graph)
    assert sum(len(c) for c in comps) == len(graph.nodes)


def test_edge_cap_stops_the_build(monkeypatch):
    box, shape = [(0, 36)], GroupShape(1, 0, ODD)
    n_edges = len(build_graph(box, shape, {1, 2}, 3).src)
    monkeypatch.setattr(linkage, "MAX_EDGES", n_edges)
    assert len(build_graph(box, shape, {1, 2}, 3).src) == n_edges
    monkeypatch.setattr(linkage, "MAX_EDGES", n_edges - 1)
    with pytest.raises(TooManyEdges, match=f"MAX_EDGES = {n_edges - 1:,}"):
        build_graph(box, shape, {1, 2}, 3)


def test_even_integrality_assert_fires(monkeypatch):
    # 2 rho.alpha = 1 is odd, so v = 2 (lam + rho).alpha is odd at every lam
    # and v alpha_i / alpha.alpha is never an integer
    monkeypatch.setattr(linkage, "phi_plus", lambda flag, shape: {Root((1, 1), "even", None)})
    monkeypatch.setattr(linkage, "rho_parts", lambda flag, shape: ((0, 0), (0, 0), (1, 0)))
    with pytest.raises(AssertionError):
        build_graph([(0, 2), (0, 2)], GroupShape(1, 1, ODD), {1}, 3)


def test_gcd_integrality_equals_the_per_coordinate_check():
    # the even moves assert d | v gcd(alpha) in place of d | v alpha_i for each i
    shapes = [GroupShape(n, m, t) for n in range(5) for m in range(5 - n) if n + m
              for t in (ODD, EVEN)]
    for shape in shapes:
        for root in phi_plus(standard_flag(shape), shape):
            if root.parity != "even":
                continue
            alpha = root.vec
            d, g = sum(a * a for a in alpha), gcd(*alpha)
            for v in range(-50, 50):
                assert (v * g % d == 0) == all(v * a % d == 0 for a in alpha), (alpha, v)
