"""Hypothesis properties of the shared block, union-find, Hom, thickened
constituent, rank-one decomposition, linkage-move, linkage-graph and
flag-normalised character code, past the fixed sweep bounds."""

import math
from fractions import Fraction
from operator import add

import networkx as nx
import pytest
import reference_linkage as ref
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from spolink import verify
from spolink.characters import ch_H0_sl2, ch_H0_spo, ch_L_sl2, ch_L_spo, peel
from spolink.frobenius import ch_l_r, comp_factors_r, hom_r
from spolink.linkage import (
    EVEN_MOVE,
    ISO_ODD,
    NONISO_ODD,
    LinkageMove,
    build_graph,
    components,
    connected_components,
)
from spolink.padic import TooManyTerms
from spolink.rootdata import (
    EVEN,
    ODD,
    GroupShape,
    ch_z_flag,
    chain_of_borels,
    lambda_bracket,
    pairing,
    phi_plus,
    rho_parts,
    standard_flag,
)
from spolink.sl2 import decompose_sl2
from spolink.spo21 import block_of, comp_factors_h0

primes = st.sampled_from((3, 5, 7, 11))
weights = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def small_graphs(draw):
    """Integer nodes in ascending order, as a range (the shape criterion 8 passes)
    or a sorted list, some isolated; pairs of positions into them with
    self-loops, repeats and both orders."""
    if draw(st.booleans()):
        lo = draw(st.integers(-30, 30))
        nodes = range(lo, lo + draw(st.integers(0, 60)))
    else:
        nodes = sorted(draw(st.sets(st.integers(-40, 40), max_size=60)))
    pairs = []
    if nodes:
        position = st.integers(0, len(nodes) - 1)
        pairs = draw(st.lists(st.tuples(position, position), max_size=80))
        if pairs:
            pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=20))]
        pairs += [(a, a) for a in draw(st.lists(position, max_size=5))]
        pairs = draw(st.permutations(pairs))
    return nodes, pairs


@settings(max_examples=300)
@given(small_graphs())
def test_connected_components_match_networkx(graph):
    nodes, pairs = graph
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from((nodes[a], nodes[b]) for a, b in pairs)
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


@settings(max_examples=100, deadline=None)
@given(weights, st.integers(-50, 50), st.integers(min_value=1, max_value=4),
       st.sampled_from((3, 5, 7)))
def test_thickened_factors_shift_and_fill_the_module(l, t, r, p):
    # shifting the head by t p^r shifts every factor by t p^r, and the
    # factors' simple characters add up to the 2 p^r-dimensional module
    q = p**r
    factors = comp_factors_r(l, r, p)
    assert comp_factors_r(l + t * q, r, p) == {hw + t * q for hw in factors}
    assert sum(len(ch_l_r(hw, r, p)) for hw in factors) == 2 * q


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1501, max_value=20000), st.sampled_from((3, 5, 7, 11, 101)))
def test_peels_equal_the_closed_forms_past_the_sweep_bounds(l, p):
    # the oracle sweeps stop at 1500; each example brings its own memo
    assert peel(ch_H0_spo(l), verify._memo(ch_L_spo, p)) == dict.fromkeys(comp_factors_h0(l, p), 1)
    assert peel(ch_H0_sl2(l), verify._memo(ch_L_sl2, p)) == dict.fromkeys(decompose_sl2(l, p), 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(min_value=0, max_value=3000), st.data())
def test_cover_verdicts_equal_the_peels(p, l, data):
    # criteria 2 and 4 test an exact cover by bitsets in place of a peel, up to
    # 1500; past that, the cover accepts both closed forms, and on a closed
    # form with one factor dropped, added or replaced it agrees with the peel
    for closed_form, ch_H0, ch_L, step in ((decompose_sl2, ch_H0_sl2, ch_L_sl2, 2),
                                           (comp_factors_h0, ch_H0_spo, ch_L_spo, 1)):
        factors = closed_form(l, p)
        packed = verify._memo(verify._packed, ch_L, p)
        assert verify._covers(factors, l, step, packed)
        kind = data.draw(st.sampled_from(("drop", "add", "replace")))
        mutant = set(factors)
        if kind != "add":
            mutant.discard(data.draw(st.sampled_from(sorted(factors))))
        if kind != "drop":
            mutant.add(data.draw(st.integers(0, l) | st.sampled_from((-2, -1, l + 1, l + 2))))
        want = peel(ch_H0(l), verify._memo(ch_L, p)) == dict.fromkeys(mutant, 1)
        assert verify._covers(mutant, l, step, packed) == want


@given(weights, weights, st.integers(min_value=1, max_value=4), primes)
def test_hom_r_is_one_dimensional_and_odd_or_zero(k, l, r, p):
    assert hom_r(k, l, r, p) in ((1, "odd"), (0, None))
    assert hom_r(k, 2 * p**r - k - 1, r, p) == (1, "odd")


@st.composite
def move_inputs(draw):
    """A shape of rank <= 3, a small box and a weight inside it."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1 if n == 0 else 0, 3 - n))
    shape = GroupShape(n, m, draw(st.sampled_from((ODD, EVEN))))
    box = []
    for _ in range(shape.rank):
        lo = draw(st.integers(-6, 6))
        box.append((lo, lo + draw(st.integers(0, 6))))
    lam = tuple(draw(st.integers(lo, hi)) for lo, hi in box)
    return shape, lam, box, draw(st.sampled_from((3, 5, 7))), draw(st.integers(1, 2))


def _standard_roots(shape):
    """2 rho and the positive roots, sorted, of the standard flag, straight
    from rootdata."""
    flag = standard_flag(shape)
    return rho_parts(flag, shape)[2], sorted(phi_plus(flag, shape), key=lambda root: root.vec)


def _moves_from(lam, kind, shape, box, p, r):
    """The moves of one kind out of lam in the graph on the box, in build order."""
    return [mv for mv in build_graph(box, shape, {r}, p).edges
            if mv.source == lam and mv.kind == kind]


def _in_box(weight, box):
    return all(lo <= x <= hi for x, (lo, hi) in zip(weight, box))


@settings(max_examples=300, deadline=None)
@given(move_inputs())
def test_moves_even_match_wall_enumeration(inputs):
    shape, lam, box, p, r = inputs
    rho2, roots = _standard_roots(shape)
    q = p**r
    shifted2 = [2 * c + h for c, h in zip(lam, rho2)]  # 2 (lam + rho)
    reach = max(map(abs, lam)) + max(abs(b) for lo_hi in box for b in lo_hi) + 1
    want = []
    for root in roots:
        if root.parity != "even":
            continue
        alpha = root.vec
        # <lam + rho, alpha^vee> with the positive-definite form
        coroot = Fraction(sum(x * a for x, a in zip(shifted2, alpha)), sum(a * a for a in alpha))
        # every kept step c satisfies 0 < c <= reach, so these walls cover the box
        for w in range(math.floor((coroot - reach) / q) - 1, math.ceil(coroot / q) + 1):
            c = coroot - w * q
            target = [x - c * a for x, a in zip(lam, alpha)]
            if c > 0 and all(t.denominator == 1 and lo <= t <= hi
                             for t, (lo, hi) in zip(target, box)):
                want.append(LinkageMove(EVEN_MOVE, alpha, lam, tuple(map(int, target)), r))
    assert _moves_from(lam, EVEN_MOVE, shape, box, p, r) == want


@settings(max_examples=300, deadline=None)
@given(move_inputs())
def test_odd_moves_match_the_pairing(inputs):
    # the targets of lam outside the box are not in the graph
    shape, lam, box, p, r = inputs
    rho2, roots = _standard_roots(shape)
    shifted2 = tuple(2 * a + b for a, b in zip(lam, rho2))  # 2 (lam + rho)
    iso = [root for root in roots if root.parity == "odd" and root.isotropic]
    want_iso = [
        tuple(x - a for x, a in zip(lam, root.vec))
        for root in iso
        if Fraction(pairing(shifted2, root.vec, shape), 2) % p == 0
    ]
    got_iso = _moves_from(lam, ISO_ODD, shape, box, p, r)
    assert [mv.target for mv in got_iso] == [t for t in want_iso if _in_box(t, box)]
    want_noniso = []
    for root in roots:
        if root.parity == "odd" and not root.isotropic:
            l = int(Fraction(pairing(shifted2, root.vec, shape) - 1, 2)) % p**r
            want_noniso += [
                tuple(x - (l - lp) * a for x, a in zip(lam, root.vec))
                for lp in sorted(comp_factors_r(l, r, p))
                if lp != l
            ]
    got_noniso = _moves_from(lam, NONISO_ODD, shape, box, p, r)
    assert [mv.target for mv in got_noniso] == [t for t in want_noniso if _in_box(t, box)]


@st.composite
def graph_inputs(draw):
    """A shape of rank <= 4, a small box, a prime and an r-set inside {1, 2, 3}.  At
    r = 3, q = p^3 >= 27 is about as wide as the widest box, so the even wall range is
    often empty, and the node ids are exercised at every stride."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(1 if n == 0 else 0, 4 - n))
    shape = GroupShape(n, m, draw(st.sampled_from((ODD, EVEN))))
    width = {1: 30, 2: 8, 3: 4, 4: 3}[shape.rank]
    box = []
    for _ in range(shape.rank):
        lo = draw(st.integers(-20, 20))
        box.append((lo, lo + draw(st.integers(0, width - 1))))
    r_set = draw(st.sets(st.sampled_from((1, 2, 3))))
    return shape, box, draw(st.sampled_from((3, 5, 7))), r_set


def _edge_set(graph):
    return {(mv.source, mv.target, mv.kind, mv.r) for mv in graph.edges}


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_build_graph_equals_the_reference_in_order(inputs):
    shape, box, p, r_set = inputs
    got = build_graph(box, shape, r_set, p)
    assert (got.nodes, tuple(got.edges)) == ref.build_graph(box, shape, r_set, p)


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_the_edge_view_reads_as_the_reference_edges(inputs):
    # the graph keeps id columns, and graph.edges builds each move when it is read
    shape, box, p, r_set = inputs
    graph = build_graph(box, shape, r_set, p)
    edges = tuple(graph.edges)
    assert edges == ref.build_graph(box, shape, r_set, p)[1]
    assert all(type(mv) is LinkageMove for mv in edges) and tuple(graph.edges) == edges
    position = {w: i for i, w in enumerate(graph.nodes)}
    pairs = [(position[mv.source], position[mv.target]) for mv in edges]
    assert components(graph) == connected_components(graph.nodes, pairs)


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_every_edge_shares_the_box_node_tuples(inputs):
    # each source and target is an element of nodes itself (the same object, not an
    # equal copy): targets are read from nodes by mixed-radix id
    shape, box, p, r_set = inputs
    graph = build_graph(box, shape, r_set, p)
    by_id = {id(w) for w in graph.nodes}
    assert all(id(mv.source) in by_id and id(mv.target) in by_id for mv in graph.edges)


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_graph_components_match_networkx(inputs):
    shape, box, p, r_set = inputs
    graph = build_graph(box, shape, r_set, p)
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((mv.source, mv.target) for mv in graph.edges)
    want = sorted((sorted(c) for c in nx.connected_components(g)), key=lambda c: c[0])
    assert components(graph) == want


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_components_only_merge_as_the_r_set_grows(inputs):
    shape, box, p, _ = inputs
    coarse = {w: i for i, comp in enumerate(components(build_graph(box, shape, {1, 2}, p)))
              for w in comp}
    for comp in components(build_graph(box, shape, {1}, p)):
        assert len({coarse[w] for w in comp}) == 1


@settings(max_examples=150, deadline=None)
@given(graph_inputs(), st.data())
def test_translating_the_box_by_p_to_the_r_translates_the_edges(inputs, data):
    # every move commutes with the translation by p^r u for each r in the set
    shape, box, p, r_set = inputs
    u = data.draw(st.lists(st.integers(-2, 2), min_size=shape.rank, max_size=shape.rank))
    shift = [p ** max(r_set, default=1) * c for c in u]
    moved = [(lo + s, hi + s) for (lo, hi), s in zip(box, shift)]
    translated = {(tuple(map(add, a, shift)), tuple(map(add, b, shift)), kind, r)
                  for a, b, kind, r in _edge_set(build_graph(box, shape, r_set, p))}
    assert translated == _edge_set(build_graph(moved, shape, r_set, p))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_rank_one_components_are_the_blocks_beyond_criterion_11(p, data):
    # criterion 11 checks the (1, 0) odd box [0, 4p^2] at r in {1, 2}; here
    # the box starts anywhere in [-3p^2, 3p^2], spans 2p^2 or 4p^2, and the
    # r-set is any nonempty part of {1, 2}
    lo = data.draw(st.integers(-3 * p * p, 3 * p * p))
    hi = lo + data.draw(st.sampled_from((2, 4))) * p * p
    r_set = data.draw(st.sets(st.sampled_from((1, 2)), min_size=1))
    graph = build_graph([(lo, hi)], GroupShape(1, 0, ODD), r_set, p)
    got = [[w for (w,) in comp] for comp in components(graph)]
    assert got == verify._partition_by(range(lo, hi + 1), lambda l: block_of(l, p))


# criterion 10 checks only the two (1, 1) shapes at p = 3, r = 1 on a 3x3 grid
FLAG_CASES = [(shape, p, 1) for shape in verify._shapes(3) for p in (3, 5)]
FLAG_CASES += [(shape, 3, 2) for shape in verify._shapes(2)]


@pytest.mark.parametrize(
    "shape, p, r", FLAG_CASES,
    ids=[f"{s.n}{s.m}{s.parity_type}-p{p}-r{r}" for s, p, r in FLAG_CASES],
)
@settings(max_examples=2, deadline=None)  # up to 1.7 s an example at (3, 0) odd, p = 5
@given(st.data())
def test_flag_normalised_characters_agree_across_chain_flags(shape, p, r, data):
    lam = tuple(data.draw(st.integers(-2 * p, 2 * p)) for _ in range(shape.rank))
    flags = [standard_flag(shape)] + [step.flag_to for step in chain_of_borels(shape)]
    try:
        chars = [ch_z_flag(lambda_bracket(lam, fl, shape, r, p), fl, shape, r, p)
                 for fl in flags]
    except TooManyTerms:
        reject()
    assert all(ch == chars[0] for ch in chars[1:]), (shape, lam, p, r)
