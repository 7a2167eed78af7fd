import inspect
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
import reference_linkage as ref
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_standard_positive_roots_have_a_positive_id_offset():
    # build_graph sorts packed (source, code, target) keys and relies on the targets of
    # one source and code ascending as the step s of lam - s alpha descends: every
    # standard positive root leads with a positive coordinate no smaller than the rest,
    # so its id offset is positive on every box in which a move along it can stay
    shapes = [GroupShape(n, m, t) for n in range(5) for m in range(5 - n) if n + m
              for t in (ODD, EVEN)]
    for shape in shapes:
        roots = [root.vec for root in phi_plus(standard_flag(shape), shape)]
        for alpha in roots:
            lead = next(a for a in alpha if a)
            assert lead > 0 and all(abs(a) <= lead for a in alpha), alpha
        for widths in product((1, 2, 3), repeat=shape.rank):
            strides = [prod(widths[i + 1:]) for i in range(shape.rank)]
            for alpha in roots:
                off = sum(a * w for a, w in zip(alpha, strides))
                assert off > 0 or any(a and w == 1 for a, w in zip(alpha, widths)), (alpha, widths)


def _assert_builds_the_reference(box, shape, r_set, p, build=build_graph):
    got = build(box, shape, r_set, p)
    assert (got.nodes, tuple(got.edges)) == ref.build_graph(box, shape, r_set, p)


@st.composite
def wide_boxes(draw):
    """Rank 1 up to 6 p^2 wide, rank 2 up to 2 p^2 a side, and an r-set inside {1, 2, 3}:
    at r >= 2 a node here sees several walls of one root, and without 1 in the set the
    walls at the least r are not those at p."""
    p = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(0, 2))
    m = draw(st.integers(1 if n == 0 else 0, 2 - n))
    shape = GroupShape(n, m, draw(st.sampled_from((ODD, EVEN))))
    width = 6 * p * p if shape.rank == 1 else 2 * p * p
    box = []
    for _ in range(shape.rank):
        lo = draw(st.integers(-p * p, p * p))
        box.append((lo, lo + draw(st.integers(0, width - 1))))
    return box, shape, draw(st.sets(st.sampled_from((1, 2, 3)), min_size=1)), p


@settings(max_examples=40, deadline=None)
@given(wide_boxes())
def test_wide_boxes_build_the_reference_in_order(inputs):
    _assert_builds_the_reference(*inputs)


def _mutant(*edits):
    """build_graph with each (old, new) of edits made to its source, old found once."""
    source = inspect.getsource(linkage.build_graph)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    scope = dict(vars(linkage))
    exec(source, scope)
    return scope["build_graph"]


def test_a_build_without_its_sort_is_out_of_order():
    # the passes emit root by root; only the sort puts the edges in node order
    mutant = _mutant(("sorted(keys)", "keys"))
    box, shape = [(0, 8), (0, 8)], GroupShape(1, 1, ODD)
    assert {*mutant(box, shape, {1, 2}, 3).edges} == {*build_graph(box, shape, {1, 2}, 3).edges}
    with pytest.raises(AssertionError):
        _assert_builds_the_reference(box, shape, {1, 2}, 3, mutant)


def test_a_build_that_floors_the_lowest_wall_fails():
    # at r above the least, the walls are the multiples of m in [w_lo, w_hi]: the
    # lowest is ceil(w_lo / m); floor adds a wall whose target leaves the box, and its
    # id then reads a node out of range
    mutant = _mutant(("-(-w_lo // m)", "w_lo // m"))
    with pytest.raises((AssertionError, IndexError)):
        _assert_builds_the_reference([(0, 40)], GroupShape(1, 0, ODD), {1, 2}, 3, mutant)


# tracemalloc's peaks for test_the_edge_cap_stays_cheap_in_memory's builds, which
# MAX_EDGES = 10,000 stops: 3,610,791 bytes (odd) and 2,709,055 (even) for the per-node
# builder before the edges became sorted keys, 3,625,843 and 2,724,067 for this one, mostly
# the 20,001 node tuples and the columns of pairings and coordinates.  Each bound is the
# per-node builder's peak plus 5%.
CAPPED_PEAK_BOUNDS = {ODD: 3_800_000, EVEN: 2_850_000}


def _capped_peak(monkeypatch, build, box, shape, r_set, cap=10_000):
    """tracemalloc's peak over a build at p = 3 that MAX_EDGES = cap stops."""
    monkeypatch.setitem(build.__globals__, "MAX_EDGES", cap)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyEdges):
            build(box, shape, r_set, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("parity", [ODD, EVEN])
def test_the_edge_cap_stays_cheap_in_memory(monkeypatch, parity):
    # the running count stops the build within a pass, a node after the cap; a whole
    # even pass over this box would hold some 10^8 edge keys
    peak = _capped_peak(monkeypatch, build_graph, [(0, 20_000)], GroupShape(1, 0, parity), {1, 2})
    assert peak < CAPPED_PEAK_BOUNDS[parity]


def _iso_peak_ratio(monkeypatch, build):
    """A refused (1, 1) box's peak at r in 1..40 over its peak at r = 1.  The first root
    of the build is iso, with some 3,300 hits here, well past MAX_EDGES = 1,000."""
    box, shape = [(0, 99), (0, 99)], GroupShape(1, 1, ODD)
    return (_capped_peak(monkeypatch, build, box, shape, set(range(1, 41)), 1_000)
            / _capped_peak(monkeypatch, build, box, shape, {1}, 1_000))


def test_a_refused_iso_pass_holds_one_r_of_edges(monkeypatch):
    # an iso root's hits serve every r, and the running count stops its pass at the
    # first r that passes MAX_EDGES, so 40 r cost what one does
    assert _iso_peak_ratio(monkeypatch, build_graph) < 1.1


def test_a_build_without_its_running_edge_cap_passes_the_memory_bounds(monkeypatch):
    # with only the check after each pass, each pass runs to its end before the cap stops
    # the build: the odd box's noniso pass, and the (1, 1) box's iso pass at all 40 r; the
    # even box is cut to 2,001 nodes, since its full even pass is what the running count saves
    check = " " * 16 + "if len(keys) > cap:\n" + " " * 20 + "break\n"
    mutant = _mutant(("hits))\n" + check, "hits))\n"), ("s * off)\n" + check, "s * off)\n"),
                     (" " * 20 + "if len(keys) > cap:\n" + " " * 24 + "break\n", ""))
    odd, even = GroupShape(1, 0, ODD), GroupShape(1, 0, EVEN)
    assert _capped_peak(monkeypatch, mutant, [(0, 20_000)], odd, {1, 2}) > CAPPED_PEAK_BOUNDS[ODD]
    assert _capped_peak(monkeypatch, mutant, [(0, 2_000)], even, {1, 2}) > CAPPED_PEAK_BOUNDS[EVEN]
    assert _iso_peak_ratio(monkeypatch, mutant) > 1.1
