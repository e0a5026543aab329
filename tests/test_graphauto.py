import contextlib
import copy
import gc
import io
import itertools
import math
import time
import timeit
import weakref
from collections import Counter, defaultdict, deque
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qscd import graphauto
from qscd.graphauto import (
    _contract,
    _search,
    _refined_cells,
    Graph,
    PromiseInstance,
    PromiseViolation,
    _with_gadgets,
    automorphisms,
    build_query,
    complement,
    coset_sample,
    disjoint_union,
    group_order,
    iter_automorphisms,
    koebler_reduce,
    parse_graph,
    unique_ga_ff_oracle,
)
from qscd.permgroup import (
    Permutation,
    compose,
    identity,
    inverse,
    is_cyclic_class,
    is_ff_degree,
    random_permutation,
    sign,
)
from qscd.qscdff import convert, distinguish
from qscd.reductions import AttackParams, ga_attack, omniscient_distinguisher
from qscd.selftest import RIGID7A, RIGID7B, planted_no_instance, planted_yes_instance

from oracles import (
    RIGID6,
    brute_automorphism_count,
    brute_automorphisms,
    format_graph,
    from_cycles,
    has_nontrivial_automorphism,
)


def path(n):
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


K2 = Graph(2, frozenset({(1, 2)}))
K3 = Graph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = Graph(3, frozenset({(1, 2), (2, 3)}))


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph(n, frozenset(p for b, p in enumerate(pairs) if mask >> b & 1))


class TestGraph:
    def test_canonicalizes_edge_order(self):
        assert Graph(3, frozenset({(3, 1)})).edges == frozenset({(1, 3)})

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 2)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 4)}))

    def test_file_roundtrip(self):
        g = Graph(4, frozenset({(1, 2), (2, 4), (1, 3)}))
        assert parse_graph(format_graph(g)) == g
        assert format_graph(g) == "4 3\n1 2\n1 3\n2 4\n"

    def test_parser_rejects_duplicates_self_loops_and_order(self):
        with pytest.raises(ValueError):
            parse_graph("3 2\n1 2\n1 2\n")
        with pytest.raises(ValueError):
            parse_graph("3 1\n2 2\n")
        with pytest.raises(ValueError):
            parse_graph("3 1\n3 1\n")

    def test_connectivity_and_complement(self):
        # a connected graph's scan names no base, read as the graph itself
        assert P3._scan[0] is None
        two_isolated = Graph(2, frozenset())
        assert two_isolated._scan[0] == complement(two_isolated)
        assert complement(two_isolated) == K2
        # complementing preserves the automorphism list exactly
        for g in all_graphs(4):
            auts = {p.image for p in brute_automorphisms(4, g.edges)}
            auts_c = {p.image for p in brute_automorphisms(4, complement(g).edges)}
            assert auts == auts_c


class TestAutomorphisms:
    def test_single_edge(self):
        auts = automorphisms(K2)
        assert {p.image for p in auts} == {(1, 2), (2, 1)}

    def test_matches_brute_force_on_small_graphs(self):
        # every labelled graph on up to 5 nodes (1024 of them on 5), as the
        # same list in the same order, and the order counted without it
        for n in (1, 2, 3, 4, 5):
            for g in all_graphs(n):
                got = [p.image for p in automorphisms(g)]
                want = sorted(p.image for p in brute_automorphisms(n, g.edges))
                assert got == want
                assert group_order(g) == len(want)

    def test_group_order_of_known_graphs(self):
        nx = pytest.importorskip("networkx")

        def from_nx(h):
            h = nx.convert_node_labels_to_integers(h, first_label=1)
            return Graph(h.number_of_nodes(), frozenset(h.edges()))

        residues = {x * x % 13 for x in range(1, 13)}
        paley13 = Graph(13, frozenset(
            (u, v) for u, v in itertools.combinations(range(1, 14), 2) if (v - u) % 13 in residues
        ))
        known = [
            (from_nx(nx.petersen_graph()), 120),
            (paley13, 78),
            (from_nx(nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4))), 1152),
            (from_nx(nx.hypercube_graph(4)), 384),
            (from_nx(nx.dodecahedral_graph()), 120),
            (from_nx(nx.desargues_graph()), 240),
        ]
        for g, order in known:
            assert group_order(g) == order
            assert sum(1 for _ in iter_automorphisms(g)) == order

    def test_matches_networkx_on_path_queries(self):
        # the first query of the 8- and 13-node path scans (398 and 962
        # nodes, rigid) and the 8-node path's YES query, against VF2
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        for n, i, j in [(8, 7, 8), (13, 12, 13), (8, 1, 8)]:
            q = build_query(path(n), i, j)
            nxg = nx.Graph(list(q.edges))
            nxg.add_nodes_from(range(1, q.node_count + 1))
            want = sorted(
                tuple(m[v] for v in range(1, q.node_count + 1))
                for m in GraphMatcher(nxg, nxg).isomorphisms_iter()
            )
            assert [p.image for p in automorphisms(q, node_limit=4000)] == want

    def test_long_path_needs_no_recursion(self):
        auts = automorphisms(path(3000), node_limit=4000)
        assert len(auts) == 2
        assert [p for p in auts if p != identity(p.n)][0].image == tuple(range(3000, 0, -1))

    def test_rigid_witness_is_smallest(self):
        # the frozen 6-node witness is rigid (checked against the full S_6
        # scan), and no graph on 2..5 nodes is
        assert len(brute_automorphisms(6, RIGID6.edges)) == 1
        assert len(automorphisms(RIGID6)) == 1
        for n in range(2, 6):
            assert all(has_nontrivial_automorphism(n, g.edges) for g in all_graphs(n))

    def test_rigid_seven_node_instances(self):
        for g in (RIGID7A, RIGID7B):
            assert len(brute_automorphisms(7, g.edges)) == 1
            assert len(automorphisms(g)) == 1

    def test_doubled_rigid_graph_has_copy_swap(self):
        doubled = disjoint_union(RIGID7A, RIGID7A)
        auts = automorphisms(doubled)
        assert len(auts) == 2
        swap = [p for p in auts if p != identity(p.n)][0]
        assert is_cyclic_class(swap, 2)

    def test_closure_under_compose_and_inverse(self):
        for g in (K3, P3, disjoint_union(RIGID7A, RIGID7A)):
            elements = {p.image for p in automorphisms(g)}
            assert identity(g.node_count).image in elements
            for a_img in elements:
                a = Permutation(a_img)
                assert inverse(a).image in elements
                for b_img in elements:
                    assert compose(a, Permutation(b_img)).image in elements

    def test_node_limit(self):
        with pytest.raises(ValueError):
            automorphisms(Graph(41, frozenset()), node_limit=40)

    def test_pointwise_stabilizer(self):
        auts = automorphisms(K3)
        assert len(auts) == 6
        assert len([p for p in auts if p(1) == 1]) == 2
        assert len([p for p in auts if p(1) == 1 and p(2) == 2]) == 1


def scan_queries(g):
    """Every query of koebler_reduce's full scan of g (an oracle that never says YES)."""
    queries = []
    koebler_reduce(g, oracle=lambda q: queries.append(q) or 0)
    return queries


def scan_pairs(g):
    """(base, i, j) of every query of koebler_reduce's full scan of g, in scan
    order: the base is g when networkx finds it connected, else its complement."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(1, g.node_count + 1))
    base = g if nx.is_connected(h) else complement(g)
    n = base.node_count
    return [(base, i, j) for i in range(n, 0, -1) for j in range(i + 1, n + 1)]


def scanned_bases():
    # the paths on 2..14 nodes and every graph on up to 4 nodes
    return [path(n) for n in range(2, 15)] + [g for n in range(1, 5) for g in all_graphs(n)]


@pytest.fixture(scope="module")
def scanned_queries():
    return [q for g in scanned_bases() for q in scan_queries(g)]


def oracle_answer(q):
    """The oracle's count, or its refusal: a full scan goes on past its
    first YES, and some later queries break the promise."""
    try:
        return unique_ga_ff_oracle(q)
    except PromiseViolation as err:
        return str(err)


def refined_cells_reference(adj, start):
    """The splitter loop as it was, grouping each step through a sorted list,
    from the cells of a starting colouring numbered in colour order."""
    rank = {c: k for k, c in enumerate(sorted(set(start)))}
    colors = [rank[c] for c in start]
    cells = [{v for v in range(len(adj)) if colors[v] == k} for k in range(len(rank))]
    pending, queued = deque(range(len(cells))), set(range(len(cells)))
    while pending:
        s = pending.popleft()
        queued.discard(s)
        hits: dict[int, int] = {}
        for u in cells[s]:
            for w in adj[u]:
                hits[w] = hits.get(w, 0) + 1
        touched: dict[tuple[int, int], list[int]] = defaultdict(list)
        for w, k in hits.items():
            touched[colors[w], k].append(w)
        for c, keys in groupby(sorted(touched), key=itemgetter(0)):
            moved = [touched[key] for key in keys]
            if sum(map(len, moved)) < len(cells[c]):
                cells[c].difference_update(*moved)
            elif len(moved) > 1:
                cells[c] = set(moved.pop(0))
            else:
                continue
            pieces = [c]
            for part in moved:
                pieces.append(len(cells))
                cells.append(set(part))
                for w in part:
                    colors[w] = pieces[-1]
            if c not in queued:
                pieces.remove(max(pieces, key=lambda p: len(cells[p])))
            for p in pieces:
                if p not in queued:
                    queued.add(p)
                    pending.append(p)
    return cells, colors


# The Frucht graph: cubic, so refinement leaves one cell, and rigid.
FRUCHT = Graph(12, frozenset({
    (1, 2), (1, 7), (1, 8), (2, 3), (2, 8), (3, 4), (3, 9), (4, 5), (4, 10),
    (5, 6), (5, 10), (6, 7), (6, 11), (7, 11), (8, 12), (9, 10), (9, 12), (11, 12),
}))


class TestRefinement:
    def test_matches_reference_loop_on_scan_queries(self, scanned_queries):
        # n(n-1)/2 queries a scan: 455 for the paths, 410 for the small graphs
        assert len(scanned_queries) == 865
        for q in scanned_queries:
            adj, one_cell = q.adjacency(), [0] * q.node_count
            assert _refined_cells(adj, one_cell) == refined_cells_reference(adj, one_cell)

    def test_matches_reference_loop_on_kept_graphs(self, scanned_queries):
        # the same queries contracted, each as a parsed graph and as the
        # oracle contracts it: the kept graph from its label colouring
        coloured = 0
        for q in scanned_queries:
            for adj, colors, _, _ in (_contract(q.node_count, q.edges), q._contraction):
                assert _refined_cells(adj, colors) == refined_cells_reference(adj, colors)
                coloured += len(set(colors)) > 1
        assert coloured > 1600

    def test_single_cell_rigid_graph_is_still_searched(self):
        cells, _ = _refined_cells(FRUCHT.adjacency(), [0] * 12)
        assert len(cells) == 1
        assert [p.image for p in iter_automorphisms(FRUCHT)] == [identity(12).image]

    def test_discrete_refinement_means_rigid(self):
        # every graph on 1..5 nodes (only the 1-node one refines to single
        # vertices, as every other one has a symmetry), every 97th graph on 6
        # nodes and the frozen 6- and 7-node witnesses, against brute force
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs.extend(itertools.islice(all_graphs(6), 0, None, 97))
        graphs.extend((RIGID6, RIGID7A, RIGID7B))
        discrete = 0
        for g in graphs:
            cells, _ = _refined_cells(g.adjacency(), [0] * g.node_count)
            if len(cells) == g.node_count:
                discrete += 1
                assert len(brute_automorphisms(g.node_count, g.edges)) == 1
                assert [p.image for p in iter_automorphisms(g)] == [identity(g.node_count).image]
        assert discrete > 10

    def test_query_graphs_equal_public_construction(self, scanned_queries):
        for q in scanned_queries:
            assert Graph(q.node_count, q.edges) == q


@st.composite
def forests(draw, max_nodes, max_extra=0, connected=False):
    """A random forest, shuffled: each node after the first hangs from an
    earlier one or starts a tree, or, when connected, always hangs. Up to
    max_extra random edges close cycles, which leaves pendant trees on a
    2-core."""
    n = draw(st.integers(1, max_nodes))
    edges = {(p, v) for v in range(2, n + 1) if (p := draw(st.integers(int(connected), v - 1)))}
    for _ in range(draw(st.integers(0, max_extra))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    name = draw(st.permutations(range(1, n + 1)))
    return Graph(n, frozenset((name[u - 1], name[v - 1]) for u, v in edges))


@st.composite
def twin_branches(draw, max_nodes, connected=False):
    """A random host with two or three copies of one small rooted tree hung
    on one of its nodes, so that siblings share a label."""
    host = draw(forests(3, max_extra=2, connected=connected))
    room = max_nodes - host.node_count
    size = draw(st.integers(1, min(3, room // 2)))  # nodes in each copy
    tree = [draw(st.integers(0, k)) for k in range(size - 1)]  # tree[k]: parent of node k + 1
    copies = draw(st.integers(2, min(3, room // size)))
    at = draw(st.integers(1, host.node_count))
    edges, count = set(host.edges), host.node_count
    for _ in range(copies):
        root = count + 1
        edges.add((at, root))
        edges.update((root + p, root + k + 1) for k, p in enumerate(tree))
        count += size
    return Graph(count, frozenset(edges))


def promise_by_full_search(g):
    """The promise verdict from the whole-graph search: the group, sorted by
    image, or the refusal message."""
    if not is_ff_degree(g.node_count):
        return f"node count {g.node_count} is not 2 mod 4"
    elements = sorted(itertools.islice(iter_automorphisms(g, 4000), 3), key=lambda p: p.image)
    if len(elements) > 2:
        return "3 or more automorphisms; the promise allows at most 2"
    if len(elements) == 2 and not is_cyclic_class(elements[1], 2):
        return "nontrivial automorphism is not a fixed-point-free involution"
    return tuple(p.image for p in elements)


def promise_verdict(g):
    try:
        elements = PromiseInstance(g).aut_elements()
    except PromiseViolation as err:
        with pytest.raises(PromiseViolation, match=str(err)):
            unique_ga_ff_oracle(g)
        return str(err)
    assert unique_ga_ff_oracle(g) == len(elements) - 1
    return tuple(p.image for p in elements)


def networkx_order(g, cap=5000):
    """|Aut(g)| counted by VF2, or cap + 1 when it is larger than cap."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph(list(g.edges))
    h.add_nodes_from(range(1, g.node_count + 1))
    return sum(1 for _ in itertools.islice(GraphMatcher(h, h).isomorphisms_iter(), cap + 1))


class TestContraction:
    """The promise oracle and group_order search the kept graph only: the
    2-core plus each tree's centres, coloured by rooted-tree label."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(forests(8, max_extra=3), twin_branches(8)))
    def test_group_order_matches_brute_force(self, g):
        assert group_order(g) == brute_automorphism_count(g.node_count, g.edges)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(forests(11), forests(11, max_extra=4), twin_branches(11)))
    def test_group_order_matches_networkx(self, g):
        want = networkx_order(g)
        if want <= 5000:
            assert group_order(g) == want
        else:
            assert group_order(g) > 5000

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(forests(14), forests(14, max_extra=4), twin_branches(14)))
    def test_promise_verdict_matches_the_full_search(self, g):
        assert promise_verdict(g) == promise_by_full_search(g)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(forests(7, max_extra=3), twin_branches(7)))
    def test_doubled_graph_verdict_matches_the_full_search(self, g):
        # two copies of an odd-sized graph: a copy swap, YES when the copy is rigid
        if g.node_count % 2 == 1:
            doubled = disjoint_union(g, g)
            assert promise_verdict(doubled) == promise_by_full_search(doubled)

    def test_paths_isolated_nodes_and_edges(self):
        edgeless = [Graph(n, frozenset()) for n in (1, 2, 6)]
        matchings = [Graph(2 * k, frozenset((2 * t - 1, 2 * t) for t in range(1, k + 1))) for k in (1, 3)]
        graphs = [*edgeless, *matchings, *(path(n) for n in range(1, 15))]
        graphs += [disjoint_union(path(n), RIGID7A) for n in (3, 7)]  # odd paths, 2 mod 4 in all
        graphs += [disjoint_union(K2, RIGID6), disjoint_union(Graph(1, frozenset()), path(5))]
        for g in graphs:
            assert group_order(g) == len(automorphisms(g)), g
            assert promise_verdict(g) == promise_by_full_search(g), g
        # even paths on 2 mod 4 nodes flip with no fixed point; odd paths fix their middle
        for k in range(4):
            flip = tuple(range(4 * k + 2, 0, -1))
            assert promise_verdict(path(4 * k + 2)) == (identity(4 * k + 2).image, flip)
        assert promise_verdict(disjoint_union(path(3), RIGID7A)).endswith("fixed-point-free involution")
        assert promise_verdict(matchings[1]).startswith("3 or more")

    def test_labels_ignore_the_order_children_are_peeled_in(self):
        # Node 1 joins two copies of a tree: a root with a one-leaf child and
        # a two-leaf child. The leaves are numbered so that the one-leaf
        # child is peeled first in one copy and last in the other.
        edges = {(1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (5, 7)}  # leaf 4 before 6, 7
        edges |= {(1, 8), (8, 9), (9, 13), (8, 10), (10, 11), (10, 12)}  # leaves 11, 12 before 13
        g = Graph(13, frozenset(edges))
        assert group_order(g) == networkx_order(g) == 8

    def test_star_order_is_the_tree_product(self):
        star = Graph(10, frozenset((1, v) for v in range(2, 11)))
        assert group_order(star) == math.factorial(9)
        adj, colors, product, _ = _contract(star.node_count, star.edges)
        assert (adj, product) == ([set()], math.factorial(9))

    def test_aut_elements_equal_the_full_search_on_scan_queries(self, scanned_queries):
        # inside the promise the full search's first three elements are its whole group
        verdicts = [promise_verdict(q) for q in scanned_queries]
        assert verdicts == [promise_by_full_search(q) for q in scanned_queries]
        assert sum(len(v) == 2 for v in verdicts if not isinstance(v, str)) > 100


def hang_one(g, node, index):
    """g with one gadget of the given index hung on `node`, as a query's gadgets are hung."""
    n = g.node_count
    return Graph(3 * n + 3 + index, _with_gadgets(g.edges, [(node, n + 1, n, index)]))


class TestAttachLabel:
    def test_node_count_arithmetic(self):
        for n in range(1, 7):
            g = Graph(n, frozenset((i, i + 1) for i in range(1, n)))
            for j in range(1, 7):
                labeled = hang_one(g, 1, j)
                added = labeled.edges - g.edges
                assert len(added) == 2 * n + j + 3
                assert {v for e in added for v in e} - {1} == set(range(n + 1, labeled.node_count + 1))
                assert labeled.node_count == n + 2 * n + j + 3

    def test_labeled_node_is_pinned(self):
        for node in (1, 2):
            labeled = hang_one(K2, node, 1)
            for alpha in automorphisms(labeled, node_limit=100):
                assert alpha(node) == node

    def test_labels_add_no_automorphism(self):
        for g in (K2, K3, P3):
            before = len(automorphisms(g))
            after = len(automorphisms(hang_one(g, 1, 1), node_limit=100))
            assert after <= before


def chain_by_chain_query(n, base_edges, fixed, i, j):
    """(node count, edges) of a query, built one chain at a time.

    The construction build_query used before it collected one edge set:
    every gadget made a new graph from the last one, and the second labeled
    copy was shifted past the first by a disjoint union.
    """

    def attach_chain(count, edges, node, chain_len, branch_pos, tail_len):
        edges = set(edges)
        prev = node
        for k in range(1, chain_len + 1):
            edges.add((prev, count + k))
            prev = count + k
        prev = count + branch_pos
        for k in range(1, tail_len + 1):
            edges.add((prev, count + chain_len + k))
            prev = count + chain_len + k
        return count + chain_len + tail_len, edges

    k = len(fixed)
    base_total = n + sum(2 * n + t + 3 for t in range(1, k + 1)) + 2 * (2 * n + 3) + (2 * k + 3)
    tails = None
    for ca in range(6):
        for cb in range(6):
            a, b = k + 1 + ca, k + 2 + cb
            if (base_total + ca + cb) % 2 == 1 and a != b and a != n + 1 and b != n + 1:
                tails = (a, b)
                break
        if tails:
            break

    def labeled_copy(a_node, b_node):
        count, edges = n, set(base_edges)
        for t, node in enumerate(fixed, start=1):
            count, edges = attach_chain(count, edges, node, 2 * n + 3, n + 2, t)
        count, edges = attach_chain(count, edges, a_node, 2 * n + 3, n + 2, tails[0])
        return attach_chain(count, edges, b_node, 2 * n + 3, n + 2, tails[1])

    count_a, edges_a = labeled_copy(i, j)
    count_b, edges_b = labeled_copy(j, i)
    edges = edges_a | {(u + count_a, v + count_a) for u, v in edges_b}
    return count_a + count_b, {(min(u, v), max(u, v)) for u, v in edges}


class TestBuildQuery:
    def test_node_count_always_admissible(self):
        for n in range(2, 7):
            g = Graph(n, frozenset((i, i + 1) for i in range(1, n)))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    q = build_query(g, i, j)
                    assert q.node_count % 4 == 2

    def test_yes_instance_has_unique_fpf_swap(self):
        # K_2 swaps 1 and 2; the path 1-2-3 swaps 1 and 3 around its center.
        for g, i, j in [(K2, 1, 2), (P3, 1, 3)]:
            q = build_query(g, i, j)
            auts = automorphisms(q, node_limit=200)
            assert len(auts) == 2
            swap = [p for p in auts if p != identity(p.n)][0]
            assert is_cyclic_class(swap, 2)

    def test_no_instance_is_rigid(self):
        # no automorphism of either base exchanges these target pairs
        for g, i, j in [(P3, 1, 2), (RIGID6, 1, 2)]:
            q = build_query(g, i, j)
            assert len(automorphisms(q, node_limit=250)) == 1

    def test_hand_counted_size(self):
        # path on 3 nodes, no fixed nodes: each copy is 3 base nodes plus
        # two gadgets of 9+1 and 9+3 nodes, so 25 per copy and 50 in all
        assert build_query(P3, 1, 3).node_count == 50

    def test_k3_pair_query_is_yes(self):
        # K_3 has the transposition (2 3) fixing node 1.
        q = build_query(K3, 2, 3)
        auts = automorphisms(q, node_limit=200)
        assert len(auts) == 2
        assert is_cyclic_class([p for p in auts if p != identity(p.n)][0], 2)

    def test_matches_chain_by_chain_construction(self):
        # every query of the path scans on 2..8 nodes and of every labelled
        # graph on up to 4 nodes, a disconnected one complemented as
        # koebler_reduce does, against the earlier construction that built
        # a new graph for every chain, renumbered with both copies first. A
        # query builds its edges on first read, so equality both ways, hash
        # and repr each get a fresh one.
        graphs = [path(n) for n in range(2, 9)] + [g for n in range(1, 5) for g in all_graphs(n)]
        for g, i, j in (pair for h in graphs for pair in scan_pairs(h)):
            count, chained = chain_by_chain_query(g.node_count, g.edges, list(range(1, i)), i, j)
            # the old nodes in the new order: copy A, copy B, A's gadgets, B's gadgets
            n, half = g.node_count, count // 2
            old = [*range(1, n + 1), *range(half + 1, half + n + 1), *range(n + 1, half + 1), *range(half + n + 1, count + 1)]
            new = {v: k for k, v in enumerate(old, 1)}
            edges = {tuple(sorted((new[u], new[v]))) for u, v in chained}
            eager = Graph(count, frozenset(edges))
            assert build_query(g, i, j) == eager
            assert eager == build_query(g, i, j)
            assert hash(build_query(g, i, j)) == hash(eager)
            shown = repr(build_query(g, i, j))
            q = build_query(g, i, j)
            assert (q.node_count, q.edges) == (count, edges)
            assert shown == f"Graph(node_count={count}, edges={q.edges!r})"

    def test_numbers_both_copies_before_the_gadgets(self):
        # every scan query: the copies are nodes 1..n and n+1..2n, the first
        # copy's gadgets hang before the second's, and the gadgets run on
        # from 2n+1, each starting where the one before it ends, up to the
        # query's last node
        for g, i, j in (pair for h in scanned_bases() for pair in scan_pairs(h)):
            n, q = g.node_count, build_query(g, i, j)
            base, hung = vars(q)["_unhung"]
            assert base is g
            assert base._scan[1] == g.edges | {(u + n, v + n) for u, v in g.edges}
            hosts = [node for node, _, _, _ in hung]
            assert hosts == sorted(hosts, key=lambda v: v > n) and hosts[0] <= n < hosts[-1] <= 2 * n
            end = 2 * n
            for _, root, m, tail in hung:
                assert root == end + 1
                end += 2 * m + 3 + tail
            assert end == q.node_count

    def test_rejects_degenerate_arguments(self):
        # a pair outside 1 <= i < j <= n: equal, reversed, below 1, past n
        for i, j in [(1, 1), (2, 1), (0, 2), (1, 4)]:
            with pytest.raises(ValueError, match=r"need 1 <= i < j <= 3"):
                build_query(K3, i, j)

    def test_a_scan_searches_its_base_for_connectivity_once(self, monkeypatch):
        # koebler_reduce and every build_query of a scan read one answer,
        # kept on the graph; a second scan of the same graph searches nothing.
        # The 6-node path with an isolated node is searched, and so is the
        # complement it keeps, which its scans query.
        calls, adjacency = [], Graph.adjacency
        monkeypatch.setattr(Graph, "adjacency", lambda g: calls.append(g) or adjacency(g))
        g = path(6)
        assert len(scan_queries(g)) == 15
        assert calls == [g]
        scan_queries(g)
        assert calls == [g]
        calls.clear()
        g = Graph(7, path(6).edges)
        assert len(scan_queries(g)) == 21
        assert calls == [g, complement(g)]
        scan_queries(g)
        assert calls == [g, complement(g)]

    def test_a_scan_peels_its_base_once(self, monkeypatch):
        # every query of a scan labels one peel of its base's two copies,
        # kept on the graph; a second scan of the same graph peels nothing,
        # also when the base is the complement of a disconnected graph
        calls, peel = [], graphauto._peel
        monkeypatch.setattr(graphauto, "_peel", lambda *args: calls.append(args) or peel(*args))
        for g, first_yes in [(path(6), 15), (Graph(7, path(6).edges), 20)]:
            calls.clear()
            answers = []
            assert koebler_reduce(g, oracle=lambda q: answers.append(unique_ga_ff_oracle(q)) or answers[-1]) == 1
            assert answers == [0] * (first_yes - 1) + [1]
            assert len(calls) == 1
            assert koebler_reduce(g) == 1
            assert len(calls) == 1

    def test_scanned_graphs_and_queries_are_freed_without_the_collector(self):
        # no graph holds itself through its scan, so with the cyclic
        # collector off a scanned connected graph, a disconnected one with
        # the complement it keeps, and a YES query with its base, edge set,
        # contraction and extended automorphisms are each freed when their
        # last reference goes
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = path(6)
            answer = koebler_reduce(g)
            refs = [weakref.ref(g)]
            del g
            assert answer == 1 and [ref() for ref in refs] == [None]
            g = Graph(7, path(6).edges)
            answer = koebler_reduce(g)
            refs = [weakref.ref(g), weakref.ref(g._scan[0])]
            del g
            assert answer == 1 and [ref() for ref in refs] == [None, None]
            q = build_query(path(6), 1, 6)
            # two trees, each a path copy with its gadgets: nodes less 2 edges
            answer, edges = unique_ga_ff_oracle(q), q.node_count - len(q.edges)
            inst = PromiseInstance(q)
            key = inst.hidden_key()  # the flip onto the other copy: 1 to 6 + 6
            refs = [weakref.ref(q), weakref.ref(vars(q)["_unhung"][0]), weakref.ref(inst)]
            del q, inst
            assert (answer, edges, key.image[0]) == (1, 2, 12)
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_queries_leave_their_base_peel_unchanged(self):
        # a scan's queries share one kept graph and one parent, peeled and
        # kept list; neither the oracle nor a YES query's extension to
        # whole automorphisms changes them
        for g in scanned_bases():
            for base, i, j in scan_pairs(g):
                before = copy.deepcopy(base._scan[1:])
                q = build_query(base, i, j)
                answer = oracle_answer(q)
                assert q._contraction[0] is base._scan[2][3]
                assert base._scan[1:] == before
                if answer == 1:
                    PromiseInstance(build_query(base, i, j)).aut_elements()
                    assert base._scan[1:] == before

    def test_refuses_a_disconnected_base(self):
        # a disconnected base is refused before any query is built, once
        # its complement, the path 1-3-2, is built and kept; koebler_reduce
        # queries that complement
        lone = Graph(3, frozenset({(1, 2)}))
        for i, j in [(1, 2), (1, 3), (2, 3)]:
            with pytest.raises(ValueError, match="connected base"):
                build_query(lone, i, j)
        assert koebler_reduce(lone) == 1


class TestOracle:
    def test_rigid_padded_query_is_no(self):
        q = build_query(RIGID6, 1, 2)
        assert unique_ga_ff_oracle(q) == 0

    def test_planted_doubled_graph_is_yes(self):
        doubled = disjoint_union(RIGID7A, RIGID7A)
        assert doubled.node_count == 14
        assert unique_ga_ff_oracle(doubled) == 1

    def test_promise_violation_on_k3(self):
        with pytest.raises(PromiseViolation):
            unique_ga_ff_oracle(K3)

    def test_promise_violation_on_bad_node_count(self):
        with pytest.raises(PromiseViolation):
            unique_ga_ff_oracle(Graph(4, frozenset()))

    def test_search_stops_at_a_third_automorphism(self):
        # the edgeless 14-node graph has 14! automorphisms; three suffice
        edgeless = Graph(14, frozenset())
        for check in (unique_ga_ff_oracle, lambda g: PromiseInstance(g).aut_elements()):
            start = time.perf_counter()
            with pytest.raises(PromiseViolation, match="the promise allows at most 2"):
                check(edgeless)
            assert time.perf_counter() - start < 1.0

    def test_node_limit_counts_the_base_not_the_query(self):
        # the 8-node path's first query: 398 nodes, of which a handful are
        # kept; the limit counts its base's 8, as reduce-ga counts the graph
        # it is given, and an oversized query is refused before any of it is
        # contracted
        q = build_query(path(8), 7, 8)
        assert q.node_count == 398
        with pytest.raises(ValueError, match="^8 nodes exceeds the configured limit 7$"):
            unique_ga_ff_oracle(q, node_limit=7)
        assert "_contraction" not in vars(q)
        assert len(_contract(q.node_count, q.edges)[0]) < 20
        assert unique_ga_ff_oracle(q, node_limit=8) == 0
        # a graph with no base, such as a planted instance, counts its own nodes
        doubled = disjoint_union(RIGID7A, RIGID7A)
        with pytest.raises(ValueError, match="^14 nodes exceeds the configured limit 13$"):
            unique_ga_ff_oracle(doubled, node_limit=13)
        assert unique_ga_ff_oracle(doubled, node_limit=14) == 1

    def test_promise_violation_on_fixed_point_automorphism(self):
        # path 1-2-3 next to a rigid 7-node graph: 10 nodes, and the unique
        # nontrivial automorphism is the path's end swap, which fixes node 2
        padded = disjoint_union(P3, RIGID7A)
        assert padded.node_count == 10
        with pytest.raises(PromiseViolation, match="fixed-point-free"):
            unique_ga_ff_oracle(padded)

    def test_promise_violation_on_a_fixed_point_in_the_core(self):
        # the triangle 1-2-3 with the path 1-4-5-6 hung on node 1: the unique
        # nontrivial automorphism swaps 2 and 3 and fixes the core vertex 1
        tadpole = Graph(6, frozenset({(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (5, 6)}))
        assert len(automorphisms(tadpole)) == 2
        message = "nontrivial automorphism is not a fixed-point-free involution"
        with pytest.raises(PromiseViolation, match=message):
            unique_ga_ff_oracle(tadpole)
        with pytest.raises(PromiseViolation, match=message):
            PromiseInstance(tadpole).aut_elements()

    def test_answers_without_building_a_permutation(self, scanned_queries, monkeypatch):
        # every scan query gets the same answer, a count or a refusal, when
        # building a permutation in graphauto raises
        want = [oracle_answer(q) for q in scanned_queries]

        def refuse(image):
            raise AssertionError("the oracle built a permutation")

        monkeypatch.setattr(graphauto, "Permutation", refuse)
        assert [oracle_answer(q) for q in scanned_queries] == want
        assert want.count(1) > 100
        with pytest.raises(AssertionError, match="built a permutation"):
            PromiseInstance(build_query(K2, 1, 2)).aut_elements()

    def test_yes_keys_restrict_to_a_base_automorphism(self, scanned_queries):
        # each YES query's key, checked with no search: it carries the first
        # copy, nodes 1..n, onto the second, n+1..2n, and shifted back by n,
        # its first copy's nodes are an automorphism of the base that fixes
        # 1..i-1 and swaps i and j
        pairs = [pair for g in scanned_bases() for pair in scan_pairs(g)]
        yes = 0
        for (base, i, j), q in zip(pairs, scanned_queries):
            if oracle_answer(q) == 1:
                yes += 1
                n, key = base.node_count, PromiseInstance(q).hidden_key()
                sigma = [key(v) - n for v in range(1, n + 1)]
                assert sorted(sigma) == list(range(1, n + 1))
                assert {tuple(sorted((sigma[u - 1], sigma[v - 1]))) for u, v in base.edges} == base.edges
                assert sigma[:i - 1] == list(range(1, i)) and (sigma[i - 1], sigma[j - 1]) == (j, i)
        assert yes == 123

    def test_decides_without_building_gadget_edges(self, scanned_queries, monkeypatch):
        # every scan, built and answered with _with_gadgets counted: a query
        # arrives with neither its contraction nor its edges, and is
        # contracted while it is decided with its gadgets as labelled
        # leaves, so no gadget is hung edge by edge and no edge set is built.
        # The answers equal those of the full edge sets peeled as parsed graphs.
        want = [oracle_answer(Graph(q.node_count, q.edges)) for q in scanned_queries]
        calls, with_gadgets = [], graphauto._with_gadgets
        monkeypatch.setattr(graphauto, "_with_gadgets", lambda *args: calls.append(args) or with_gadgets(*args))
        got = []

        def answer(q):
            assert "_contraction" not in vars(q) and "edges" not in vars(q)
            got.append(oracle_answer(q))
            assert "edges" not in vars(q)
            return 0

        for g in scanned_bases():
            koebler_reduce(g, oracle=answer)
        assert calls == []
        assert got == want


def group_summary(contraction):
    """What the oracle relies on from a contraction: the group order,
    |Aut_col(kept)| times the tree product, and, when the product is 1, the
    automorphisms that the kept images extend to, sorted by image. With a
    larger product the oracle refuses by the order alone."""
    adj, colors, product, extend = contraction
    images = list(_search(adj, colors)[1]())
    extended = sorted(extend(image).image for image in images) if product == 1 else []
    return len(images) * product, extended


def tree_centres(g):
    """The centre, or the two centres, of each component of the forest g,
    from the middle of a longest path (two breadth-first searches)."""
    adj = g.adjacency()

    def farthest(start):
        back = {start: -1}
        queue = deque([start])
        while queue:
            last = queue.popleft()
            for w in adj[last]:
                if w not in back:
                    back[w] = last
                    queue.append(w)
        return last, back

    centres, seen = [], set()
    for start in range(g.node_count):
        if start not in seen:
            a, component = farthest(start)
            seen.update(component)
            b, back = farthest(a)
            line = [b]
            while back[line[-1]] >= 0:
                line.append(back[line[-1]])
            centres += line[(len(line) - 1) // 2:len(line) // 2 + 1]
    return sorted(v + 1 for v in centres)


@st.composite
def hung_gadgets(draw):
    """(full, base, hung): a connected tree, cyclic or twin-branch graph of n
    nodes with two to four gadgets hung on two or more distinct nodes, each
    with m = n and numbered after the last node, as a query's copy carries
    them, and the same graph as a query's contraction takes it: the graph
    alone (base), whose ``_peel`` ``_label`` labels with the gadgets in
    hung. The tails come from a pool of one or two, so equal gadgets often
    hang on distinct nodes. Tail lengths reach 2n+1, past n+1, the tail that
    gives a gadget an internal swap, and every tail that mirrors a path from
    a gadget's host."""
    g = draw(st.one_of(
        forests(8, connected=True), forests(8, max_extra=3, connected=True), twin_branches(8, connected=True)
    ))
    assume(g.node_count > 1)
    n = g.node_count
    first, second = draw(st.integers(1, n)), draw(st.integers(1, n - 1))
    hosts = [first, second + (second >= first), *draw(st.lists(st.integers(1, n), max_size=2))]
    tails = draw(st.lists(st.integers(1, 2 * n + 1), min_size=1, max_size=2))
    hung, count = [], n
    for node in hosts:
        tail = draw(st.sampled_from(tails))
        hung.append((node, count + 1, n, tail))
        count += 2 * n + 3 + tail
    return Graph(count, _with_gadgets(g.edges, hung)), g, hung


class TestAttachedContraction:
    """A query's contraction is made on first read from its base copies and
    the gadgets hung on them, and it equals the peel of the whole query."""

    def test_equals_the_peel_of_every_scan_query(self):
        # every scan query, fresh twice: once contracted before anything else
        # is read, once after its edge set was read, which keeps the gadget
        # list the contraction is made from
        for pair in (pair for g in scanned_bases() for pair in scan_pairs(g)):
            first, late = build_query(*pair), build_query(*pair)
            want = group_summary(_contract(late.node_count, late.edges))
            assert group_summary(first._contraction) == want
            assert "edges" not in vars(first)
            assert "_unhung" in vars(late)
            assert group_summary(late._contraction) == want

    @settings(max_examples=150, deadline=None)
    @given(hung_gadgets())
    def test_equals_the_peel_with_gadgets_hung_on_forests(self, case):
        full, base, hung = case
        n = full.node_count
        labelled = graphauto._label(n, graphauto._peel(base.node_count, base.edges), hung)
        assert group_summary(labelled) == group_summary(_contract(n, full.edges))

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(forests(7, connected=True), forests(7, max_extra=3, connected=True)))
    def test_equals_the_full_peel_on_random_connected_bases(self, g):
        # every scan query of a random connected base, trees and graphs with
        # cycles, each labelling the base's one peel with its own gadgets
        assume(g.node_count >= 3)
        for base, i, j in scan_pairs(g):
            q = build_query(base, i, j)
            assert group_summary(q._contraction) == group_summary(_contract(q.node_count, q.edges))

    def test_a_centre_inside_a_gadget(self, scanned_queries):
        # In a query on a tree, the whole copy's centres may lie on a
        # gadget's chain, numbered after the copies' 2n nodes, while its
        # contraction keeps the centres of the base tree, with each gadget
        # a name in its host's label.
        bases = [base for g in scanned_bases() for base, _, _ in scan_pairs(g)]
        found = []
        for base, q in zip(bases, scanned_queries):
            if len(base.edges) == base.node_count - 1:
                n = base.node_count
                centres = tree_centres(q)
                if any(v > 2 * n for v in centres):
                    found.append((n, sorted(base.edges), centres, q))
        assert sum(len(b.edges) == b.node_count - 1 for b in bases) == 595
        assert [(n, centres) for n, _, centres, _ in found] == (
            [(3, [3, 5, 64]), (3, [3, 5, 28]), (3, [3, 5, 64]), (3, [3, 5, 64]), (3, [3, 5, 28])]
            + [(4, [4, 7, 48]), (4, [4, 7, 105]), (4, [4, 7, 105]), (4, [4, 7, 48])]
        )
        for _, _, _, q in found:
            parsed = Graph(q.node_count, q.edges)  # holds no gadget list
            assert oracle_answer(q) == oracle_answer(parsed)
            assert promise_verdict(q) == promise_verdict(parsed)
            assert group_summary(q._contraction) == group_summary(_contract(parsed.node_count, parsed.edges))

    def test_the_two_documented_limits(self):
        # the colour view misses the full peel's flip for a gadget smaller
        # than its base (m = 1 on a 7-node tree), and for a single gadget on
        # a path's end whose tail mirrors the path
        tree = Graph(7, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}))
        for n, base, hung in [(13, tree, [(1, 8, 1, 1)]), (14, path(2), [(1, 3, 2, 5)])]:
            full = Graph(n, _with_gadgets(base.edges, hung))
            assert group_summary(graphauto._label(n, graphauto._peel(base.node_count, base.edges), hung))[0] == 1
            assert group_summary(_contract(n, full.edges))[0] == len(automorphisms(full)) == 2


@pytest.mark.slow
def test_promise_query_layer_timing(scanned_queries):
    # Not a gate: prints the best of 7 for each layer of a promise query, per
    # query of the scans. pytest -m slow -s tests/test_graphauto.py -k timing
    pairs = [pair for g in scanned_bases() for pair in scan_pairs(g)]
    assert [build_query(*pair) for pair in pairs] == scanned_queries
    kept = [q._contraction[:2] for q in scanned_queries]
    unhung = [(q.node_count, *vars(build_query(*pair))["_unhung"]) for q, pair in zip(scanned_queries, pairs)]
    layers = {
        "build_query": lambda: [build_query(*pair) for pair in pairs],
        "_peel and _label of the copies' edges with the gadget list": lambda: [
            graphauto._label(n, graphauto._peel(2 * base.node_count, base._scan[1]), hung) for n, base, hung in unhung
        ],
        "a query's contraction from its base's kept peel": lambda: [
            graphauto._label(n, base._scan[2], hung) for n, base, hung in unhung
        ],
        "a query's edge set, built on first read": lambda: [
            graphauto._with_gadgets(base._scan[1], hung) for _, base, hung in unhung
        ],
        "_contract of the built query, as a parsed graph is peeled": lambda: [
            _contract(q.node_count, q.edges) for q in scanned_queries
        ],
        "kept-graph search": lambda: [list(itertools.islice(_search(*k)[1](), 3)) for k in kept],
        "unique_ga_ff_oracle on the carried contraction": lambda: [oracle_answer(q) for q in scanned_queries],
    }
    number = len(scanned_queries)
    print()
    for name, run in layers.items():
        best = min(timeit.repeat(run, number=1, repeat=7)) / number
        print(f"{name}: {best * 1e6:.1f} us a query (best of 7 runs over {number} scan queries)")


class TestKoeblerReduce:
    def test_single_edge_is_yes(self):
        assert koebler_reduce(K2) == 1

    def test_rigid_witness_is_no(self):
        assert koebler_reduce(RIGID6) == 0

    def test_matches_ground_truth_small(self):
        for n in (1, 2, 3):
            for g in all_graphs(n):
                want = 1 if has_nontrivial_automorphism(n, g.edges) else 0
                assert koebler_reduce(g) == want

    def test_matches_ground_truth_sampled_four_nodes(self):
        rng = np.random.default_rng(61)
        graphs = list(all_graphs(4))
        for idx in rng.choice(len(graphs), size=12, replace=False):
            g = graphs[int(idx)]
            want = 1 if has_nontrivial_automorphism(4, g.edges) else 0
            assert koebler_reduce(g) == want

    def test_never_violates_promise(self):
        queries = []

        def counting_oracle(q):
            queries.append(q)
            return unique_ga_ff_oracle(q)

        for g in all_graphs(3):
            koebler_reduce(g, oracle=counting_oracle)
        assert queries  # the loop actually exercised the oracle

    def test_first_yes_short_circuits(self):
        answers = []

        def logging_oracle(q):
            answers.append(unique_ga_ff_oracle(q))
            return answers[-1]

        koebler_reduce(K3, oracle=logging_oracle)
        assert answers[-1] == 1
        assert all(a == 0 for a in answers[:-1])


def networkx_corpus():
    """(name, networkx graph, Graph) for the differential test: seeded
    G(n, p) on 8..40 nodes, random 3-regular graphs, grids, ladders, the
    Paley graph on 37 nodes and the line graph of K_9, as networkx builds
    them."""
    nx = pytest.importorskip("networkx")
    cases = [
        (f"G({n}, {p}) seed {seed}", nx.gnp_random_graph(n, p, seed=seed))
        for n in (8, 12, 16, 20, 25, 30, 35, 40) for p in (0.1, 0.2, 0.3, 0.5) for seed in (1, 2, 3)
    ]
    cases += [(f"3-regular on {n} seed {seed}", nx.random_regular_graph(3, n, seed=seed)) for n in (10, 20, 30, 40) for seed in (1, 2)]
    cases += [(f"{a} x {b} grid", nx.grid_2d_graph(a, b)) for a, b in ((2, 5), (3, 4), (4, 6), (5, 8))]
    cases += [(f"ladder of {n} rungs", nx.ladder_graph(n)) for n in (5, 10, 20)]
    cases += [("Paley(37)", nx.paley_graph(37).to_undirected()), ("line graph of K_9", nx.line_graph(nx.complete_graph(9)))]
    for name, h in cases:
        h = nx.convert_node_labels_to_integers(h, first_label=1)
        yield name, h, Graph(h.number_of_nodes(), frozenset(h.edges()))


@pytest.mark.slow
def test_reduction_matches_networkx_up_to_the_default_limit():
    # koebler_reduce with the oracle at reduce-ga's default limit, which
    # counts each query's base, against VF2's automorphism existence, which
    # shares no code with the search
    from networkx.algorithms.isomorphism import GraphMatcher

    def oracle(q):
        return unique_ga_ff_oracle(q, node_limit=graphauto.SEARCH_NODE_LIMIT)

    answers = Counter()
    for name, h, g in networkx_corpus():
        want = sum(1 for _ in itertools.islice(GraphMatcher(h, h).isomorphisms_iter(), 2)) - 1
        assert koebler_reduce(g, oracle=oracle) == want, name
        answers[want] += 1
    assert min(answers.values()) >= 40, answers


@pytest.mark.slow
def test_reduce_ga_timing(tmp_path):
    # Not a gate: prints reduce-ga's time in process, parse included, best of
    # 3, with its query count and answer, on networkx graphs of 20, 30 and 40
    # nodes. pytest -m slow -s tests/test_graphauto.py -k timing
    from qscd.cli import run

    nx = pytest.importorskip("networkx")
    print()
    for n, (a, b) in ((20, (4, 5)), (30, (5, 6)), (40, (5, 8))):
        graphs = [(f"G({n}, {p}) seed {seed}", nx.gnp_random_graph(n, p, seed=seed)) for p in (0.1, 0.3, 0.5) for seed in (1, 2)]
        graphs += [(f"3-regular on {n} seed 1", nx.random_regular_graph(3, n, seed=1)), (f"{a} x {b} grid", nx.grid_2d_graph(a, b))]
        for name, h in graphs:
            h = nx.convert_node_labels_to_integers(h, first_label=1)
            graph = tmp_path / "g.txt"
            graph.write_text(format_graph(Graph(n, frozenset(h.edges()))))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                best = min(timeit.repeat(lambda: run(["reduce-ga", "--graph", str(graph)]), number=1, repeat=3))
            queries, answer = out.getvalue().splitlines()[-2:]
            print(f"reduce-ga on {name}: {best:.2f} s, {queries}, {answer}")


@pytest.fixture(scope="module")
def rigid_atlas():
    """The asymmetric 6- and 7-node graphs of networkx's graph atlas, by node
    count, each relabelled by a permutation from a seeded generator. VF2 finds
    the identity alone on each, which is the ground truth."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    from networkx.generators.atlas import graph_atlas_g

    rng = np.random.default_rng(68)
    rigid = {6: [], 7: []}
    for h in graph_atlas_g():
        n = h.number_of_nodes()
        if n in rigid and sum(1 for _ in itertools.islice(GraphMatcher(h, h).isomorphisms_iter(), 2)) == 1:
            label = rng.permutation(n) + 1
            edges = frozenset(tuple(sorted((int(label[u]), int(label[v])))) for u, v in h.edges())
            rigid[n].append(Graph(n, edges))
    return rigid


def answers_yes(reduce, graphs):
    """The graphs on which a reduction answers YES."""
    return [g for g in graphs if reduce(g) != 0]


class TestReductionOnRigidGraphs:
    # No labelled graph on 2 to 5 nodes is rigid, so the small-graph tests
    # above see a NO only on one node; these graphs put every query of a full
    # scan through the NO path.
    def test_every_rigid_atlas_graph_is_no(self, rigid_atlas):
        assert [len(rigid_atlas[6]), len(rigid_atlas[7])] == [8, 152]
        assert answers_yes(koebler_reduce, rigid_atlas[6] + rigid_atlas[7]) == []

    def test_a_reduction_that_always_answers_yes_is_caught(self, rigid_atlas):
        def always_yes(g):
            return 1 if g.node_count >= 2 else 0

        graphs = rigid_atlas[6] + rigid_atlas[7]
        assert answers_yes(always_yes, graphs) == graphs


def chain_verdicts(graphs, seed):
    """The paper's chain GA -> QSCD_ff: koebler_reduce, with each promise
    query answered by the attack pipeline around an omniscient distinguisher
    for the query's hidden key, or for (1 2)(3 4)... on a NO query.
    At 128 tuples a side and threshold 64, Hoeffding bounds a NO query's
    chance of a YES by 2 exp(-32) < 3e-14."""
    rng = np.random.default_rng(seed)
    params = AttackParams(1, 1, 128, 64)

    def oracle(q):
        inst = PromiseInstance(q)
        key = inst.hidden_key()
        if key is None:
            key = from_cycles(q.node_count, [(a, a + 1) for a in range(1, q.node_count, 2)])
        return ga_attack(inst, omniscient_distinguisher(key), params, rng)

    return [koebler_reduce(g, oracle=oracle) for g in graphs]


class TestChainFromGraphAutomorphism:
    def test_agrees_with_brute_force_up_to_three_nodes_and_on_rigid_graphs(self, rigid_atlas):
        graphs = [g for n in (1, 2, 3) for g in all_graphs(n)] + rigid_atlas[6]
        want = [int(has_nontrivial_automorphism(g.node_count, g.edges)) for g in graphs]
        assert want.count(0) == 9  # the 1-node graph and the 8 rigid graphs
        assert chain_verdicts(graphs, 69) == want

    @pytest.mark.slow
    def test_agrees_with_brute_force_on_four_nodes(self):
        graphs = list(all_graphs(4))
        want = [int(has_nontrivial_automorphism(4, g.edges)) for g in graphs]
        assert chain_verdicts(graphs, 70) == want


class TestPromiseInstance:
    def test_certified_key_verified(self):
        inst = planted_yes_instance()
        assert inst.hidden_key() is not None
        bad = PromiseInstance(disjoint_union(RIGID7A, RIGID7A), certified=identity(14))
        with pytest.raises(PromiseViolation):
            bad.aut_elements()
        not_auto = PromiseInstance(
            disjoint_union(RIGID7A, RIGID7A),
            certified=from_cycles(14, [(a, a + 1) for a in range(1, 14, 2)]),
        )
        with pytest.raises(PromiseViolation):
            not_auto.aut_elements()

    def test_certified_key_is_checked_against_the_search(self):
        # the 6-cycle has 12 automorphisms; its rotation by 3 lies in K_6
        c6 = Graph(6, frozenset((i, i % 6 + 1) for i in range(1, 7)))
        rotation = from_cycles(6, [(1, 4), (2, 5), (3, 6)])
        with pytest.raises(PromiseViolation, match="at most 2"):
            PromiseInstance(c6, certified=rotation).aut_elements()
        swap = planted_yes_instance().certified
        with pytest.raises(PromiseViolation, match="planted key"):
            PromiseInstance(planted_no_instance().graph, certified=swap).aut_elements()

    def test_computed_no_instance(self):
        inst = planted_no_instance()
        assert inst.hidden_key() is None

    def test_rejects_violating_graph(self):
        padded = disjoint_union(K3, P3)  # 6 nodes but riddled with symmetry
        with pytest.raises(PromiseViolation):
            PromiseInstance(padded).aut_elements()


class TestCosetSample:
    def test_no_instance_yields_singletons(self):
        rng = np.random.default_rng(62)
        inst = planted_no_instance()
        for _ in range(10):
            sample = coset_sample(inst, rng)
            assert len(sample.amps) == 1
            assert list(sample.amps.values()) == [1.0]

    def test_yes_plus_is_a_two_point_coset(self):
        rng = np.random.default_rng(63)
        inst = planted_yes_instance()
        pi = inst.hidden_key()
        for _ in range(50):
            sample = coset_sample(inst, rng)
            perms = list(perm for _, perm in sample.amps)
            assert len(perms) == 2
            assert compose(perms[0], pi) in perms
            for amp in sample.amps.values():
                assert amp.real == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_yes_minus_signs_follow_parity(self):
        rng = np.random.default_rng(64)
        inst = planted_yes_instance()
        for _ in range(50):
            sample = convert(coset_sample(inst, rng))
            for (_, perm), amp in sample.amps.items():
                expected = -1.0 if sign(perm) else 1.0
                assert amp.real == pytest.approx(expected / np.sqrt(2), abs=1e-9)

    def test_yes_draws_behave_like_generated_coset_states(self):
        # same trapdoor behavior as the direct generator: plus draws always
        # pass the controlled-key test, converted draws always fail it
        rng = np.random.default_rng(65)
        inst = planted_yes_instance()
        pi = inst.hidden_key()
        for _ in range(50):
            assert distinguish(coset_sample(inst, rng), pi, rng) == 1
            assert distinguish(convert(coset_sample(inst, rng)), pi, rng) == 0

    def test_draws_are_bit_exact(self):
        # Pins the amplitude bytes, which the command pins do not see (attack
        # prints only YES/NO): one entry sigma * alpha per automorphism alpha,
        # in sorted order, each 1/sqrt(|Aut|), with sigma drawn as
        # random_permutation draws it on a twin generator.
        for inst, seed in ((planted_yes_instance(), 66), (planted_no_instance(), 67)):
            elements = inst.aut_elements()
            amp = complex(1 / math.sqrt(len(elements)))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                sample = coset_sample(inst, rng)
                sigma = random_permutation(inst.graph.node_count, twin)
                expected = {(0, compose(sigma, alpha)): amp for alpha in elements}
                assert [(key, repr(a)) for key, a in sample.amps.items()] == [
                    (key, repr(a)) for key, a in expected.items()
                ]
            assert rng.bit_generator.state == twin.bit_generator.state
