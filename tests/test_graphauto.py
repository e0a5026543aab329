import itertools
import math
import time
from collections import defaultdict, deque
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qscd.graphauto import (
    _contract,
    _refined_cells,
    Graph,
    PromiseInstance,
    PromiseViolation,
    _hang_label,
    automorphisms,
    build_query,
    largest_query_nodes,
    complement,
    coset_sample,
    disjoint_union,
    group_order,
    is_connected,
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
from qscd.selftest import RIGID6, RIGID7A, RIGID7B, planted_no_instance, planted_yes_instance

from oracles import (
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
        assert is_connected(P3)
        two_isolated = Graph(2, frozenset())
        assert not is_connected(two_isolated)
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


@pytest.fixture(scope="module")
def scanned_queries():
    # the scans of the paths on 2..14 nodes and of every graph on up to 4 nodes
    bases = [path(n) for n in range(2, 15)]
    bases.extend(g for n in range(1, 5) for g in all_graphs(n))
    return [q for g in bases for q in scan_queries(g)]


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
        # the same queries contracted: the kept graph from its label colouring
        coloured = 0
        for q in scanned_queries:
            adj, colors, _, _ = _contract(q)
            assert _refined_cells(adj, colors) == refined_cells_reference(adj, colors)
            coloured += len(set(colors)) > 1
        assert coloured > 800

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
def forests(draw, max_nodes, max_extra=0):
    """A random forest, shuffled: each node after the first hangs from an
    earlier one or starts a tree. Up to max_extra random edges close cycles,
    which leaves pendant trees on a 2-core."""
    n = draw(st.integers(1, max_nodes))
    edges = {(p, v) for v in range(2, n + 1) if (p := draw(st.integers(0, v - 1)))}
    for _ in range(draw(st.integers(0, max_extra))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    name = draw(st.permutations(range(1, n + 1)))
    return Graph(n, frozenset((name[u - 1], name[v - 1]) for u, v in edges))


@st.composite
def twin_branches(draw, max_nodes):
    """A random host with two or three copies of one small rooted tree hung
    on one of its nodes, so that siblings share a label."""
    host = draw(forests(3, max_extra=2))
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
        adj, colors, product, _ = _contract(star)
        assert (adj, product) == ([set()], math.factorial(9))

    def test_aut_elements_equal_the_full_search_on_scan_queries(self, scanned_queries):
        # inside the promise the full search's first three elements are its whole group
        verdicts = [promise_verdict(q) for q in scanned_queries]
        assert verdicts == [promise_by_full_search(q) for q in scanned_queries]
        assert sum(len(v) == 2 for v in verdicts if not isinstance(v, str)) > 100


def hang_one(g, node, index):
    """g with one gadget of the given index hung on `node`, as build_query hangs it."""
    edges = set(g.edges)
    count = _hang_label(edges, node, g.node_count, g.node_count, index)
    return Graph(count, frozenset(edges))


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
        # every query of the path scans on 2..8 nodes, against the earlier
        # construction that built a new graph for every chain
        for n in range(2, 9):
            for i in range(n, 0, -1):
                for j in range(i + 1, n + 1):
                    count, edges = chain_by_chain_query(n, path(n).edges, list(range(1, i)), i, j)
                    q = build_query(path(n), i, j)
                    assert (q.node_count, q.edges) == (count, edges)

    def test_largest_query_is_the_first_and_its_size_is_known_in_advance(self):
        # the scan's queries, built, against the arithmetic the CLI checks
        # before it builds anything
        assert largest_query_nodes(1) == 0
        for n in range(2, 9):
            sizes = [
                build_query(path(n), i, j).node_count
                for i in range(n, 0, -1)
                for j in range(i + 1, n + 1)
            ]
            assert sizes[0] == max(sizes) == largest_query_nodes(n), n

    def test_rejects_degenerate_arguments(self):
        # a pair outside 1 <= i < j <= n: equal, reversed, below 1, past n
        for i, j in [(1, 1), (2, 1), (0, 2), (1, 4)]:
            with pytest.raises(ValueError, match=r"need 1 <= i < j <= 3"):
                build_query(K3, i, j)


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

    def test_node_limit_counts_the_query_not_its_kept_graph(self):
        # the 8-node path's first query: 398 nodes, of which a handful are kept
        q = build_query(path(8), 7, 8)
        assert len(_contract(q)[0]) < 20
        with pytest.raises(ValueError, match="398 nodes exceeds the configured limit 397"):
            unique_ga_ff_oracle(q, node_limit=397)
        assert unique_ga_ff_oracle(q, node_limit=398) == 0

    def test_promise_violation_on_fixed_point_automorphism(self):
        # path 1-2-3 next to a rigid 7-node graph: 10 nodes, and the unique
        # nontrivial automorphism is the path's end swap, which fixes node 2
        padded = disjoint_union(P3, RIGID7A)
        assert padded.node_count == 10
        with pytest.raises(PromiseViolation, match="fixed-point-free"):
            unique_ga_ff_oracle(padded)


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
