"""Graphs, automorphism search, label gadgets, and the promise-problem bridge.

The promise problem asks, for a graph whose node count n is 2 mod 4, whether
it has a unique nontrivial automorphism that is a fixed-point-free
involution (YES) or none at all (NO). ``koebler_reduce`` turns an arbitrary
automorphism-existence question into a sequence of such promise queries via
node-distinguishing label gadgets, and ``coset_sample`` turns a promise
instance into coset-superposition draws over S_n. Under the promise the
automorphism group is cyclic, so those are ``qscdcyc``'s coset draws; this
module computes no amplitude.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .permgroup import (
    Permutation,
    int_fields,
    is_ff_degree,
)
from .qscdcyc import _coset_draw
from .qstate import SparseState

SEARCH_NODE_LIMIT = 40  # default node limit of a search, and of ``qscd ga`` and ``reduce-ga``
QUERY_NODE_LIMIT = 4000  # the promise oracle's default, which ``attack`` and ``koebler_reduce`` keep


class PromiseViolation(Exception):
    """An oracle query fell outside the promise."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes {1..node_count}; canonical edge storage.

    Each graph keeps one scan (``_scan``): its connected base, itself or
    its complement, with that base's two-copy peel, shared by every scan
    and query. A query from ``build_query`` holds its base and its gadget
    list, gadgets numbered after the base's two copies, and makes its edge
    set and its contraction from the base's scan on first read, the
    contraction by labelling the copies' kept peel with each gadget a name
    in its host's label. Equality, hash, repr, ``criterion_labels`` and
    caller-supplied oracles read its edges; the promise oracle and
    ``PromiseInstance`` read only its contraction."""

    node_count: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        canonical = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= self.node_count and 1 <= v <= self.node_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            canonical.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canonical))

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a query's edges
        unhung = self.__dict__.get("_unhung") if name == "edges" else None
        if unhung is None:
            raise AttributeError(f"'Graph' object has no attribute {name!r}")
        base, hung = unhung
        return self.__dict__.setdefault("edges", _with_gadgets(base._scan[1], hung))

    @cached_property
    def _contraction(self):
        """``_contract``'s result, made on first read: a query's base's kept
        two-copy peel labelled with its gadget list, or the peel of another
        graph's edges."""
        unhung = self.__dict__.get("_unhung")
        if unhung is None:
            return _contract(self.node_count, self.edges)
        base, hung = unhung
        return _label(self.node_count, base._scan[2], hung)

    @cached_property
    def _scan(self):
        """(base, copies, peel), made on first read from one connectivity
        search: base is the complement of a disconnected graph, which is
        connected and has the same automorphisms, and None for a connected
        one, read as the graph itself (``g._scan[0] or g``) so that no graph
        holds itself and each is freed with its last reference; copies are
        the edges of the base's two copies, nodes 1..n and n+1..2n, and peel
        their ``_peel``. Every scan and query of the graph reads this one
        peel and must not change it."""
        adj = self.adjacency()
        seen, stack = {0}, [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) < self.node_count:
            base = complement(self)
            return base, *base._scan[1:]
        n = self.node_count
        copies = self.edges | {(u + n, v + n) for u, v in self.edges}
        return None, copies, _peel(2 * n, copies)

    def adjacency(self) -> list[set[int]]:
        """0-based neighbor sets."""
        adj: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u - 1].add(v - 1)
            adj[v - 1].add(u - 1)
        return adj


def complement(g: Graph) -> Graph:
    edges = {
        (u, v)
        for u in range(1, g.node_count + 1)
        for v in range(u + 1, g.node_count + 1)
        if (u, v) not in g.edges
    }
    return Graph(g.node_count, frozenset(edges))


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shift = a.node_count
    edges = set(a.edges)
    edges.update((u + shift, v + shift) for u, v in b.edges)
    return Graph(a.node_count + b.node_count, frozenset(edges))


def parse_graph(text: str) -> Graph:
    lines = [(no, line.split()) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise ValueError("empty graph file")
    n, m = int_fields(*lines[0], "node count", "edge count")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edges, got {len(lines) - 1}")
    edges: set[tuple[int, int]] = set()
    for no, fields in lines[1:]:
        u, v = int_fields(no, fields, "u", "v")
        if not 1 <= u < v <= n:
            raise ValueError(f"line {no}: bad edge {u} {v}: need 1 <= u < v <= {n}")
        if (u, v) in edges:
            raise ValueError(f"line {no}: duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def _refined_cells(adj: list[set[int]], colors: Sequence[int]) -> tuple[list[set[int]], list[int]]:
    # Coarsest equitable partition finer than the starting colouring (cells,
    # and each vertex's cell) from a worklist of splitters. The starting
    # cells are numbered by colour and all go on the worklist. A splitter
    # re-signs only the cells next to it, and only their touched vertices
    # move. Later cells are numbered by (parent, neighbour count), never by
    # vertex, so an automorphism that keeps the colours fixes every cell.
    # A cell off the worklist that splits may leave its largest piece off.
    rank = {c: k for k, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    cells: list[set[int]] = [set() for _ in rank]
    for v, c in enumerate(colors):
        cells[c].add(v)
    pending, queued = deque(range(len(cells))), set(range(len(cells)))
    while pending:
        s = pending.popleft()
        queued.discard(s)
        hits: dict[int, int] = {}
        for u in cells[s]:
            for w in adj[u]:
                hits[w] = hits.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in hits:
            c = colors[w]
            if c in touched:
                touched[c].append(w)
            else:
                touched[c] = [w]
        for c in sorted(touched):
            ws = touched[c]
            counts = {hits[w] for w in ws}
            if len(counts) == 1:
                if len(ws) == len(cells[c]):
                    continue
                moved = [ws]
            else:
                by_count: dict[int, list[int]] = {k: [] for k in sorted(counts)}
                for w in ws:
                    by_count[hits[w]].append(w)
                moved = list(by_count.values())
            # untouched vertices keep c; else the smallest count keeps it
            if len(ws) < len(cells[c]):
                cells[c].difference_update(ws)
            else:
                cells[c] = set(moved.pop(0))
            pieces = [c]
            for part in moved:
                pieces.append(len(cells))
                cells.append(set(part))
                for w in part:
                    colors[w] = pieces[-1]
            if c not in queued:
                sizes = [len(cells[p]) for p in pieces]
                del pieces[sizes.index(max(sizes))]
            for p in pieces:
                if p not in queued:
                    queued.add(p)
                    pending.append(p)
    return cells, colors


def _search(adj: list[set[int]], colors: Sequence[int]):
    """Refine the coloured graph adj (0-based) and fix its search order;
    return (order, backtrack), where ``backtrack(pinned)`` yields once, in
    search order, the 0-based image of each colour-preserving automorphism
    mapping order[k] to pinned[k] for every k < len(pinned). The order runs
    breadth first from a vertex of each component's smallest class, so each
    later vertex takes its candidates from the neighbours of its anchor's
    image. A discrete refinement leaves the order empty and yields the
    identity alone: cells are numbered by colour, parent cell and neighbour
    count, never by vertex name, so colour-preserving automorphisms fix
    every cell."""
    n = len(adj)
    members, colors = _refined_cells(adj, colors)
    if len(members) == n:
        return [], lambda pinned=(): iter([tuple(range(n))])
    order: list[int] = []
    pos: dict[int, int] = {}
    anchor = [-1] * n
    roots = iter(sorted(range(n), key=lambda v: (len(members[colors[v]]), colors[v], v)))
    for k in range(n):
        if k == len(order):
            order.append(next(v for v in roots if v not in pos))
            pos[order[k]] = k
        for w in sorted(adj[order[k]]):
            if w not in pos:
                pos[w], anchor[w] = len(order), order[k]
                order.append(w)
    # back[k]: the neighbours of order[k] that are mapped before it
    back = [[u for u in adj[v] if pos[u] < k] for k, v in enumerate(order)]

    def backtrack(pinned: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
        mapping, used = [-1] * n, set()

        def candidates(k: int) -> Iterator[int]:
            v = order[k]
            pool = members[colors[v]] if anchor[v] < 0 else adj[mapping[anchor[v]]]
            if k < len(pinned):
                pool = (pinned[k],)
            return iter([
                w for w in pool
                if colors[w] == colors[v] and w not in used
                and all(mapping[u] in adj[w] for u in back[k])
                and len(adj[w] & used) == len(back[k])
            ])

        stack = [candidates(0)]
        while stack:
            v = order[len(stack) - 1]
            used.discard(mapping[v])
            mapping[v] = w = next(stack[-1], -1)
            if w < 0:
                stack.pop()
                continue
            used.add(w)
            if len(stack) == n:
                yield tuple(mapping)
            else:
                stack.append(candidates(len(stack)))

    return order, backtrack


def _contract(n: int, edges: frozenset[tuple[int, int]]):
    """Peel the pendant trees of the graph of edges on nodes 1..n: all
    leaves at once, round after round, each recording the neighbour it hung
    from as its parent. The 2-core and each tree component's one or two
    centres are kept. Each vertex is labelled bottom up by the sorted labels
    of its children (Aho, Hopcroft and Ullman, 1974), each new key numbered
    in a table local to the call: a leaf is 0, the rest count from 1.

    Returns (adj, colors, product, extend): the kept graph, renumbered from 0
    in node order; each kept vertex's label as its colour; the product over
    every vertex of k! for each k of its child labels that are equal; and
    ``extend(image)``, which carries a kept automorphism down the trees by
    matching children with equal labels, a match that is unique when the
    product is 1, and returns a permutation of all n nodes. An automorphism
    keeps the 2-core, the centres and the labels, and each colour-preserving
    automorphism of the kept graph extends in exactly product ways, so |Aut|
    is |Aut_col(kept)| times the product."""
    return _label(n, _peel(n, edges), ())


def _peel(base: int, edges: frozenset[tuple[int, int]]):
    """``_contract``'s peel of the graph of edges on nodes 1..base: returns
    (parent, peeled, kept, adj), each node's parent (0 when it is kept), the
    peeled nodes in peeling order, the kept nodes in node order and the kept
    graph renumbered from 0 in that order."""
    # Nodes are 1-based and parent 0 marks a kept node. rest[v] is the sum
    # of v's unpeeled neighbours: its last one when deg[v] is 1.
    deg, rest = [0] * (base + 1), [0] * (base + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        rest[u] += v
        rest[v] += u
    parent = [0] * (base + 1)
    peeled: list[int] = []
    leaves = [v for v in range(1, base + 1) if deg[v] == 1]
    while leaves:
        ends, queued = set(leaves), []
        for v in leaves:
            p = rest[v]
            if p in ends:  # the last edge of a tree: both ends are centres
                continue
            parent[v] = p
            rest[p] -= v
            peeled.append(v)
            deg[p] -= 1
            if deg[p] == 1:
                queued.append(p)
        # a node queued at degree 1 may have dropped to 0 later in the round
        leaves = [v for v in queued if deg[v] == 1]

    kept = [v for v in range(1, base + 1) if not parent[v]]
    index = [-1] * (base + 1)
    for k, v in enumerate(kept):
        index[v] = k
    adj: list[set[int]] = [set() for _ in kept]
    for u, v in edges:
        a, b = index[u], index[v]
        if a >= 0 and b >= 0:
            adj[a].add(b)
            adj[b].add(a)
    return parent, peeled, kept, adj


def _label(n: int, peel, hung: Sequence[tuple[int, int, int, int]]):
    """``_contract``'s labelling of a ``_peel`` of g, the graph on the peel's
    nodes, with the gadgets of hung, on n nodes in all. It reads the peel
    and never changes it, so one peel serves many gadget lists: a promise
    query labels its base's one peel of both copies (``Graph._scan``) with
    its own gadgets.

    Each entry (node, root, m, tail) of hung is a gadget whose edges g leaves
    out: the tree ``_with_gadgets`` hangs on node for (m, tail), numbered
    from root, after g's nodes. A gadget is no vertex: its (m, tail), named
    in the same table, is one of its host's child labels from the start,
    outside the host's degree, so only g's own nodes are peeled; it swaps
    inside when its tail mirrors its arm, at tail = m + 1, which doubles the
    product, and ``extend`` moves it onto the gadget with its (m, tail) on
    its host's image. With every m at least the node count of g's largest
    component the names are exact: a gadget's chain to its first branch has
    m+2 nodes, longer than any path of g's own nodes in a pendant tree, and
    a path that enters another gadget of the same m branches even deeper, so
    two subtrees get equal names exactly when they have equal shapes. The
    view is exact when, besides, every automorphism of g with its gadgets
    keeps g's own nodes. Each can fail: a gadget smaller than its base, as
    on the tree of 7 nodes with edges (1,2) .. (5,6) and (4,7) and gadget
    (1, 8, 1, 1), which mirrors the rest of the tree about node 1; and a
    single gadget on one end of a path component whose tail mirrors the
    path, as on the 2-node path with gadget (1, 3, 2, 5). The second cannot
    occur with gadgets on two distinct nodes of a connected base.
    ``build_query`` hangs every gadget with m the base's node count, and
    refuses a disconnected base."""
    parent, peeled, kept, adj = peel
    label = [0] * len(parent)
    local: dict[tuple, int] = {}  # a gadget's ("gadget", m, tail), or a vertex's children's labels
    product = 1
    below: dict[int, list[int]] = {}  # each vertex's gadgets' names, then its children's labels
    for node, _, m, tail in hung:
        below.setdefault(node, []).append(local.setdefault(("gadget", m, tail), len(local) + 1))
        product *= 2 if tail == m + 1 else 1

    for v in (*peeled, *kept):  # children before their parents
        kids = below.get(v)
        if kids:
            if len(kids) == 1:
                key = (kids[0],)
            else:
                key = tuple(sorted(kids))
                if len(set(key)) < len(key):
                    for k in Counter(key).values():
                        product *= math.factorial(k)
            label[v] = local.setdefault(key, len(local) + 1)
        if parent[v]:
            below.setdefault(parent[v], []).append(label[v])

    child: dict[tuple, int] = {}  # (parent, label) or (host, m, tail); built on the first extension

    def extend(image: Sequence[int]) -> Permutation:
        full = [0] * (n + 1)
        for k, v in enumerate(kept):
            full[v] = kept[image[k]]
        if not child:
            child.update(((parent[c], label[c]), c) for c in peeled)
            child.update(((node, m, tail), root) for node, root, m, tail in hung)
        for v in reversed(peeled):  # parents before children
            full[v] = child[full[parent[v]], label[v]]
        for node, root, m, tail in hung:  # onto the gadget of its (m, tail) on its host's image
            to, size = child[full[node], m, tail], 2 * m + 3 + tail
            full[root:root + size] = range(to, to + size)
        return Permutation(tuple(full[1:]))

    return adj, [label[v] for v in kept], product, extend


def check_node_limit(node_count: int, node_limit: int) -> None:
    """The one node-limit check: refuses a graph of node_count nodes."""
    if node_count > node_limit:
        raise ValueError(f"{node_count} nodes exceeds the configured limit {node_limit}")


def iter_automorphisms(g: Graph, node_limit: int = SEARCH_NODE_LIMIT) -> Iterator[Permutation]:
    """Yield every automorphism of g once, in search order; callers may stop
    early. This is the complete search, from one colour on the whole graph."""
    check_node_limit(g.node_count, node_limit)
    backtrack = _search(g.adjacency(), [0] * g.node_count)[1]
    return (Permutation(tuple(x + 1 for x in image)) for image in backtrack())


def automorphisms(g: Graph, node_limit: int = SEARCH_NODE_LIMIT) -> list[Permutation]:
    """Complete automorphism list, sorted by image."""
    return sorted(iter_automorphisms(g, node_limit), key=lambda p: p.image)


def group_order(g: Graph, node_limit: int = SEARCH_NODE_LIMIT) -> int:
    """|Aut(g)|, never listed: the tree product of ``_contract`` times
    |Aut_col(kept)|, which is the product over k of the orbit size of
    order[k] under the automorphisms fixing order[:k]. Each w in order[k:]
    costs one search pinned to (*order[:k], w), stopped at its first
    automorphism. The product ends at the first k whose stabilizer is the
    identity alone. A graph and its complement share their group, so the
    sparser one is contracted and searched. An oversized graph is refused
    before it is complemented."""
    n = g.node_count
    check_node_limit(n, node_limit)
    if 4 * len(g.edges) > n * (n - 1):
        g = complement(g)
    adj, colors, total, _ = g._contraction
    order, backtrack = _search(adj, colors)
    for k in range(len(order)):
        if len(list(islice(backtrack(order[:k]), 2))) < 2:
            break
        total *= sum(next(backtrack([*order[:k], w]), None) is not None for w in order[k:])
    return total


def _with_gadgets(edges: frozenset[tuple[int, int]], hung: Sequence[tuple[int, int, int, int]]) -> frozenset[tuple[int, int]]:
    """edges with each gadget (node, root, n, tail) of hung hung on node: a
    chain of 2n+3 new nodes from node, then a tail of tail new nodes on the
    chain's (n+2)-nd node, 2n+3+tail nodes numbered from root in that order.
    A query's edge set."""
    full = set(edges)
    for node, root, n, tail in hung:
        chain = [node, *range(root, root + 2 * n + 3)]
        branch = [root + n + 1, *range(root + 2 * n + 3, root + 2 * n + 3 + tail)]
        full.update(zip(chain, chain[1:]))
        full.update(zip(branch, branch[1:]))
    return frozenset(full)


def build_query(g: Graph, i: int, j: int) -> Graph:
    """Promise-problem query graph for the pair i < j, nodes 1..i-1 pinned.

    Two copies of g carry gadget t on node t for t = 1..i-1. Both target
    nodes are labeled in both copies, with the two final gadget sizes
    exchanged between the copies, so the copies are isomorphic exactly when
    g has an automorphism that fixes 1..i-1 pointwise and
    exchanges i with j. Pinning both targets in both copies is what keeps
    every query inside the promise: any isomorphism between the copies flips
    them wholesale (a fixed-point-free involution of the union), and no
    within-copy automorphism survives once the scan has ruled out the higher
    levels. A one-sided final label would leave such within-copy
    automorphisms alive, and those have fixed points.

    Final tail lengths are chosen to keep every gadget size distinct, to
    avoid mirroring the far chain arm (n+1 nodes) which would give a gadget
    an internal swap, and to land the doubled total in {2, 6, 10, ...}. All
    sizes are computed against the node count of g itself, not of the
    partially labeled copies.

    The copies are nodes 1..n and n+1..2n, and the gadgets follow them,
    the first copy's and then the second's, each starting where the one
    before it ends. The query holds its node count, gadgets included, and
    g with its gadget list; it builds no edge set. The query's edge set and
    contraction are each made from g's scan, its one peel of its two
    copies, and the list on first read (``Graph``). The oracle's node limit
    (``--limit``) counts g's n, the node count ``reduce-ga`` checks before
    its scan, and refuses an oversized query before contracting any of it.
    A disconnected g, whose scan base is its complement, is refused, as its
    contraction may miss a flip.
    """
    n = g.node_count
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got i={i}, j={j}")
    if g._scan[0] is not None:
        raise ValueError("need a connected base graph; complement a disconnected one")
    size, tails = _query_layout(n, i - 1)

    # copies 1..n and n+1..2n; each gadget takes the next 2n+3+tail nodes
    hung: list[tuple[int, int, int, int]] = []
    count = 2 * n
    for shift, a_node, b_node in ((0, i, j), (n, j, i)):
        for node, tail in (*((t, t) for t in range(1, i)), (a_node, tails[0]), (b_node, tails[1])):
            hung.append((node + shift, count + 1, n, tail))
            count += 2 * n + 3 + tail
    if count != size or count % 4 != 2:
        raise AssertionError(f"padding failed: {count} nodes, planned {size}; need 2 mod 4")
    query = object.__new__(Graph)
    query.__dict__.update(node_count=count, _unhung=(g, hung))
    return query


def _query_layout(n: int, k: int) -> tuple[int, tuple[int, int]]:
    # Node count of a query on an n-node graph with k fixed nodes, and the
    # tail lengths of its two final labels. One copy holds the graph, k
    # labels of 2n+3+t nodes for t = 1..k and the two final labels; the
    # tails make each size distinct, miss n+1 and make the copy odd.
    base_total = n + k * (2 * n + 3) + k * (k + 1) // 2 + 2 * (2 * n + 3) + (2 * k + 3)
    for ca in range(6):
        for cb in range(6):
            a, b = k + 1 + ca, k + 2 + cb
            if (base_total + ca + cb) % 2 == 1 and a != b and a != n + 1 and b != n + 1:
                return 2 * (base_total + ca + cb), (a, b)
    raise AssertionError(f"no tail lengths for n={n}, k={k}")


def unique_ga_ff_oracle(g: Graph, node_limit: int = QUERY_NODE_LIMIT) -> int:
    """Decide the promise problem, verifying the promise first.

    Returns 1 (YES) when the graph has its unique fixed-point-free involutive
    automorphism, 0 (NO) when it is rigid. Raises PromiseViolation whenever
    the input is outside the promise, so callers that are supposed to query
    only promise-satisfying graphs get caught immediately. The verdict is
    reached on the contracted graph: the nontrivial kept image is checked,
    and no automorphism of the whole graph is built.
    """
    return len(_promise_images(g, node_limit)[0]) - 1


def _promise_images(g: Graph, node_limit: int = QUERY_NODE_LIMIT):
    """Verify the promise on the contracted graph; return (images, extend):
    the kept graph's colour-preserving automorphisms as 0-based images,
    sorted, so the identity comes first, and ``_contract``'s ``extend``,
    which turns each into its one automorphism of g. The node limit is
    checked before ``g._contraction`` is made, a query's from its gadgets,
    and counts the nodes of a query's base, or of any other graph its own.

    Aut(g) has order |Aut_col(kept)| times the tree product, so the search
    stops at a third image, which already breaks the promise. A product of
    2 with a rigid kept graph is a swap of two siblings, which fixes their
    parent. With a product of 1, every vertex's children carry distinct
    labels, and each kept image a has one extension s, which matches
    children by label. So s fixes a peeled vertex exactly when it fixes
    that vertex's parent, hence exactly when it fixes the kept vertex its
    tree hangs from; and s^2 is the extension of a^2, the identity exactly
    when a^2 is. So s is a fixed-point-free involution exactly when a is
    one on the kept vertices, which is what is checked."""
    if not is_ff_degree(g.node_count):
        raise PromiseViolation(f"node count {g.node_count} is not 2 mod 4")
    unhung = g.__dict__.get("_unhung")
    check_node_limit((unhung[0] if unhung else g).node_count, node_limit)
    adj, colors, product, extend = g._contraction
    images = sorted(islice(_search(adj, colors)[1](), 3))
    if len(images) * product > 2:
        raise PromiseViolation("3 or more automorphisms; the promise allows at most 2")
    last = images[-1]  # the nontrivial image, if there is one
    if product > 1 or len(images) == 2 and not all(w != k and last[w] == k for k, w in enumerate(last)):
        raise PromiseViolation("nontrivial automorphism is not a fixed-point-free involution")
    return images, extend


def koebler_reduce(g: Graph, oracle=None) -> int:
    """Decide automorphism existence through promise-problem queries.

    Scans target pairs (i, j) with i from n down to 1 and j from i+1 up to n,
    querying the oracle on the corresponding two-copy gadget graph, and
    answers YES at the first YES. It queries g's scan base (``Graph._scan``):
    g, or the complement g keeps when g is disconnected, which
    ``build_query`` refuses; the complement is connected and has the same
    relabeling symmetries.
    """
    if oracle is None:
        oracle = unique_ga_ff_oracle
    base = g._scan[0] or g
    n = base.node_count
    for i in range(n, 0, -1):
        for j in range(i + 1, n + 1):
            if oracle(build_query(base, i, j)):
                return 1
    return 0


@dataclass
class PromiseInstance:
    """A graph for the promise problem, optionally with a planted key.

    The search always runs on the contracted graph, until it has the whole
    group or a third element, and verifies the promise as the oracle does.
    Only here are the kept images extended to automorphisms of the whole
    graph, identity first. A ``certified`` key must be the nontrivial
    automorphism found; any other planted key is a PromiseViolation.
    """

    graph: Graph
    certified: Permutation | None = None

    def aut_elements(self) -> tuple[Permutation, ...]:
        return self._elements

    @cached_property
    def _elements(self) -> tuple[Permutation, ...]:
        images, extend = _promise_images(self.graph)
        elements = tuple(map(extend, images))
        if self.certified is not None and elements[1:] != (self.certified,):
            raise PromiseViolation("planted key is not the automorphism the search found")
        return elements

    def hidden_key(self) -> Permutation | None:
        elements = self.aut_elements()
        return elements[1] if len(elements) == 2 else None


def coset_sample(inst: PromiseInstance, rng: np.random.Generator) -> SparseState:
    """One coset-superposition draw from a promise instance.

    Simulates preparing the uniform relabeling superposition entangled with
    the relabeled graph and discarding the graph register: the survivor is
    (1/sqrt(|Aut|)) sum over alpha in Aut(g) of |sigma alpha> for a uniform
    sigma, all with one sign. Under the promise Aut(g), sorted by image, is
    (id,) or (id, pi) with pi an involution: the cyclic group generated by
    its last element, whose cycles all have length |Aut|. So the draw is
    ``qscdcyc``'s symbol-0 coset draw for that element. YES instances
    therefore yield plus draws for the hidden key, which ``qscdff.convert``
    turns into minus draws; NO instances yield iota draws.
    """
    elements = inst.aut_elements()
    return _coset_draw(elements[-1], 0, rng)
