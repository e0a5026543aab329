"""Graphs, automorphism search, label gadgets, and the promise-problem bridge.

The promise problem asks, for a graph whose node count n is 2 mod 4, whether
it has a unique nontrivial automorphism that is a fixed-point-free
involution (YES) or none at all (NO). ``koebler_reduce`` turns an arbitrary
automorphism-existence question into a sequence of such promise queries via
node-distinguishing label gadgets, and ``coset_sample`` turns a promise
instance into coset-superposition draws over S_n.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .permgroup import (
    Permutation,
    compose,
    identity,
    int_fields,
    is_cyclic_class,
    is_ff_degree,
    random_permutation,
)
from .qstate import SparseState


class PromiseViolation(Exception):
    """An oracle query fell outside the promise."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes {1..node_count}; canonical edge storage."""

    node_count: int
    edges: frozenset[tuple[int, int]] = frozenset()

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

    def adjacency(self) -> list[set[int]]:
        """0-based neighbor sets."""
        adj: list[set[int]] = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u - 1].add(v - 1)
            adj[v - 1].add(u - 1)
        return adj


def _trusted_graph(node_count: int, edges: frozenset[tuple[int, int]]) -> Graph:
    """Graph whose edges are in range and canonical (u < v) by construction."""
    g = object.__new__(Graph)
    object.__setattr__(g, "node_count", node_count)
    object.__setattr__(g, "edges", edges)
    return g


def complement(g: Graph) -> Graph:
    edges = {
        (u, v)
        for u in range(1, g.node_count + 1)
        for v in range(u + 1, g.node_count + 1)
        if (u, v) not in g.edges
    }
    return Graph(g.node_count, frozenset(edges))


def is_connected(g: Graph) -> bool:
    adj = g.adjacency()
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.node_count


def disjoint_union(a: Graph, b: Graph) -> Graph:
    shift = a.node_count
    edges = set(a.edges)
    edges.update((u + shift, v + shift) for u, v in b.edges)
    return Graph(a.node_count + b.node_count, frozenset(edges))


def format_graph(g: Graph) -> str:
    lines = [f"{g.node_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


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


def _refined_cells(adj: list[set[int]]) -> tuple[list[set[int]], list[int]]:
    # Coarsest equitable partition (cells, and each vertex's cell) from a
    # worklist of splitters: a splitter re-signs only the cells next to it,
    # and only their touched vertices move. Cells are numbered by (parent,
    # neighbour count), never by vertex, so automorphisms fix every cell.
    # A cell off the worklist that splits may leave its largest piece off.
    cells = [set(range(len(adj)))]
    colors = [0] * len(adj)
    pending, queued = deque([0]), {0}
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


def _search(g: Graph, node_limit: int):
    """Refine g and fix its search order; return (order, backtrack), where
    ``backtrack(pinned)`` yields once, in search order, each automorphism
    mapping order[k] to pinned[k] for every k < len(pinned). The order runs
    breadth first from a vertex of each component's smallest class, so each
    later vertex takes its candidates from the neighbours of its anchor's
    image. A discrete refinement leaves the order empty and yields the
    identity alone: cells are numbered by parent cell and neighbour count,
    never by vertex name, so automorphisms fix every cell."""
    n = g.node_count
    if n > node_limit:
        raise ValueError(f"{n} nodes exceeds the configured limit {node_limit}")
    adj = g.adjacency()
    members, colors = _refined_cells(adj)
    if len(members) == n:
        return [], lambda pinned=(): iter([identity(n)])
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

    def backtrack(pinned: Sequence[int] = ()) -> Iterator[Permutation]:
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
                yield Permutation(tuple(x + 1 for x in mapping))
            else:
                stack.append(candidates(len(stack)))

    return order, backtrack


def iter_automorphisms(g: Graph, node_limit: int = 40) -> Iterator[Permutation]:
    """Yield every automorphism of g once, in search order; callers may stop early."""
    return _search(g, node_limit)[1]()


def automorphisms(g: Graph, node_limit: int = 40) -> list[Permutation]:
    """Complete automorphism list, sorted by image."""
    return sorted(iter_automorphisms(g, node_limit), key=lambda p: p.image)


def group_order(g: Graph, node_limit: int = 40) -> int:
    """|Aut(g)|, never listed: the product over k of the orbit size of order[k]
    under the automorphisms fixing order[:k]. Each w in order[k:] costs one
    search pinned to (*order[:k], w), stopped at its first automorphism. The
    product ends at the first k whose stabilizer is the identity alone. A
    graph and its complement share their group, so the sparser one is
    searched. An oversized graph goes to the search, which refuses it,
    without being complemented."""
    n = g.node_count
    if n <= node_limit and 4 * len(g.edges) > n * (n - 1):
        g = complement(g)
    order, backtrack = _search(g, node_limit)
    total = 1
    for k in range(len(order)):
        if len(list(islice(backtrack(order[:k]), 2))) < 2:
            break
        total *= sum(next(backtrack([*order[:k], w]), None) is not None for w in order[k:])
    return total


def _hang_label(edges: set[tuple[int, int]], node: int, count: int, n: int, tail_len: int) -> int:
    # Hang a chain of 2n+3 new nodes on `node`, then a tail of tail_len new
    # nodes on the chain's (n+2)-nd node: a tree of 2n+3+tail_len new nodes and
    # edges, numbered from count + 1 in creation order. Returns the node count.
    chain = [node, *range(count + 1, count + 2 * n + 4)]
    tail = [count + n + 2, *range(count + 2 * n + 4, count + 2 * n + 4 + tail_len)]
    edges.update(zip(chain, chain[1:]))
    edges.update(zip(tail, tail[1:]))
    return count + 2 * n + 3 + tail_len


def build_query(g: Graph, fixed: list[int], i: int, j: int) -> Graph:
    """Promise-problem query graph for the pair (i, j) with `fixed` pinned.

    Two copies of g carry gadgets with indices 1..len(fixed) on the fixed
    nodes. Both target nodes are labeled in both copies, with the two final
    gadget sizes exchanged between the copies, so the copies are isomorphic
    exactly when g has an automorphism that fixes `fixed` pointwise and
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
    """
    if i == j:
        raise ValueError("need two distinct target nodes")
    fixed = [int(x) for x in fixed]
    targets = set(fixed)
    if len(targets) != len(fixed):
        raise ValueError("fixed nodes must be distinct")
    if i in targets or j in targets:
        raise ValueError("target nodes cannot be fixed")
    for node in [*fixed, i, j]:
        if not 1 <= node <= g.node_count:
            raise ValueError(f"node {node} out of range")

    n = g.node_count
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

    # Both labeled copies go into one edge set: the second copy's nodes are
    # numbered after all of the first copy's.
    edges: set[tuple[int, int]] = set()
    count = 0
    for a_node, b_node in ((i, j), (j, i)):
        shift = count
        edges.update((u + shift, v + shift) for u, v in g.edges)
        count += n
        for t, node in enumerate(fixed, start=1):
            count = _hang_label(edges, node + shift, count, n, t)
        count = _hang_label(edges, a_node + shift, count, n, tails[0])
        count = _hang_label(edges, b_node + shift, count, n, tails[1])
    if count % 4 != 2:
        raise AssertionError(f"padding failed: {count} nodes is not 2 mod 4")
    return _trusted_graph(count, frozenset(edges))


def unique_ga_ff_oracle(g: Graph, node_limit: int = 4000) -> int:
    """Decide the promise problem, verifying the promise first.

    Returns 1 (YES) when the graph has its unique fixed-point-free involutive
    automorphism, 0 (NO) when it is rigid. Raises PromiseViolation whenever
    the input is outside the promise, so callers that are supposed to query
    only promise-satisfying graphs get caught immediately.
    """
    return len(_promise_group(g, node_limit)) - 1


def _promise_group(g: Graph, node_limit: int = 4000) -> tuple[Permutation, ...]:
    # The whole automorphism group, identity first, of a graph inside the
    # promise. The search stops at a third element, which already breaks it.
    if not is_ff_degree(g.node_count):
        raise PromiseViolation(f"node count {g.node_count} is not 2 mod 4")
    elements = sorted(islice(iter_automorphisms(g, node_limit), 3), key=lambda p: p.image)
    if len(elements) > 2:
        raise PromiseViolation("3 or more automorphisms; the promise allows at most 2")
    if len(elements) == 2 and not is_cyclic_class(elements[1], 2):
        raise PromiseViolation("nontrivial automorphism is not a fixed-point-free involution")
    return tuple(elements)


def koebler_reduce(g: Graph, oracle=None) -> int:
    """Decide automorphism existence through promise-problem queries.

    Scans target pairs (i, j) with i from n down to 1 and j from i+1 up to n,
    querying the oracle on the corresponding two-copy gadget graph, and
    answers YES at the first YES. Disconnected inputs are replaced by their
    complement first: relabeling symmetries are identical for a graph and its
    complement, the complement of a disconnected graph is connected, and a
    disconnected base would hand the query copies spurious automorphisms.
    """
    if oracle is None:
        oracle = unique_ga_ff_oracle
    base = g
    if g.node_count > 1 and not is_connected(g):
        base = complement(g)
    n = base.node_count
    for i in range(n, 0, -1):
        for j in range(i + 1, n + 1):
            if oracle(build_query(base, list(range(1, i)), i, j)):
                return 1
    return 0


@dataclass
class PromiseInstance:
    """A graph for the promise problem, optionally with a planted key.

    The search always runs, until it has the whole group or a third element,
    and verifies the promise. A ``certified`` key must be the nontrivial
    automorphism it finds; any other planted key is a PromiseViolation.
    """

    graph: Graph
    certified: Permutation | None = None

    def aut_elements(self) -> tuple[Permutation, ...]:
        return self._elements

    @cached_property
    def _elements(self) -> tuple[Permutation, ...]:
        elements = _promise_group(self.graph)
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
    sigma, all with one sign. YES instances therefore yield plus draws for
    the hidden key, which ``qscdff.convert`` turns into minus draws; NO
    instances yield iota draws.
    """
    elements = inst.aut_elements()
    n = inst.graph.node_count
    sigma = random_permutation(n, rng)
    scale = complex(1.0 / np.sqrt(len(elements)))
    return SparseState(n, 1, {(0, compose(sigma, alpha)): scale for alpha in elements})
