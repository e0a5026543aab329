"""Independent brute-force oracles and rigged RNG helpers for the tests.

Everything here deliberately avoids the package's own search and sampling
code paths so expected values stay independent of what they check.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from qscd.graphauto import Graph
from qscd.permgroup import Permutation
from qscd.qstate import PRUNE_TOL

# A rigid 6-node graph: a triangle with pendant tails of lengths 1 and 2.
RIGID6 = Graph(6, frozenset({(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (5, 6)}))


def from_cycles(n: int, cycles: list[tuple[int, ...]]) -> Permutation:
    """Permutation of degree n from disjoint cycles, e.g. [(1, 2, 3)].

    Refuses a point outside 1..n and a point in two cycles, so a test builds
    only the permutation it wrote.
    """
    image = list(range(1, n + 1))
    seen: set[int] = set()
    for cycle in cycles:
        for point in cycle:
            if not 1 <= point <= n:
                raise ValueError(f"point {point} is not in 1..{n}")
            if point in seen:
                raise ValueError(f"point {point} appears in two cycles")
            seen.add(point)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return Permutation(tuple(image))


def format_graph(g: Graph) -> str:
    """Graph file text, the format ``graphauto.parse_graph`` reads: a
    ``nodes edges`` header, then one ``u v`` line per edge in sorted order.

    No command writes a graph, so the package keeps only the parser.
    """
    lines = [f"{g.node_count} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def brute_fpf_involutions(n: int) -> set[tuple[int, ...]]:
    """K_n by scanning all of S_n for order two and no fixed point."""
    out = set()
    for images in itertools.permutations(range(1, n + 1)):
        if all(images[images[i - 1] - 1] == i for i in range(1, n + 1)):
            if all(images[i - 1] != i for i in range(1, n + 1)):
                out.add(images)
    return out


def brute_cyclic_class(n: int, m: int) -> set[tuple[int, ...]]:
    """K_n^m by scanning S_n: order exactly m and every cycle of length m."""
    out = set()
    for images in itertools.permutations(range(1, n + 1)):
        ok = True
        for start in range(1, n + 1):
            length = 1
            point = images[start - 1]
            while point != start:
                point = images[point - 1]
                length += 1
            if length != m:
                ok = False
                break
        if ok:
            out.add(images)
    return out


def inversion_parity(images: tuple[int, ...]) -> int:
    """Parity of a permutation's image tuple by counting its inversions."""
    n = len(images)
    return sum(images[i] > images[j] for i in range(n) for j in range(i + 1, n)) % 2


def brute_automorphisms(n: int, edges: frozenset[tuple[int, int]]) -> list[Permutation]:
    """All automorphisms by scanning S_n against the edge set."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        sigma = Permutation(images)
        mapped = {(min(sigma(u), sigma(v)), max(sigma(u), sigma(v))) for u, v in edges}
        if mapped == set(edges):
            out.append(sigma)
    return out


def brute_automorphism_count(n: int, edges: frozenset[tuple[int, int]]) -> int:
    """|Aut| by scanning S_n, each permutation dropped at its first edge
    that does not map onto an edge."""
    adjacent = {frozenset(e) for e in edges}
    pairs = [(u - 1, v - 1) for u, v in edges]
    return sum(
        all(frozenset((images[u], images[v])) in adjacent for u, v in pairs)
        for images in itertools.permutations(range(1, n + 1))
    )


def two_point_key(state) -> tuple[int, ...]:
    """The hidden key of a two-point draw with support {a, b}, as a^-1 b.

    For a key in K_n the order of a and b does not matter: the key is its
    own inverse.
    """
    (_, a), (_, b) = state.amps
    a_inv = [0] * len(a.image)
    for i, t in enumerate(a.image, start=1):
        a_inv[t - 1] = i
    return tuple(a_inv[t - 1] for t in b.image)


def has_nontrivial_automorphism(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    return len(brute_automorphisms(n, edges)) > 1


class DenseSymmetricGroup:
    """S_n indexed by lexicographic rank, with its own permutation arithmetic.

    A state over a control register Z_m is a numpy array of shape (m, n!):
    entry [r, rank(sigma)] is the amplitude of |r>|sigma>. Meant for n <= 6.
    """

    def __init__(self, n: int):
        self.n = n
        # itertools.permutations lists S_n in lexicographic order, so row i
        # holds the images of the permutation of rank i (0-based points).
        self.images = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        self.order = len(self.images)
        self._place = n ** np.arange(n)
        self._rank_of_code = np.zeros(n**n, dtype=np.int64)
        self._rank_of_code[self.images @ self._place] = np.arange(self.order)

    def rank(self, image: tuple[int, ...]) -> int:
        """Rank of the permutation with the given 1-based images."""
        return int(self._rank_of_code[(np.array(image) - 1) @ self._place])

    def right_multiply(self, tau: np.ndarray) -> np.ndarray:
        """Index map rank(sigma) -> rank(sigma tau), tau as 0-based images."""
        return self._rank_of_code[self.images[:, tau] @ self._place]

    def vector(self, amps: dict, m: int) -> np.ndarray:
        """Dense form of a sparse amplitude map over (control, permutation)."""
        out = np.zeros((m, self.order), dtype=complex)
        for (r, perm), amp in amps.items():
            out[r, self.rank(perm.image)] += amp
        return out

    @staticmethod
    def fourier_control(state: np.ndarray, direction: str) -> np.ndarray:
        """DFT (x) I: |r> -> sum_r' w^(+-r r') |r'> / sqrt(m), w = exp(2 pi i / m)."""
        m = len(state)
        roots = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        return (roots if direction == "forward" else roots.conj()) @ state

    def controlled_power(self, state: np.ndarray, key: tuple[int, ...]) -> np.ndarray:
        """|r>|sigma> -> |r>|sigma key^r>: row r moved by an index permutation."""
        out = np.empty_like(state)
        power = np.arange(self.n)
        step = np.array(key) - 1
        for r in range(len(state)):
            out[r, self.right_multiply(power)] = state[r]
            power = power[step]
        return out

    def translate(self, state: np.ndarray, tau: tuple[int, ...]) -> np.ndarray:
        """|r>|sigma> -> |r>|sigma tau>: every row moved by one index permutation."""
        out = np.empty_like(state)
        out[:, self.right_multiply(np.array(tau) - 1)] = state
        return out

    def phase_by_sign(self, state: np.ndarray) -> np.ndarray:
        """The diagonal (-1)^parity, parity counted as inversions of each row."""
        i, j = np.triu_indices(self.n, 1)
        parity = (self.images[:, i] > self.images[:, j]).sum(axis=1) % 2
        return state * (1 - 2 * parity)

    @staticmethod
    def control_probabilities(state: np.ndarray) -> np.ndarray:
        """Born weights of the control outcomes: sums of |a|^2 over each row."""
        return (np.abs(state) ** 2).sum(axis=1)

    def coset_draw(self, sigma: np.ndarray, key: np.ndarray, s: int, m: int) -> np.ndarray:
        """Control-free row of sum_t w^(st) / sqrt(m) |sigma key^t>, with sigma
        and key as 0-based images."""
        out = np.zeros((1, self.order), dtype=complex)
        point = sigma
        for t in range(m):
            rank = self._rank_of_code[point @ self._place]
            out[0, rank] = np.exp(2j * np.pi * s * t / m) / np.sqrt(m)
            point = point[key]
        return out

    def decode_distribution(self, amps: dict, key: tuple[int, ...], m: int) -> np.ndarray:
        """Control distribution of the decoder run as an explicit circuit.

        A control over Z_m is attached in |0>, the inverse DFT (x) I splits
        it, |r>|sigma> -> |r>|sigma key^r> moves each row by an index
        permutation, and the forward DFT (x) I recombines it.
        """
        state = self.fourier_control(self.vector(amps, m), "inverse")
        state = self.controlled_power(state, key)
        return self.control_probabilities(self.fourier_control(state, "forward"))


def _control_fourier(entries: dict, m: int, sgn: int) -> dict:
    """|r>|sigma> -> sum_r' w^(sgn r r') / sqrt(m) |r'>|sigma> on a map
    {(r, image): amp}, with w = exp(2 pi i / m).

    Entries are grouped by image in order of arrival, each output sums its
    terms from 0j in that order, and a sum under PRUNE_TOL is dropped, as a
    state drops it.
    """
    omega = [[cmath.exp(sgn * 2j * math.pi * (r * r2 % m) / m) for r2 in range(m)] for r in range(m)]
    scale = 1.0 / math.sqrt(m)
    groups: dict[tuple[int, ...], list] = {}
    for (r, image), amp in entries.items():
        groups.setdefault(image, []).append((omega[r], amp))
    out = {}
    for image, group in groups.items():
        for r2 in range(m):
            total = 0j
            for row, amp in group:
                total = total + amp * row[r2] * scale
            if not abs(total) < PRUNE_TOL:  # NaN is kept, as a state keeps it
                out[(r2, image)] = total
    return out


def norm(state) -> float:
    """The 2-norm of a state's stored amplitudes, computed test-side."""
    return math.sqrt(sum(abs(amp) ** 2 for amp in state.amps.values()))


def decoder_circuit(amps: dict, key: tuple[int, ...], m: int) -> dict:
    """The decoder as its circuit of four operations, on its own arithmetic.

    The control-free amplitude map ``amps`` is lifted to a control over Z_m
    in |0>; then the inverse Fourier map, |r>|sigma> -> |r>|sigma key^r>, and
    the forward Fourier map. Returns {(control, image): amplitude} in the
    order the operations store their entries, so a caller can compare a
    one-pass decoder to the bit and in order.
    """
    state = _control_fourier({(0, perm.image): amp for (_, perm), amp in amps.items()}, m, -1)
    table = [tuple(range(1, len(key) + 1))]
    while len(table) < m:
        table.append(tuple(key[p - 1] for p in table[-1]))
    moved = {(r, tuple(image[p - 1] for p in table[r])): amp for (r, image), amp in state.items()}
    return _control_fourier(moved, m, 1)


class StubRng:
    """Stand-in generator returning scripted values; identity shuffle by default."""

    def __init__(self, perm: list[int] | None = None, bits: list[int] | None = None):
        self._perm = perm
        self._bits = list(bits or [])

    def shuffle(self, x: np.ndarray) -> None:
        """Reorder x in place by the scripted 0-based permutation, as
        ``Generator.shuffle`` reorders it by its draw; x[:] = x[perm]."""
        if self._perm is not None:
            x[:] = x[np.array(self._perm)]

    def integers(self, *args, **kwargs):
        if self._bits:
            return self._bits.pop(0)
        return 0
