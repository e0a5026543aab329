"""Exact arithmetic over the symmetric group S_n and its special key classes.

Points are 1-based throughout: a permutation of degree n acts on {1,...,n}.
The key class K_n^m holds the products of n/m disjoint m-cycles; its m = 2
case K_n = K_n^2 holds the fixed-point-free involutions.
Admissible degrees for the fixed-point-free setting are n = 2(2k+1), i.e.
n = 2, 6, 10, ...; for those degrees every element of K_n is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter

import numpy as np

FF = "ff"
CYC = "cyc"
# The largest key degree. At this degree keygen, demo and a one-trial
# advantage each took under 2 s and 75 MB on a shared 2-CPU machine
# (ff, and cyc with cycle length 2 or 3), the n-index gathers that compose
# caches on the key's powers included.
MAX_DEGREE = 100_000
# The most permutation points a command builds at once: m*m*n for a cyc key
# series (m states of m points), (k + l)*m*n for one distinguisher tuple.
# At this size demo took under 0.8 s and 60 MB, and a one-trial advantage
# at n = 6, where each state costs the most per point, 7.1-7.8 s and 120 MB.
MAX_POINTS = 1_000_000


@dataclass(frozen=True)
class Permutation:
    """Immutable permutation of {1..n}, stored as the tuple of images.

    ``image[i-1]`` is where point ``i`` maps. Only the constructor checks for a
    bijection (see ``_trusted``); cycle type, powers and the gather that
    ``compose`` applies for a right factor are cached on the instance.
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(map(int, self.image))
        object.__setattr__(self, "image", image)
        n = len(image)
        if n < 1:
            raise ValueError("permutation degree must be positive")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {image}")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, point: int) -> int:
        return self.image[point - 1]

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"

    @cached_property
    def cycle_type(self) -> tuple[int, ...]:
        """Sorted cycle lengths including fixed points."""
        seen, lengths = set(), []
        for start in self.image:
            length, point = 0, start
            while point not in seen:
                seen.add(point)
                length, point = length + 1, self.image[point - 1]
            if length:
                lengths.append(length)
        return tuple(sorted(lengths))

    @cached_property
    def _gather(self) -> itemgetter:
        # sigma.image -> (sigma self).image for a sigma of this degree, the
        # gather that compose applies for this right factor. itemgetter of
        # one index returns the item, not a 1-tuple; at n = 1 the permutation
        # is the identity, and the whole-tuple slice gives sigma's image
        return itemgetter(*[t - 1 for t in self.image] if len(self.image) > 1 else [slice(None)])

    @cached_property
    def _powers(self) -> list[Permutation]:
        # sigma^0, sigma^2, sigma^3, ...: sigma^1 is the permutation itself,
        # which this table leaves out so that the permutation does not refer
        # to itself and is freed without the cyclic garbage collector
        return [identity(self.n)]


def _trusted(image: tuple[int, ...]) -> Permutation:
    """Permutation on an image of plain ints that is a bijection by construction."""
    perm = object.__new__(Permutation)
    perm.__dict__["image"] = image
    return perm


def identity(n: int) -> Permutation:
    return _trusted(tuple(range(1, n + 1)))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma tau)(i) = sigma(tau(i)); right-multiplying sigma by pi is compose(sigma, pi).
    Refuses a tau of another degree; the state operations rely on this check.
    The gather of tau's 0-based images is built once and cached on tau."""
    image = sigma.image
    if len(image) != len(tau.image):
        raise ValueError(f"degree mismatch: {sigma.n} vs {tau.n}")
    return _trusted(tau._gather(image))


def inverse(sigma: Permutation) -> Permutation:
    image = [0] * sigma.n
    for i, t in enumerate(sigma.image, start=1):
        image[t - 1] = i
    return _trusted(tuple(image))


def powers(sigma: Permutation, count: int) -> list[Permutation]:
    """The list sigma^0, sigma^1, ..., at least count entries long. Entry 1
    is sigma itself, so sigma's is the one gather built for it; the other
    powers are cached on sigma, each composed once."""
    cached = sigma._powers
    while len(cached) + 1 < count:
        cached.append(compose(cached[-1] if len(cached) > 1 else sigma, sigma))
    return [cached[0], sigma, *cached[1:]]


def perm_pow(sigma: Permutation, r: int) -> Permutation:
    """sigma composed with itself r times (r >= 0)."""
    if r < 0:
        raise ValueError("negative power not supported")
    r %= math.lcm(*sigma.cycle_type)
    return powers(sigma, r + 1)[r]


def sign(sigma: Permutation) -> int:
    """Parity bit: 0 for even permutations, 1 for odd: n minus the cycle count,
    counted in one pass with nothing cached, so a draw pays for no cycle type."""
    image = sigma.image
    seen = bytearray(len(image) + 1)
    cycles = 0
    for start in image:
        if not seen[start]:
            cycles += 1
            point = start
            while not seen[point]:
                seen[point] = 1
                point = image[point - 1]
    return (len(image) - cycles) % 2


def is_ff_degree(n: int) -> bool:
    """Membership in the admissible degree set {2(2k+1)} = {2, 6, 10, ...}."""
    return n >= 2 and n % 4 == 2


def require_ff_degree(n: int) -> None:
    """The one ff degree check: n in {2, 6, 10, ...}."""
    if not is_ff_degree(n):
        raise ValueError(f"degree {n} is not 2 mod 4")


def is_cyclic_class(sigma: Permutation, m: int) -> bool:
    """Membership in K_n^m: disjoint n/m cycles, all of length m (K_n is m = 2)."""
    return m > 0 and sigma.cycle_type == (m,) * (sigma.n // m)


def require_cyclic_key(pi: Permutation, m: int) -> None:
    """The one key-class check: pi in K_n^m for an m >= 2."""
    if m < 2:
        raise ValueError(f"cyclic order must be >= 2, got {m}")
    if not is_cyclic_class(pi, m):
        raise ValueError(f"key is not a product of disjoint {m}-cycles")


def require_points(points: int, what: str) -> None:
    if points > MAX_POINTS:
        raise ValueError(f"{what} holds {points} permutation points, over the ceiling {MAX_POINTS}")


@dataclass(frozen=True)
class SecurityParam:
    """Degree plus key-class selector for the two schemes.

    ``ff`` keys live in K_n and need n in {2, 6, 10, ...}; ``cyc`` keys live
    in K_n^m and need m >= 2 dividing n.
    """

    n: int
    kind: str
    m: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"degree must be >= 1, got {self.n}")
        if self.n > MAX_DEGREE:
            raise ValueError(f"degree {self.n} exceeds the ceiling {MAX_DEGREE}")
        if self.kind == FF:
            require_ff_degree(self.n)
            if self.m != 2:
                raise ValueError("ff mode has control modulus 2")
        elif self.kind == CYC:
            if self.m < 2:
                raise ValueError(f"cyclic order must be >= 2, got {self.m}")
            if self.n % self.m != 0:
                raise ValueError(f"{self.m} does not divide {self.n}")
            series = f"a key series of {self.m} states of {self.m} points of degree {self.n}"
            require_points(self.m * self.m * self.n, series)
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def ff(cls, n: int) -> "SecurityParam":
        return cls(n=n, kind=FF)

    @classmethod
    def cyc(cls, n: int, m: int) -> "SecurityParam":
        return cls(n=n, kind=CYC, m=m)


@cache
def _points(n: int) -> np.ndarray:
    return np.arange(1, n + 1)


def _shuffled_points(n: int, rng: np.random.Generator) -> list[int]:
    """1..n in the order of ``rng.permutation(n) + 1``, leaving rng in the same
    state: permutation(n) runs this one shuffle on arange(n)."""
    points = _points(n).copy()
    rng.shuffle(points)
    return points.tolist()


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return _trusted(tuple(_shuffled_points(n, rng)))


def sample_fpf_involution(param: SecurityParam, rng: np.random.Generator) -> Permutation:
    """Uniform element of K_n = K_n^2 via a random perfect matching.

    Repeatedly pairs the smallest unmatched point with a uniformly random
    other unmatched point, which hits every perfect matching with equal
    probability. ``sample_cyclic`` at m = 2 is as uniform but draws otherwise;
    this sampler stays so that every seed keeps its ff key.
    """
    if param.kind != FF:
        raise ValueError("sample_fpf_involution needs an ff parameter")
    unmatched = list(range(1, param.n + 1))
    image = [0] * param.n
    while unmatched:
        a = unmatched.pop(0)
        b = unmatched.pop(int(rng.integers(len(unmatched))))
        image[a - 1] = b
        image[b - 1] = a
    return _trusted(tuple(image))


def sample_cyclic(param: SecurityParam, rng: np.random.Generator) -> Permutation:
    """Uniform element of K_n^m.

    Shuffles {1..n}, cuts the shuffle into n/m blocks of m points, and turns
    each block into one m-cycle. Every element of K_n^m arises from exactly
    m^(n/m) * (n/m)! shuffles, so the output is uniform.
    """
    if param.kind != CYC:
        raise ValueError("sample_cyclic needs a cyc parameter")
    points = _shuffled_points(param.n, rng)
    image = [0] * param.n
    for start in range(0, param.n, param.m):
        block = points[start:start + param.m]
        for a, b in zip(block, block[1:] + block[:1]):
            image[a - 1] = b
    return _trusted(tuple(image))


def format_permutation(sigma: Permutation) -> str:
    """Text form ``n: i1 i2 ... in`` with 1-based images."""
    return f"{sigma.n}: " + " ".join(str(x) for x in sigma.image)


def parse_permutation(text: str, line_no: int = 1) -> Permutation:
    """Read the text form ``n: i1 i2 ... in`` found on line line_no; errors name the line and the field."""
    head, colon, tail = text.partition(":")
    if not colon:
        raise ValueError(f"line {line_no}: missing ':' in permutation text: {text.strip()!r}")
    fields = [head, *tail.split()]
    try:
        n, *image = map(int, fields)
    except ValueError:
        # int_fields raises the error naming the bad field; the names are built only here
        int_fields(line_no, fields, "degree", *(f"image {i}" for i in range(1, len(fields))))
        raise
    if len(image) != n:
        raise ValueError(f"line {line_no}: expected {n} images, got {len(image)}")
    try:
        return Permutation(tuple(image))
    except ValueError as exc:
        raise ValueError(f"line {line_no}: {exc}") from None


def int_fields(line_no: int, fields: list[str], *names: str) -> list[int]:
    """One integer per name from a text line's fields; errors name the line and the field."""
    if len(fields) != len(names):
        raise ValueError(f"line {line_no}: expected {', '.join(names)}; got {' '.join(fields)!r}")
    return [read_number(line_no, name, field, int) for name, field in zip(names, fields)]


def read_number(line_no: int, name: str, field: str, kind: type) -> int | float:
    """One int or float field of a text line; errors name the line and the field."""
    try:
        return kind(field)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"line {line_no}: {name} {field!r} is not {what}") from None
