import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qscd.permgroup import (
    MAX_DEGREE,
    MAX_POINTS,
    Permutation,
    SecurityParam,
    compose,
    format_permutation,
    identity,
    inverse,
    is_cyclic_class,
    is_ff_degree,
    parse_permutation,
    perm_pow,
    powers,
    random_permutation,
    sample_cyclic,
    sample_fpf_involution,
    sign,
)

from oracles import StubRng, brute_cyclic_class, brute_fpf_involutions, from_cycles, inversion_parity

perms6 = st.permutations(list(range(1, 7))).map(lambda xs: Permutation(tuple(xs)))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_call_is_one_based(self):
        p = Permutation((2, 3, 1))
        assert [p(1), p(2), p(3)] == [2, 3, 1]

    def test_from_cycles_rejects_overlap(self):
        with pytest.raises(ValueError):
            from_cycles(4, [(1, 2), (2, 3)])


class TestCompose:
    def test_identity_neutral(self):
        sigma = Permutation((3, 1, 2))
        assert compose(identity(3), sigma) == sigma
        assert compose(sigma, identity(3)) == sigma

    def test_transpositions_by_hand(self):
        # (1 2)(2 3) multiplied by hand with (sigma tau)(i) = sigma(tau(i))
        # gives the 3-cycle 1 -> 2 -> 3 -> 1.
        left = from_cycles(3, [(1, 2)])
        right = from_cycles(3, [(2, 3)])
        assert compose(left, right) == from_cycles(3, [(1, 2, 3)])

    def test_key_class_elements_square_to_identity(self):
        for pi in map(Permutation, brute_fpf_involutions(6)):
            assert compose(pi, pi) == identity(6)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
            compose(identity(3), identity(4))
        # a longer left factor: the gather of a degree-3 tau would keep three
        # of its four images, so the check must come first, cached or not
        tau = from_cycles(3, [(1, 2)])
        with pytest.raises(ValueError, match="^degree mismatch: 4 vs 3$"):
            compose(identity(4), tau)
        compose(identity(3), tau)
        assert "_gather" in vars(tau)
        with pytest.raises(ValueError, match="^degree mismatch: 4 vs 3$"):
            compose(identity(4), tau)

    @pytest.mark.parametrize("n", [1, 2, 6, 14, 1000])
    def test_matches_tuple_composition(self, n):
        rng = np.random.default_rng(n)
        tau = random_permutation(n, rng)
        for _ in range(20):
            sigma = random_permutation(n, rng)
            expected = tuple(sigma.image[t - 1] for t in tau.image)
            for right in (tau, Permutation(tau.image)):  # reused, then fresh
                got = compose(sigma, right)
                assert got.image == expected
                assert type(got.image) is tuple and all(type(x) is int for x in got.image)

    @settings(max_examples=50, deadline=None)
    @given(perms6, perms6, perms6)
    def test_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInverse:
    def test_identity(self):
        assert inverse(identity(5)) == identity(5)

    def test_three_cycle(self):
        assert inverse(from_cycles(3, [(1, 2, 3)])) == from_cycles(3, [(1, 3, 2)])

    @settings(max_examples=50, deadline=None)
    @given(perms6)
    def test_roundtrip(self, sigma):
        assert compose(sigma, inverse(sigma)) == identity(6)

    def test_key_class_self_inverse(self):
        for pi in map(Permutation, brute_fpf_involutions(6)):
            assert inverse(pi) == pi


class TestSign:
    def test_identity_even(self):
        assert sign(identity(4)) == 0

    def test_transposition_odd(self):
        assert sign(from_cycles(4, [(1, 2)])) == 1

    def test_all_of_k6_odd(self):
        oracle = brute_fpf_involutions(6)
        assert len(oracle) == 15
        for images in oracle:
            assert sign(Permutation(images)) == 1

    def test_matches_inversion_parity(self):
        perms = [Permutation(images) for n in range(1, 7) for images in itertools.permutations(range(1, n + 1))]
        rng = np.random.default_rng(32)
        perms += [random_permutation(n, rng) for n in range(1, 15) for _ in range(50)]
        for p in perms:
            assert "cycle_type" not in vars(p)
            assert sign(p) == inversion_parity(p.image), p
            assert "cycle_type" not in vars(p)
            assert len(p.cycle_type) >= 1  # cached now: sign still counts the cycles
            assert sign(p) == inversion_parity(p.image), p

    @settings(max_examples=50, deadline=None)
    @given(perms6, perms6)
    def test_homomorphism(self, a, b):
        assert sign(compose(a, b)) == sign(a) ^ sign(b)

    @settings(max_examples=50, deadline=None)
    @given(perms6)
    def test_inverse_same_sign(self, sigma):
        assert sign(sigma) == sign(inverse(sigma))


class TestTrustedResults:
    """Results built without re-validation are still plain, valid permutations."""

    def plain(self, p):
        return type(p.image) is tuple and all(type(x) is int for x in p.image)

    def test_images_are_plain_ints(self):
        rng = np.random.default_rng(30)
        sigma = random_permutation(7, rng)
        tau = random_permutation(7, rng)
        made = [
            sigma,
            compose(sigma, tau),
            inverse(sigma),
            identity(7),
            perm_pow(sigma, 3),
            sample_fpf_involution(SecurityParam.ff(6), rng),
            sample_cyclic(SecurityParam.cyc(6, 3), rng),
        ]
        for p in made:
            assert self.plain(p), p
            assert sorted(p.image) == list(range(1, p.n + 1))
            assert p == Permutation(p.image)
            assert repr(p) == "Permutation([" + ", ".join(str(x) for x in p.image) + "])"

    def test_public_constructors_still_validate(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            compose(identity(3), from_cycles(4, [(1, 2)]))
        with pytest.raises(ValueError):
            from_cycles(3, [(1, 4)])
        with pytest.raises(ValueError):
            from_cycles(3, [(0, 1)])
        with pytest.raises(ValueError):
            parse_permutation("2: 2 2")

    def test_cached_data_leaves_eq_hash_repr_alone(self):
        pi = from_cycles(6, [(1, 2, 3), (4, 5, 6)])
        fresh = Permutation(pi.image)
        before = (hash(pi), repr(pi))
        assert is_cyclic_class(pi, 3) and sign(pi) == 0 and pi.cycle_type == (3, 3)
        assert perm_pow(pi, 2) == from_cycles(6, [(1, 3, 2), (4, 6, 5)])  # composes with pi
        assert "_powers" in vars(pi) and "cycle_type" in vars(pi) and "_gather" in vars(pi)
        assert "_powers" not in vars(fresh) and "_gather" not in vars(fresh)
        assert pi == fresh and fresh == pi
        assert (hash(pi), repr(pi)) == before == (hash(fresh), repr(fresh))
        assert {pi: 1}[fresh] == 1

    @settings(max_examples=50, deadline=None)
    @given(perms6, st.integers(0, 40))
    def test_powers_match_repeated_composition(self, sigma, count):
        # Composition on plain tuples, independent of the cached table.
        expected, image = [], tuple(range(1, 7))
        for _ in range(count):
            expected.append(image)
            image = tuple(image[t - 1] for t in sigma.image)
        assert [p.image for p in powers(sigma, count)[:count]] == expected
        assert [perm_pow(sigma, r).image for r in range(count)] == expected

    def test_power_table_holds_the_key_itself(self):
        # the key's gather is built once, on the key, and no equal copy of
        # the key holds a second one; the cached table does not refer back
        # to the key, which is freed once dropped, without a collection
        for cycles, m in [([(1, 2), (3, 4), (5, 6)], 2), ([(1, 2, 3), (4, 5, 6)], 3)]:
            pi = from_cycles(6, cycles)
            table = powers(pi, m)
            assert table[1] is pi and len(table) == m
            assert [k for k, p in enumerate(table) if "_gather" in vars(p)] == ([1] if m > 2 else [])
            compose(identity(6), table[1])
            assert [k for k, p in enumerate(table) if "_gather" in vars(p)] == [1]
            freed = weakref.ref(pi)
            gc.disable()
            try:
                del pi, table
                assert freed() is None
            finally:
                gc.enable()

    def test_power_table_stops_at_the_order(self):
        pi = from_cycles(6, [(1, 2, 3), (4, 5)])
        assert perm_pow(pi, 6 * 10**9 + 1) == pi
        assert len(vars(pi)["_powers"]) <= 6
        assert perm_pow(identity(4), 12345) == identity(4)


class TestSecurityParam:
    def test_ff_degree_set(self):
        assert [n for n in range(1, 15) if is_ff_degree(n)] == [2, 6, 10, 14]

    def test_ff_rejects_bad_degree(self):
        for n in (1, 4, 8, 12, -2):  # -2 is 2 mod 4
            with pytest.raises(ValueError):
                SecurityParam.ff(n)
        # the wording of every ff degree refusal
        with pytest.raises(ValueError, match="^degree 4 is not 2 mod 4$"):
            SecurityParam.ff(4)

    def test_cyc_divisibility(self):
        SecurityParam.cyc(6, 3)
        with pytest.raises(ValueError):
            SecurityParam.cyc(6, 4)
        with pytest.raises(ValueError):
            SecurityParam.cyc(6, 1)
        for n, m in ((0, 2), (-6, 3)):  # divisible, but no degree
            with pytest.raises(ValueError, match="degree must be >= 1"):
                SecurityParam.cyc(n, m)

    def test_degree_ceiling(self):
        assert SecurityParam.cyc(MAX_DEGREE, 2).n == MAX_DEGREE
        assert SecurityParam.ff(MAX_DEGREE - 2).n == MAX_DEGREE - 2  # the largest ff degree
        for params in (SecurityParam.ff, lambda n: SecurityParam.cyc(n, 2)):
            with pytest.raises(ValueError, match=f"exceeds the ceiling {MAX_DEGREE}"):
                params(MAX_DEGREE + 2)

    def test_key_series_ceiling(self):
        # A cyc key series holds m states of m points: m * m * n of them.
        n = MAX_POINTS // 100
        assert 10 * 10 * n == MAX_POINTS
        assert SecurityParam.cyc(n, 10).n == n  # the ceiling itself
        assert SecurityParam.cyc(MAX_DEGREE - 1, 3).m == 3  # the degree ceiling at m = 3 stays open
        with pytest.raises(ValueError, match=f"holds {100 * (n + 10)} permutation points, over the ceiling"):
            SecurityParam.cyc(n + 10, 10)


class TestDraw:
    """random_permutation and sample_cyclic draw exactly as rng.permutation(n) + 1."""

    def check(self, n, seed, m=None):
        """random_permutation(n), or sample_cyclic at (n, m) when m is given:
        the same images, and the same generator state after the draw."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        points = (want_rng.permutation(n) + 1).tolist()
        if m is None:
            assert random_permutation(n, got_rng) == Permutation(tuple(points))
        else:
            blocks = [tuple(points[i:i + m]) for i in range(0, n, m)]
            assert sample_cyclic(SecurityParam.cyc(n, m), got_rng) == from_cycles(n, blocks)
        assert got_rng.random() == want_rng.random()

    def test_small_degrees_over_seeds(self):
        for seed in range(500):
            for n in range(1, 15):
                self.check(n, seed)
                for m in range(2, n + 1):
                    if n % m == 0:
                        self.check(n, seed, m)

    def test_degree_ceiling(self):
        self.check(MAX_DEGREE, 34)
        self.check(MAX_DEGREE, 35, 2)

    def test_stub_shuffle_is_the_scripted_permutation(self):
        assert random_permutation(4, StubRng()) == identity(4)
        assert random_permutation(3, StubRng([2, 0, 1])) == Permutation((3, 1, 2))


class TestSampleFpfInvolution:
    def test_n2_is_the_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_fpf_involution(SecurityParam.ff(2), rng) == from_cycles(2, [(1, 2)])

    def test_membership_at_n6(self):
        rng = np.random.default_rng(1)
        oracle = brute_fpf_involutions(6)
        for _ in range(200):
            pi = sample_fpf_involution(SecurityParam.ff(6), rng)
            assert pi.image in oracle
            assert compose(pi, pi) == identity(6)
            assert all(pi(i) != i for i in range(1, 7))

    def test_uniform_chisquare(self):
        rng = np.random.default_rng(2)
        cells = {images: 0 for images in brute_fpf_involutions(6)}
        for _ in range(15000):
            cells[sample_fpf_involution(SecurityParam.ff(6), rng).image] += 1
        assert stats.chisquare(list(cells.values())).pvalue > 0.001

    def test_rejects_cyc_params(self):
        with pytest.raises(ValueError):
            sample_fpf_involution(SecurityParam.cyc(6, 3), np.random.default_rng(0))


class TestSampleCyclic:
    def test_order_and_no_fixed_points(self):
        rng = np.random.default_rng(3)
        for n, m in [(6, 3), (8, 4), (12, 6)]:
            for _ in range(50):
                pi = sample_cyclic(SecurityParam.cyc(n, m), rng)
                assert perm_pow(pi, m) == identity(n)
                for t in range(1, m):
                    assert perm_pow(pi, t) != identity(n)
                assert all(pi(i) != i for i in range(1, n + 1))

    def test_n3_m3_hits_both_three_cycles(self):
        rng = np.random.default_rng(4)
        seen = {sample_cyclic(SecurityParam.cyc(3, 3), rng).image for _ in range(50)}
        assert seen == brute_cyclic_class(3, 3)

    def test_n2_m2_is_the_swap(self):
        rng = np.random.default_rng(5)
        assert sample_cyclic(SecurityParam.cyc(2, 2), rng) == from_cycles(2, [(1, 2)])


def key_class(n: int, m: int) -> set[tuple[int, ...]]:
    """K_n^m as selftest criterion 4 lists it: S_n filtered by is_cyclic_class."""
    s_n = map(Permutation, itertools.permutations(range(1, n + 1)))
    return {p.image for p in s_n if is_cyclic_class(p, m)}


class TestEnumerators:
    def test_fpf_involutions_match_brute_force(self):
        # K_n is the m = 2 class
        for n in (4, 6):
            assert key_class(n, 2) == brute_fpf_involutions(n)

    def test_cyclic_class_matches_brute_force(self):
        for n, m in [(4, 2), (6, 2), (3, 3), (6, 3), (4, 4), (6, 6), (5, 2), (6, 4)]:
            assert key_class(n, m) == brute_cyclic_class(n, m)

    def test_k10_samples_are_odd(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pi = sample_fpf_involution(SecurityParam.ff(10), rng)
            assert is_cyclic_class(pi, 2) and sign(pi) == 1


class TestTextFormat:
    def test_roundtrip(self):
        sigma = Permutation((2, 1, 4, 3, 6, 5))
        assert parse_permutation(format_permutation(sigma)) == sigma
        assert format_permutation(sigma) == "6: 2 1 4 3 6 5"

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            parse_permutation("3: 1 1 2")

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            parse_permutation("4: 1 2 3")

    def test_rejects_missing_colon(self):
        with pytest.raises(ValueError):
            parse_permutation("1 2 3")
