import math

import numpy as np
import pytest
from scipy import stats

from qscd.permgroup import (
    Permutation,
    compose,
    cyclic_class,
    from_cycles,
    identity,
)
from qscd.qscdcyc import decode_distribution
from qscd.qscdff import convert, distinguish, gen_iota, gen_plus
from qscd.qstate import SparseState, states_equal

SQ2 = 1.0 / math.sqrt(2.0)
PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])


def handmade_plus(sigma, pi):
    return SparseState(sigma.n, 1, {(0, sigma): SQ2, (0, compose(sigma, pi)): SQ2})


class TestGenPlus:
    def test_two_point_coset_support(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            sample = gen_plus(PI6, rng)
            perms = [perm for _, perm in sample.amps]
            assert len(perms) == 2
            a, b = perms
            assert compose(a, PI6) == b or compose(b, PI6) == a

    def test_equal_amplitudes(self):
        rng = np.random.default_rng(31)
        sample = gen_plus(PI6, rng)
        for amp in sample.amps.values():
            assert amp == pytest.approx(SQ2, abs=1e-9)

    def test_marginal_uniform_over_s6(self):
        # Born measurement of a plus draw lands on either coset point with
        # probability 1/2; over uniform sigma the marginal is uniform on S_6.
        rng = np.random.default_rng(32)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(36000):
            _, perm = gen_plus(PI6, rng).measure_full(rng)
            counts[perm.image] = counts.get(perm.image, 0) + 1
        assert len(counts) == 720
        assert stats.chisquare(list(counts.values())).pvalue > 0.001

    def test_rejects_non_involution(self):
        state = gen_plus(PI6, np.random.default_rng(0))
        for cycles in ([(1, 2, 3)], [(1, 2), (3, 4, 5, 6)]):
            key = from_cycles(6, cycles)
            with pytest.raises(ValueError):
                gen_plus(key, np.random.default_rng(0))
            with pytest.raises(ValueError):
                distinguish(state, key, np.random.default_rng(0))

    def test_rejects_degree_outside_admissible_set(self):
        with pytest.raises(ValueError):
            gen_plus(from_cycles(4, [(1, 2), (3, 4)]), np.random.default_rng(0))


class TestGenIota:
    def test_singleton_support(self):
        rng = np.random.default_rng(33)
        assert len(gen_iota(6, rng).amps) == 1

    def test_n2_frequencies(self):
        rng = np.random.default_rng(34)
        hits = sum(
            gen_iota(2, rng).measure_full(rng)[1] == identity(2) for _ in range(2000)
        )
        assert abs(hits / 2000 - 0.5) < 0.05

    def test_uniform_chisquare_over_s6(self):
        rng = np.random.default_rng(35)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(72000):
            perm = gen_iota(6, rng).measure_full(rng)[1]
            counts[perm.image] = counts.get(perm.image, 0) + 1
        assert len(counts) == 720
        assert stats.chisquare(list(counts.values())).pvalue > 0.001


class TestConvert:
    def test_opposite_signs_on_support(self):
        rng = np.random.default_rng(36)
        converted = convert(gen_plus(PI6, rng))
        amps = list(converted.amps.values())
        assert amps[0].real * amps[1].real < 0

    def test_double_convert_is_exact_identity(self):
        rng = np.random.default_rng(37)
        sample = gen_plus(PI6, rng)
        assert convert(convert(sample)).amps == sample.amps

    def test_iota_invariant_up_to_global_phase(self):
        rng = np.random.default_rng(38)
        sample = gen_iota(6, rng)
        assert states_equal(convert(sample), sample, up_to_global_phase=True)



class TestDistinguish:
    def test_plus_always_yes(self):
        rng = np.random.default_rng(40)
        assert all(distinguish(gen_plus(PI6, rng), PI6, rng) == 1 for _ in range(1000))

    def test_minus_always_no(self):
        rng = np.random.default_rng(41)
        assert all(
            distinguish(convert(gen_plus(PI6, rng)), PI6, rng) == 0 for _ in range(1000)
        )

    def test_iota_is_a_coin(self):
        rng = np.random.default_rng(42)
        hits = sum(distinguish(gen_iota(6, rng), PI6, rng) for _ in range(4000))
        assert abs(hits / 4000 - 0.5) < 0.05

    def test_wrong_branch_probability_negligible(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            plus = gen_plus(PI6, rng)
            assert decode_distribution(plus, PI6)[1] < 1e-12
            assert decode_distribution(convert(plus), PI6)[0] < 1e-12

    def test_exhaustive_at_n2(self):
        rng = np.random.default_rng(44)
        pi = from_cycles(2, [(1, 2)])
        for sigma in (identity(2), pi):
            sample = handmade_plus(sigma, pi)
            assert distinguish(sample, pi, rng) == 1
            assert distinguish(convert(sample), pi, rng) == 0

    def test_exhaustive_keys_at_n6(self):
        rng = np.random.default_rng(45)
        for pi in cyclic_class(6, 2):
            for _ in range(20):
                sigma = Permutation(tuple(int(x) + 1 for x in rng.permutation(6)))
                sample = handmade_plus(sigma, pi)
                assert decode_distribution(sample, pi)[1] < 1e-12
                assert decode_distribution(convert(sample), pi)[0] < 1e-12


class TestBlindness:
    def test_plus_and_minus_have_identical_basis_distributions(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            plus = gen_plus(PI6, rng)
            minus = convert(plus)
            probs_plus = {k: abs(a) ** 2 for k, a in plus.amps.items()}
            probs_minus = {k: abs(a) ** 2 for k, a in minus.amps.items()}
            assert probs_plus == pytest.approx(probs_minus)


class TestSampleTuple:
    def test_fresh_copies_usually_differ(self):
        # Two draws share a support point only when their hiding
        # translations collide, which has probability 2/n! per pair.
        rng = np.random.default_rng(49)
        same = 0
        for _ in range(100):
            a = gen_plus(PI6, rng)
            b = gen_plus(PI6, rng)
            if set(a.amps) == set(b.amps):
                same += 1
        assert same <= 2
