import cmath
import math

import numpy as np
import pytest

from qscd.permgroup import (
    Permutation,
    SecurityParam,
    compose,
    from_cycles,
    identity,
    perm_pow,
    sample_cyclic,
    sample_fpf_involution,
)
from qscd.qscdcyc import decode_cyc, decode_distribution, gen_cyc
from qscd.qscdff import convert, distinguish, gen_plus
from qscd.qstate import SparseState, _born_draw, inner_product, states_equal

from oracles import StubRng

PI33 = from_cycles(3, [(1, 2, 3)])
PI63 = from_cycles(6, [(1, 2, 3), (4, 5, 6)])
PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])


class TestGenCyc:
    def test_symbol_zero_is_flat(self):
        rng = np.random.default_rng(50)
        sample = gen_cyc(PI63, 0, 3, rng)
        assert len(sample.amps) == 3
        for amp in sample.amps.values():
            assert amp == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_small_case_amplitude_row(self):
        # n=3, m=3, forced sigma=id, s=1: amplitudes (1, w, w^2)/sqrt(3)
        # on id, (1 2 3), (1 3 2), straight from the defining formula.
        w = cmath.exp(2j * math.pi / 3)
        sample = gen_cyc(PI33, 1, 3, StubRng())
        expected = {
            (0, identity(3)): 1 / math.sqrt(3),
            (0, PI33): w / math.sqrt(3),
            (0, from_cycles(3, [(1, 3, 2)])): w * w / math.sqrt(3),
        }
        assert set(sample.amps) == set(expected)
        for key, amp in expected.items():
            assert sample.amps[key] == pytest.approx(amp, abs=1e-9)

    def test_support_is_the_cyclic_coset(self):
        rng = np.random.default_rng(51)
        sample = gen_cyc(PI63, 2, 3, rng)
        perms = {perm for _, perm in sample.amps}
        # the support is closed under right-multiplication by the key
        assert {compose(p, PI63) for p in perms} == perms

    def test_rejects_wrong_key_class(self):
        with pytest.raises(ValueError):
            gen_cyc(from_cycles(6, [(1, 2)]), 0, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            gen_cyc(PI63, 0, 2, np.random.default_rng(0))

    def test_rejects_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            gen_cyc(PI63, 3, 3, np.random.default_rng(0))


class TestM2Coincidence:
    # Forced sigma = id: the plus state (|id> + |pi>) / sqrt(2), written out.
    PLUS6 = SparseState(6, 1, {(0, identity(6)): 1 / math.sqrt(2), (0, PI6): 1 / math.sqrt(2)})

    def test_symbol_zero_matches_plus_generation(self):
        cyc = gen_cyc(PI6, 0, 2, StubRng())
        assert states_equal(cyc, self.PLUS6)
        assert states_equal(gen_plus(PI6, StubRng()), self.PLUS6)

    def test_symbol_one_matches_converted_plus(self):
        cyc = gen_cyc(PI6, 1, 2, StubRng())
        minus = convert(self.PLUS6)
        assert states_equal(cyc, minus, up_to_global_phase=True)

    def test_decoder_agrees_with_trapdoor_test(self):
        rng = np.random.default_rng(52)
        params = SecurityParam.ff(6)
        for _ in range(1000):
            pi = sample_fpf_involution(params, rng)
            s = int(rng.integers(2))
            sample = gen_cyc(pi, s, 2, rng)
            decoded = decode_cyc(sample, pi, rng)
            via_ff = 0 if distinguish(sample, pi, rng) == 1 else 1
            assert decoded == via_ff == s


class TestDecode:
    def test_roundtrip_all_symbols(self):
        rng = np.random.default_rng(53)
        for s in range(3):
            for _ in range(200):
                sample = gen_cyc(PI63, s, 3, rng)
                assert decode_cyc(sample, PI63, rng) == s

    def test_wrong_outcome_probability_negligible(self):
        rng = np.random.default_rng(54)
        for s in range(3):
            sample = gen_cyc(PI63, s, 3, rng)
            probs = decode_distribution(sample, PI63)
            assert 1.0 - probs[s] < 1e-12

    def test_sampled_keys_roundtrip(self):
        rng = np.random.default_rng(55)
        for n, m in [(6, 3), (8, 4), (12, 6)]:
            params = SecurityParam.cyc(n, m)
            for _ in range(20):
                pi = sample_cyclic(params, rng)
                assert perm_pow(pi, m) == identity(n)
                s = int(rng.integers(m))
                assert decode_cyc(gen_cyc(pi, s, m, rng), pi, rng) == s

    def test_outcome_is_a_draw_from_the_distribution(self):
        # Unequal weights on two points of a coset spread the outcome over
        # Z_m; two equal generators must give the same symbol and end equal,
        # one rng.random() per decode.
        keys = {2: PI6, 3: PI63, 6: from_cycles(6, [(1, 3, 5, 2, 4, 6)])}
        for m, pi in keys.items():
            for seed in range(40):
                sigma = Permutation(tuple(int(x) + 1 for x in np.random.default_rng(seed).permutation(6)))
                state = SparseState(6, 1, {(0, sigma): 0.6, (0, compose(sigma, pi)): 0.8j})
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                want = _born_draw(decode_distribution(state, pi), rng_b)
                assert decode_cyc(state, pi, rng_a) == want, (m, seed)
                assert rng_a.random() == rng_b.random()

    def test_degree_mismatch(self):
        rng = np.random.default_rng(56)
        sample = gen_cyc(PI33, 0, 3, rng)
        with pytest.raises(ValueError):
            decode_cyc(sample, PI63, rng)


class TestStructure:
    def test_orthogonality_between_symbols(self):
        for s in range(3):
            for t in range(s + 1, 3):
                a = gen_cyc(PI63, s, 3, StubRng())
                b = gen_cyc(PI63, t, 3, StubRng())
                assert abs(inner_product(a, b)) < 1e-9

    def test_basis_distribution_independent_of_symbol(self):
        states = [gen_cyc(PI63, s, 3, StubRng()) for s in range(3)]
        supports = [set(state.amps) for state in states]
        assert supports[0] == supports[1] == supports[2]
        for state in states:
            for amp in state.amps.values():
                assert abs(amp) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_draw_is_a_phased_left_coset(self):
        # From any support point a, the draw holds a pi^t with amplitude
        # w^(st) times that of a: the support is a left coset sigma <pi>.
        rng = np.random.default_rng(57)
        w = cmath.exp(2j * math.pi / 3)
        for s in range(3):
            for _ in range(20):
                state = gen_cyc(PI63, s, 3, rng)
                a = next(iter(state.amps))[1]
                expected = {
                    (0, compose(a, perm_pow(PI63, t))): state.amps[(0, a)] * w ** (s * t)
                    for t in range(3)
                }
                assert set(state.amps) == set(expected)
                for key, amp in expected.items():
                    assert state.amps[key] == pytest.approx(amp, abs=1e-9)
