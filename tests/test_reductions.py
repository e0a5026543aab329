import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qscd.qscdcyc import gen_cyc
from qscd.qscdff import distinguish, gen_plus
from qscd.qstate import states_equal
from qscd.reductions import (
    SPAWN_CHUNK,
    AttackParams,
    DistinguisherReport,
    basis_measure_distinguisher,
    coin_distinguisher,
    cyc_source,
    estimate_advantage,
    ga_attack,
    hybrid_to_iota,
    iota_source,
    minus_source,
    omniscient_distinguisher,
    plus_source,
    randomize_to_average,
)
from qscd.selftest import planted_no_instance, planted_yes_instance

from oracles import StubRng, brute_fpf_involutions, from_cycles, two_point_key
from test_qstate import DENSE6, KEYS6

PI6 = from_cycles(6, [(1, 2), (3, 4), (5, 6)])
PARAMS = AttackParams(k=1, p=1, tuples_per_side=32, threshold=16)


class TestDistinguisherReport:
    def test_advantage_and_interval(self):
        report = DistinguisherReport(4000, 4000, 2000, 1000, confidence=0.01)
        assert report.advantage == pytest.approx(0.25)
        assert report.ci_halfwidth == pytest.approx(
            math.sqrt(math.log(2 / 0.01) / (2 * 4000))
        )

    def test_interval_uses_smaller_side(self):
        report = DistinguisherReport(100, 400, 50, 200)
        assert report.ci_halfwidth == pytest.approx(math.sqrt(math.log(200.0) / 200.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            DistinguisherReport(0, 10, 0, 0)
        with pytest.raises(ValueError):
            DistinguisherReport(10, 10, 11, 0)

    def test_report_lines_shape(self):
        lines = DistinguisherReport(10, 10, 10, 0).report_lines(seed=7, params="dist=x")
        assert lines[0] == "trials0=10"
        assert "seed=7" in lines
        assert lines[-1].startswith("summary ")


class TestAttackParams:
    def test_analysis_formulas(self):
        params = AttackParams(k=2, p=3, tuples_per_side=4, threshold=2)
        assert params.formula_tuples(14) == 8 * 9 * 14
        assert params.formula_threshold(14) == 4 * 3 * 14
        assert PARAMS.formula_tuples(14) == 112
        assert PARAMS.formula_threshold(14) == 56

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackParams(k=0, p=1, tuples_per_side=4, threshold=2)
        with pytest.raises(ValueError):
            AttackParams(k=1, p=1, tuples_per_side=4, threshold=4)


class TestRandomizeToAverage:
    # The hidden key of a two-point draw is read from its support alone.

    def test_identity_translation_is_a_no_op(self):
        rng = np.random.default_rng(70)
        states = tuple(gen_plus(PI6, rng) for _ in range(3))
        moved = randomize_to_average(states, StubRng())
        for before, after in zip(states, moved):
            assert states_equal(before, after)
            assert two_point_key(after) == PI6.image

    def test_preserves_sample_structure(self):
        rng = np.random.default_rng(71)
        states = tuple(gen_plus(PI6, rng) for _ in range(2))
        moved = randomize_to_average(states, rng)
        for state in moved:
            assert len(state.amps) == 2
            for amp in state.amps.values():
                assert abs(amp) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_shared_tau_conjugates_every_sample_alike(self):
        rng = np.random.default_rng(72)
        states = tuple(gen_plus(PI6, rng) for _ in range(4))
        moved = randomize_to_average(states, rng)
        keys = {two_point_key(state) for state in moved}
        assert len(keys) == 1
        assert keys <= brute_fpf_involutions(6)

    def test_coset_draws_become_draws_of_the_conjugate_key(self):
        # A draw of pi hidden by sigma, right-multiplied by tau, is the draw
        # of tau^-1 pi tau hidden by sigma tau. Twin generators replay sigma
        # and tau; the dense engine composes and builds the expected rows.
        for m, pi in KEYS6.items():
            key = np.array(pi.image) - 1
            for s in range(m):
                rng, twin = np.random.default_rng([75, m, s]), np.random.default_rng([75, m, s])
                draws = tuple(gen_cyc(pi, s, m, rng) for _ in range(2))
                moved = randomize_to_average(draws, rng)
                sigmas = [twin.permutation(6) for _ in draws]
                tau = twin.permutation(6)
                conjugated = np.argsort(tau)[key[tau]]
                for sigma, state in zip(sigmas, moved):
                    want = DENSE6.coset_draw(sigma[tau], conjugated, s, m)
                    assert np.abs(DENSE6.vector(state.amps, 1) - want).max() <= 1e-12, (m, s)

    def test_hidden_key_lands_uniform_on_k6(self):
        rng = np.random.default_rng(73)
        cells = dict.fromkeys(sorted(brute_fpf_involutions(6)), 0)
        for _ in range(15000):
            (moved,) = randomize_to_average((gen_plus(PI6, rng),), rng)
            cells[two_point_key(moved)] += 1
        assert stats.chisquare(list(cells.values())).pvalue > 0.001


class TestGaAttack:
    def test_omniscient_accepts_planted_yes(self):
        rng = np.random.default_rng(74)
        inst = planted_yes_instance()
        dist = omniscient_distinguisher(inst.hidden_key())
        assert ga_attack(inst, dist, PARAMS, rng) == 1

    def test_omniscient_rejects_planted_no(self):
        rng = np.random.default_rng(75)
        inst = planted_no_instance()
        dist = omniscient_distinguisher(planted_yes_instance().hidden_key())
        assert ga_attack(inst, dist, PARAMS, rng) == 0

    def test_coin_distinguisher_rejects_yes(self):
        rng = np.random.default_rng(76)
        assert ga_attack(planted_yes_instance(), coin_distinguisher(), PARAMS, rng) == 0

    def test_intercepted_message_shape(self):
        rng = np.random.default_rng(77)
        inst = planted_yes_instance()
        seen = []

        def probe(states, gen):
            seen.append(len(states))
            return omniscient_distinguisher(inst.hidden_key())(states, gen)

        assert ga_attack(inst, probe, dataclasses.replace(PARAMS, l=3), rng) == 1
        assert set(seen) == {4}

    def test_tuple_shape_per_side(self):
        # plus tuples come first, then minus tuples; a tuple is k challenges
        # then l key copies, and only the challenges of a minus tuple are
        # converted, the key copies stay plus draws
        inst = planted_yes_instance()
        pi = inst.hidden_key()
        base = AttackParams(k=3, p=1, tuples_per_side=5, threshold=1)
        for params in (dataclasses.replace(base, l=2), base, dataclasses.replace(base, l=0)):
            seen = []

            def record(states, gen):
                seen.append([distinguish(state, pi, gen) for state in states])
                return 0

            ga_attack(inst, record, params, np.random.default_rng(80))
            copies = [1] * params.l
            assert seen == [[1] * 3 + copies] * 5 + [[0] * 3 + copies] * 5


class TestHybridToIota:
    def test_omniscient_keeps_half_the_advantage(self):
        rng = np.random.default_rng(78)
        hybrid = hybrid_to_iota(omniscient_distinguisher(PI6))
        report = estimate_advantage(hybrid, plus_source(PI6), iota_source(6), 1500, rng)
        assert report.advantage >= 0.25 - 2 * report.ci_halfwidth

    def test_constant_distinguisher_gains_nothing(self):
        rng = np.random.default_rng(79)
        hybrid = hybrid_to_iota(lambda states, gen: 0)
        report = estimate_advantage(hybrid, plus_source(PI6), iota_source(6), 1000, rng)
        assert report.advantage <= report.ci_halfwidth

    def test_balanced_on_iota_inputs(self):
        # conversion fixes iota, so both branches see the same distribution
        rng = np.random.default_rng(80)
        hybrid = hybrid_to_iota(omniscient_distinguisher(PI6))
        report = estimate_advantage(hybrid, iota_source(6), iota_source(6), 1000, rng)
        assert report.advantage <= report.ci_halfwidth
        assert abs(report.acc0 / report.trials0 - 0.5) < 0.06


class TestEstimateAdvantage:
    def test_omniscient_has_unit_advantage(self):
        rng = np.random.default_rng(81)
        report = estimate_advantage(
            omniscient_distinguisher(PI6), plus_source(PI6), minus_source(PI6), 500, rng
        )
        assert report.advantage == 1.0

    def test_coin_has_no_advantage(self):
        rng = np.random.default_rng(82)
        report = estimate_advantage(
            coin_distinguisher(), plus_source(PI6), minus_source(PI6), 2000, rng
        )
        assert report.advantage <= report.ci_halfwidth

    def test_basis_measurement_has_no_advantage(self):
        rng = np.random.default_rng(83)
        report = estimate_advantage(
            basis_measure_distinguisher(), plus_source(PI6), minus_source(PI6), 2000, rng
        )
        assert report.advantage <= report.ci_halfwidth

    def test_cyclic_sources_feed_the_same_harness(self):
        rng = np.random.default_rng(84)
        pi = from_cycles(6, [(1, 2, 3), (4, 5, 6)])
        report = estimate_advantage(
            basis_measure_distinguisher(), cyc_source(pi, 0, 3), cyc_source(pi, 1, 3), 1000, rng
        )
        assert report.advantage <= report.ci_halfwidth

    def test_requires_at_least_one_trial(self):
        def never(states, rng):
            raise AssertionError("a trial ran")

        for trials in (0, -3):
            rng, ref_rng = np.random.default_rng(88), np.random.default_rng(88)
            with pytest.raises(ValueError, match="^need at least one trial per side$"):
                estimate_advantage(never, plus_source(PI6), iota_source(6), trials, rng)
            # no generator was spawned
            assert rng.spawn(1)[0].random() == ref_rng.spawn(1)[0].random()

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, float("nan")])
    def test_refuses_confidence_before_any_trial(self, confidence):
        def never(states, rng):
            raise AssertionError("a trial ran")

        rng, ref_rng = np.random.default_rng(87), np.random.default_rng(87)
        with pytest.raises(ValueError, match=r"^confidence must be in \(0, 1\)$"):
            estimate_advantage(
                never, plus_source(PI6), iota_source(6), 20000, rng, confidence=confidence
            )
        # no generator was spawned
        assert rng.spawn(1)[0].random() == ref_rng.spawn(1)[0].random()

    def test_chunked_spawn_matches_one_spawn(self):
        # the loop as it was with every trial generator spawned at once
        def one_spawn(dist, source_a, source_b, trials, rng):
            children = rng.spawn(2 * trials)
            acc0 = acc1 = 0
            for gen_a, gen_b in zip(children[0::2], children[1::2]):
                acc0 += dist(source_a(gen_a), gen_a)
                acc1 += dist(source_b(gen_b), gen_b)
            return DistinguisherReport(trials, trials, acc0, acc1)

        trials = 2 * SPAWN_CHUNK + 37
        for dist in (coin_distinguisher(), basis_measure_distinguisher()):
            rng, ref_rng = np.random.default_rng(85), np.random.default_rng(85)
            got = estimate_advantage(dist, plus_source(PI6), iota_source(6), trials, rng)
            want = one_spawn(dist, plus_source(PI6), iota_source(6), trials, ref_rng)
            assert got == want
            assert rng.random() == ref_rng.random()
            assert rng.spawn(1)[0].random() == ref_rng.spawn(1)[0].random()

    def test_memory_is_flat_in_the_trial_count(self):
        tup = plus_source(PI6)(np.random.default_rng(0))
        peaks = []
        for trials in (1000, 4000):
            tracemalloc.start()
            try:
                estimate_advantage(
                    coin_distinguisher(), lambda rng: tup, lambda rng: tup, trials,
                    np.random.default_rng(86),
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one spawn of every generator peaks about 4x higher at 4000 trials
        assert peaks[1] < 1.5 * peaks[0]
