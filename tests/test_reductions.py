import math

import numpy as np
import pytest
from scipy import stats

from qscd.permgroup import from_cycles, fpf_involutions
from qscd.qscdff import SampleTuple, gen_plus
from qscd.qstate import states_equal
from qscd.reductions import (
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

from oracles import StubRng

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
        params = AttackParams.from_polynomial(n=14, p=3, k=2)
        assert params.tuples_per_side == 8 * 9 * 14
        assert params.threshold == 4 * 3 * 14
        assert PARAMS.formula_tuples(14) == 112
        assert PARAMS.formula_threshold(14) == 56

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackParams(k=0, p=1, tuples_per_side=4, threshold=2)
        with pytest.raises(ValueError):
            AttackParams(k=1, p=1, tuples_per_side=4, threshold=4)


class TestRandomizeToAverage:
    def test_identity_translation_is_a_no_op(self):
        rng = np.random.default_rng(70)
        tup = SampleTuple(tuple(gen_plus(PI6, rng) for _ in range(3)))
        moved = randomize_to_average(tup, StubRng())
        for before, after in zip(tup.samples, moved.samples):
            assert states_equal(before.state, after.state)
            assert after.provenance.pi == PI6

    def test_preserves_sample_structure(self):
        rng = np.random.default_rng(71)
        tup = SampleTuple(tuple(gen_plus(PI6, rng) for _ in range(2)))
        moved = randomize_to_average(tup, rng)
        for sample in moved.samples:
            assert len(sample.state.amps) == 2
            for amp in sample.state.amps.values():
                assert abs(amp) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_shared_tau_conjugates_every_sample_alike(self):
        rng = np.random.default_rng(72)
        tup = SampleTuple(tuple(gen_plus(PI6, rng) for _ in range(4)))
        moved = randomize_to_average(tup, rng)
        keys = {s.provenance.pi for s in moved.samples}
        assert len(keys) == 1

    def test_hidden_key_lands_uniform_on_k6(self):
        rng = np.random.default_rng(73)
        cells = {p.image: 0 for p in fpf_involutions(6)}
        for _ in range(15000):
            tup = SampleTuple((gen_plus(PI6, rng),))
            cells[randomize_to_average(tup, rng).samples[0].provenance.pi.image] += 1
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

        assert ga_attack(inst, probe, PARAMS, rng, l_key_copies=3) == 1
        assert set(seen) == {4}


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
        with pytest.raises(ValueError):
            estimate_advantage(
                coin_distinguisher(), plus_source(PI6), iota_source(6), 0, np.random.default_rng(0)
            )
