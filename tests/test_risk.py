import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratpo.risk import VarConfig, var_index
from reference import beta_var, sample_pnl


class TestSamplePnl:
    def test_simple_mean(self):
        assert sample_pnl(np.array([1.0, 2.0, 3.0, 4.0])) == 2.5

    def test_constant_vector(self):
        assert sample_pnl(np.full(17, 3.25)) == 3.25

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=50), rng.normal(size=50)
        assert sample_pnl(x + y) == pytest.approx(sample_pnl(x) + sample_pnl(y), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sample_pnl(np.array([]))


class TestVarIndex:
    def test_standard_configuration(self):
        cfg = VarConfig(beta=0.01, decay=0.99, count=250)
        alpha = 1 - 0.01 * (1 - 0.99 ** 250)
        assert alpha == pytest.approx(0.990811, abs=1e-6)
        assert var_index(cfg) == 1

    def test_slow_decay(self):
        assert var_index(VarConfig(beta=0.01, decay=0.999, count=250)) == 3

    def test_exact_integer_ratio(self):
        assert var_index(VarConfig(beta=1.0, decay=0.9, count=1)) == 1

    def test_clamped_to_scenario_count(self):
        # Extreme decay pushes the raw rank above s; it must clamp.
        cfg = VarConfig(beta=0.99, decay=0.05, count=3)
        assert 1 <= var_index(cfg) <= 3

    def test_monotone_in_decay(self):
        ranks = [var_index(VarConfig(0.01, lam, 250)) for lam in (0.90, 0.95, 0.99, 0.999)]
        assert ranks == sorted(ranks)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VarConfig(beta=0.0, decay=0.99, count=250)
        with pytest.raises(ValueError):
            VarConfig(beta=0.01, decay=1.0, count=250)
        with pytest.raises(ValueError):
            VarConfig(beta=0.01, decay=0.99, count=0)


class TestBetaVar:
    def test_worst_loss_at_rank_one(self):
        cfg = VarConfig(beta=0.01, decay=0.99, count=4)
        assert var_index(cfg) == 1
        assert beta_var(np.array([-5.0, 3.0, -1.0, 2.0]), cfg) == -5.0

    def test_third_ascending_entry(self):
        cfg = VarConfig(beta=0.9, decay=0.47, count=4)
        assert var_index(cfg) == 3
        assert beta_var(np.array([-5.0, 3.0, -1.0, 2.0]), cfg) == 2.0

    def test_no_sign_flip_positive_var_passes_through(self):
        cfg = VarConfig(beta=0.01, decay=0.99, count=3)
        assert beta_var(np.array([4.0, 9.0, 5.0]), cfg) == 4.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            beta_var(np.zeros(5), VarConfig(0.01, 0.99, 4))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40), st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, values, seed):
        pnl = np.array(values)
        cfg = VarConfig(0.05, 0.95, len(values))
        shuffled = pnl[np.random.default_rng(seed).permutation(len(values))]
        assert beta_var(shuffled, cfg) == beta_var(pnl, cfg)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.floats(-1e5, 1e5))
    def test_translation_exact(self, values, shift):
        pnl = np.array(values)
        cfg = VarConfig(0.05, 0.95, len(values))
        assert beta_var(pnl + shift, cfg) == beta_var(pnl, cfg) + shift

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
           st.floats(1e-3, 1e3))
    def test_positive_homogeneity_exact(self, values, scale):
        pnl = np.array(values)
        cfg = VarConfig(0.05, 0.95, len(values))
        assert beta_var(scale * pnl, cfg) == scale * beta_var(pnl, cfg)
