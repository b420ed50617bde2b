"""Fidelity policy semantics: knob validation, stats accounting."""

import pytest

from repro.core.fidelity import (FIDELITY_STAT_KEYS, FidelityPolicy,
                                 escalation_rate, merge_fidelity_stats)
from repro.errors import ConfigurationError


class TestPolicyFlags:
    def test_default_policy_is_active(self):
        assert FidelityPolicy().active

    def test_force_full_deactivates(self):
        assert not FidelityPolicy(force_full=True).active

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            FidelityPolicy().pregate = False


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"pregate_margin": 0.0},
        {"pregate_margin": 1.0},
        {"pregate_margin_warm": 1.5},
        {"subsample_cap": -1},
        {"subsample_cap": 16},       # too small for 9 clusters
        {"confidence_gap": 1.0},
        {"dispersion_eps": 0.0},
        {"dispersion_fraction": 1.0},
        {"viterbi_band_margin": -1e-6},
        {"bounded_min_points": 1},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FidelityPolicy(**kwargs)

    def test_zero_subsample_cap_disables_subsampling(self):
        # 0 is the documented off-switch, not a degenerate cap.
        assert FidelityPolicy(subsample_cap=0).subsample_cap == 0


class TestStats:
    def test_new_stats_covers_every_key(self):
        stats = FidelityPolicy().new_stats()
        assert set(stats) == set(FIDELITY_STAT_KEYS)
        assert all(v == 0 for v in stats.values())

    def test_merge_accumulates_and_returns_target(self):
        into = {"pregate_fast": 2}
        out = merge_fidelity_stats(into, {"pregate_fast": 3,
                                          "viterbi_exact": 1})
        assert out is into
        assert into == {"pregate_fast": 5, "viterbi_exact": 1}

    def test_escalation_rate_mixes_all_gate_pairs(self):
        stats = {"pregate_fast": 3, "pregate_escalations": 1,
                 "viterbi_banded": 4, "viterbi_exact": 0}
        assert escalation_rate(stats) == pytest.approx(1 / 8)

    def test_escalation_rate_ignores_non_gate_counters(self):
        stats = {"pregate_fast": 1, "bounded_lloyd_runs": 100}
        assert escalation_rate(stats) == 0.0

    def test_dead_fast_paths_read_as_full_escalation(self):
        """An all-zero dict means no gate ever fired; that must look
        like a regression (rate 1.0), not like a perfect fast path."""
        assert escalation_rate({}) == 1.0
        assert escalation_rate(FidelityPolicy().new_stats()) == 1.0
