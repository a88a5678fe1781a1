"""Checks for the closed-form predictors and tail bounds.

Frozen constants were computed independently with mpmath at 40 digits and
rounded to double precision.
"""

import math

import numpy as np
import pytest

from thinlab.core import ConfigError
from thinlab.theory import (beta_sequence, ell, lower_tail_probability,
                            predicted_bounds, predicted_max, upper_tail_probability)

from paper_lemmas import (ell_relation, lemma_max_bound, lemma_nonempty_bound,
                          lower_bound_sequences, poissonization_bound_check)

# mpmath @ 40 dps
ELL_1E6_D1 = 5.261464353591486
ELL_1E6_D2 = 3.243906396180841
ELL_1E6_D3 = 2.5084722194073915
ELL_1E5_D2 = 3.069759180961169
GAMMA_ELL1_1E6_D2 = 8.218516823213738
BETA2_1E6_D2_RHO1 = 243352.91184789807
BETA2_1E5_D2_RHO1 = 30515.844861961576
ELLSQ_LOG_ELL_1E6_D2 = 12.383153959249305
MAXBOUND_1_1_1000 = 3.4120759469683586e-160
NONEMPTY_BOUND_1_2E2 = 0.7357588823428846
NONEMPTY_BOUND_HALF_1E4 = 6.7892468595475e-74


class TestEll:
    def test_reference_values(self):
        assert ell(10**6, 2) == pytest.approx(ELL_1E6_D2, rel=1e-12)
        assert ell(10**6, 1) == pytest.approx(ELL_1E6_D1, rel=1e-12)
        assert ell(10**6, 3) == pytest.approx(ELL_1E6_D3, rel=1e-12)
        # stated approximations
        assert abs(ell(10**6, 2) - 3.2439) < 1e-3
        assert abs(ell(10**6, 1) - 5.2615) < 1e-3

    def test_domain_boundary_e_to_the_e(self):
        # ln ln n = 1 exactly, so the d=1 value collapses to ln n = e
        n = math.e ** math.e
        assert ell(n, 1) == pytest.approx(math.e, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            ell(2, 2)
        with pytest.raises(ConfigError):
            ell(1, 1)
        with pytest.raises(ConfigError):
            ell(10**6, 0)

    def test_monotone_in_n(self):
        for d in (1, 2, 3):
            grid = [16, 10**2, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9]
            values = [ell(n, d) for n in grid]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_predicted_max(self):
        assert predicted_max(10**6, 2) == pytest.approx(2 * ELL_1E6_D2, rel=1e-12)


class TestPredictedBounds:
    def test_values_1e6_d2(self):
        upper, lower = predicted_bounds(10**6, 2, 0.5)
        assert upper == pytest.approx(8.109765990452103, rel=1e-12)
        assert lower == pytest.approx(4.865859594271262, rel=1e-12)
        assert abs(upper - 8.110) < 1e-2 and abs(lower - 4.866) < 1e-2

    def test_values_1e6_d3(self):
        upper, lower = predicted_bounds(10**6, 3, 0.5)
        assert upper == pytest.approx(8.77965276792587, rel=1e-12)
        assert lower == pytest.approx(6.271180548518479, rel=1e-12)

    def test_eps_zero_collapses(self):
        upper, lower = predicted_bounds(10**6, 2, 0.0)
        assert upper == lower == pytest.approx(2 * ELL_1E6_D2, rel=1e-12)

    def test_negative_eps_rejected(self):
        with pytest.raises(ConfigError):
            predicted_bounds(10**6, 2, -0.1)


class TestBetaSequence:
    def test_d1_is_just_rho_n(self):
        seq = beta_sequence(10**6, 1, 0.5)
        assert seq.values == (0.5 * 10**6,)
        assert seq.closed_form_last == 0.5 * 10**6

    def test_beta2_reference(self):
        seq = beta_sequence(10**6, 2, 1.0)
        assert seq.values[0] == 10**6
        assert seq.values[1] == pytest.approx(BETA2_1E6_D2_RHO1, rel=1e-12)
        assert seq.values[1] == pytest.approx(2 * 10**6 / GAMMA_ELL1_1E6_D2, rel=1e-12)

    def test_beta2_1e5(self):
        seq = beta_sequence(10**5, 2, 1.0)
        assert seq.values[1] == pytest.approx(BETA2_1E5_D2_RHO1, rel=1e-12)

    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_recursion_matches_closed_form(self, n, d, rho):
        seq = beta_sequence(n, d, rho)
        assert seq.values[-1] == pytest.approx(seq.closed_form_last, rel=1e-10)

    def test_decreasing_when_beta2_below_beta1(self):
        seq = beta_sequence(10**6, 4, 1.0).values
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_rejects_bad_rho(self):
        with pytest.raises(ConfigError):
            beta_sequence(10**6, 2, 0.0)


class TestEllRelation:
    def test_reference_value(self):
        lhs, rhs = ell_relation(10**6, 2)
        assert lhs == pytest.approx(ELLSQ_LOG_ELL_1E6_D2, rel=1e-12)
        assert abs(lhs - 12.384) < 0.01

    @pytest.mark.parametrize("n,d", [(16, 1), (10**4, 2), (10**6, 2), (10**6, 3),
                                     (10**9, 3), (10**12, 4)])
    def test_identity_holds(self, n, d):
        lhs, rhs = ell_relation(n, d)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain_error_below_16(self):
        with pytest.raises(ConfigError):
            ell_relation(15, 2)


class TestLemmaMaxBound:
    def test_deep_tail_value(self):
        assert lemma_max_bound(1.0, 1, 1000) == pytest.approx(MAXBOUND_1_1_1000, rel=1e-9)
        # an exponent past 700 (ln 1e305 - 1 ~ 701) takes the early return of 0
        assert lemma_max_bound(1.0, 1, 1e305) == 0.0

    def test_clamps_to_one(self):
        # raw value 2*exp(-1/(2e)) ~ 1.664
        assert lemma_max_bound(0.1, 2, 100) == 1.0

    def test_huge_k_is_vacuous(self):
        assert lemma_max_bound(1.0, 10**6, 10**3) == 1.0

    def test_monotone_decreasing_in_subset_size(self):
        sizes = [1, 10, 100, 1000, 10**6]
        for theta in (0.2, 1.0, 3.0):
            vals = [lemma_max_bound(theta, 2, s) for s in sizes]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_increasing_in_k(self):
        # for theta <= 1 the exponent theta**k/k! shrinks with k
        for theta in (0.1, 0.5, 1.0):
            vals = [lemma_max_bound(theta, k, 10**4) for k in range(1, 12)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            lemma_max_bound(0.0, 1, 10)
        with pytest.raises(ConfigError):
            lemma_max_bound(1.0, 0, 10)
        with pytest.raises(ConfigError):
            lemma_max_bound(1.0, 1, 0)


class TestLemmaNonemptyBound:
    def test_reference_pair(self):
        threshold, bound = lemma_nonempty_bound(1.0, 2 * math.e**2)
        assert threshold == pytest.approx(math.e, rel=1e-12)
        assert bound == pytest.approx(NONEMPTY_BOUND_1_2E2, rel=1e-12)
        assert abs(bound - 0.7358) < 1e-4

    def test_small_theta_clamps(self):
        _, bound = lemma_nonempty_bound(1e-9, 100)
        assert bound == 1.0

    def test_large_subset_value(self):
        _, bound = lemma_nonempty_bound(0.5, 10**4)
        assert bound == pytest.approx(NONEMPTY_BOUND_HALF_1E4, rel=1e-9)

    def test_bounds_stay_in_unit_interval(self):
        for theta in (1e-6, 0.1, 1.0, 10.0):
            for s in (1, 10, 10**4):
                _, bound = lemma_nonempty_bound(theta, s)
                assert 0.0 <= bound <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ConfigError, match="theta must be positive"):
            lemma_nonempty_bound(0.0, 10)
        with pytest.raises(ConfigError, match="subset size"):
            lemma_nonempty_bound(1.0, 0.5)


class TestTailProbabilities:
    def test_upper(self):
        assert upper_tail_probability(10**6, 0.5) == pytest.approx(10 ** (-1.0), rel=1e-12)
        assert upper_tail_probability(10, 0.0) == 1.0

    def test_lower(self):
        val = lower_tail_probability(10**6, 2, 0.6)
        assert val == pytest.approx(math.exp(-(10**6) ** 0.1), rel=1e-12)
        assert 0.0 <= val <= 1.0


class TestPoissonization:
    def test_always_false_event(self):
        report = poissonization_bound_check(5, 1.0, lambda row: False, trials=200, seed=1)
        assert report.p_multinomial == 0.0
        assert report.p_poisson == 0.0
        assert report.passed

    def test_always_true_event(self):
        report = poissonization_bound_check(5, 1.0, lambda row: True, trials=200, seed=1)
        assert report.p_multinomial == 1.0
        assert report.p_poisson == 1.0
        assert report.passed

    def test_max_load_two_event(self):
        # exact multinomial side: 1 - 10!/10^10; exact Poisson side: 1-(2/e)^10
        exact_multi = 1.0 - math.factorial(10) / 10**10
        exact_poisson = 1.0 - (2.0 / math.e) ** 10
        report = poissonization_bound_check(
            10, 1.0, lambda row: int(row.max()) >= 2, trials=30_000, seed=7)
        se = math.sqrt(exact_multi * (1 - exact_multi) / 30_000)
        assert abs(report.p_multinomial - exact_multi) <= 4 * se + 1e-12
        se_p = math.sqrt(exact_poisson * (1 - exact_poisson) / 30_000)
        assert abs(report.p_poisson - exact_poisson) <= 4 * se_p
        assert report.passed

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            poissonization_bound_check(5, 1.0, lambda row: True, trials=0)
        with pytest.raises(ConfigError, match="n must be >= 1"):
            poissonization_bound_check(0, 1.0, lambda row: True, trials=10)


class TestLowerBoundSequences:
    def test_single_step_unrolled(self):
        n, rho, eps = 10**6, 1.0, 0.5
        casc = lower_bound_sequences(n, 2, rho, eps, (1,))
        l = ell(n, 2)
        s1 = (2 - eps) * l
        assert casc.s[0] == pytest.approx(s1, rel=1e-12)
        assert casc.theta[0] == pytest.approx(rho / s1, rel=1e-12)
        assert casc.gamma[0] == pytest.approx(n * (rho / s1) / (4 * math.e), rel=1e-12)
        assert casc.s[1] == pytest.approx(s1, rel=1e-12)  # k_1 = 1 keeps s flat

    @pytest.mark.parametrize("k", [(1, 1), (2, 1), (1, 3), (3, 2), (2, 2)])
    def test_recursion_matches_products(self, k):
        casc = lower_bound_sequences(10**6, 3, 1.0, 0.5, k)
        for got, want in zip(casc.gamma, casc.gamma_closed):
            assert got == pytest.approx(want, rel=1e-10)
        for got, want in zip(casc.theta, casc.theta_closed):
            assert got == pytest.approx(want, rel=1e-10)

    def test_overdrawn_k_vector_rejected(self):
        # sum(k_j - 1) >= (d-eps)*ell forces a non-positive stage target
        n, d, eps = 10**6, 3, 0.5
        total = (d - eps) * ell(n, d)
        k1 = math.ceil(total) + 1
        with pytest.raises(ConfigError):
            lower_bound_sequences(n, d, 1.0, eps, (k1, 1))

    def test_k_range_enforced(self):
        with pytest.raises(ConfigError):
            lower_bound_sequences(10**6, 3, 1.0, 0.5, (0, 1))
        with pytest.raises(ConfigError):
            lower_bound_sequences(10**6, 2, 1.0, 0.5, (1, 1))  # wrong length

    def test_domain_errors(self):
        with pytest.raises(ConfigError, match="rho must be positive"):
            lower_bound_sequences(10**6, 2, 0.0, 0.5, (1,))
        with pytest.raises(ConfigError, match=r"\(d-eps\)\*ell must be positive"):
            lower_bound_sequences(10**6, 2, 1.0, 2.0, (1,))  # eps = d

    def test_d1_trivial_cascade(self):
        casc = lower_bound_sequences(10**6, 1, 2.0, 0.25, ())
        assert len(casc.s) == 1 and casc.gamma == ()
        assert casc.theta[0] == pytest.approx(2.0 / casc.s[0], rel=1e-12)

