"""thinlab: a simulation laboratory for balanced allocation under d-thinning."""

from .core import (AllocationState, ConfigError, DecisionRecord, Pool,
                   PoolExhausted, TrialResult, induced_view, make_pools,
                   max_load, mix_seed, new_state, phi, psi, run_trial, step,
                   write_trace)
from .experiments import (AggregateResult, ExperimentConfig, balls_from_rho,
                          emit, run_experiment, run_greedy_d_choice, sweep)
from .oracle import (ExactDistribution, OracleBudgetExceeded, compare_empirical,
                     exact_distribution, multinomial_max_load_exact)
from .strategies import (AlwaysAccept, BetaThinning, Strategy,
                         ThresholdStrategy, beta_thinning, make_strategy,
                         scaled_threshold, threshold_for)
from .theory import (BetaSequence, LowerBoundCascade, PoissonizationReport,
                     beta_sequence, ell, ell_relation, lemma_max_bound,
                     lemma_nonempty_bound, lower_bound_sequences,
                     poissonization_bound_check, predicted_bounds,
                     predicted_max)

__version__ = "0.1.0"
