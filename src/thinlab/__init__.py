"""thinlab: a simulation laboratory for balanced allocation under d-thinning."""

from .core import (AllocationState, ConfigError, DecisionRecord, Pool,
                   PoolExhausted, TrialResult, make_pools, mix_seed, new_state,
                   run_greedy_d_choice, run_trial, step)
from .experiments import (AggregateResult, ExperimentConfig, balls_from_rho,
                          emit, run_experiment, sweep)
from .oracle import (ExactDistribution, OracleBudgetExceeded, compare_empirical,
                     exact_distribution, multinomial_max_load_exact)
from .strategies import (AlwaysAccept, BetaThinning, Strategy,
                         ThresholdStrategy, make_strategy)
from .theory import (BetaSequence, beta_sequence, ell, predicted_bounds,
                     predicted_max)

__version__ = "0.1.0"
