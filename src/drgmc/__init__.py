"""Dimension-robust geometric MCMC for Bayesian inverse problems.

Whitened function-space kernels (pCN through adaptive dimension-reduced
manifold HMC) with low-rank curvature, a self-contained elliptic PDE
inverse problem, and the diagnostics to compare them.
"""

from .acceptance import (AcceptDecision, decide, dili_exact_log_ratio,
                         dr_mhmc_delta_E, dr_mmala_log_ratio,
                         inf_mala_log_ratio, log_lambda, pcn_log_ratio)
from .chain import ALGORITHMS, WhitenedModel, run_chain
from .config import RunConfig, from_dict, from_yaml, to_yaml
from .diagnostics import ChainRecord, ess, ess_per_coordinate, summary_table
from .harness import build_model, run_from_config
from .lis import LISState, adaptation_step, local_spectrum, update_lis
from .operators import (CovarianceOperator, LowRankSpectrum, apply_sqrtK_hat,
                        build_prior_covariance, forstner_distance,
                        randomized_eig)
from .proposals import (DiliOperators, ProposalOutput, StepParams, Trajectory,
                        dili_operators, dili_propose, dr_mhmc_propose,
                        dr_mmala_propose, inf_hmc_propose, inf_mala_propose,
                        pcn_propose, whitened_ngrad)

__version__ = "0.1.0"
