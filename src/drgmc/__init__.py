"""Dimension-robust geometric MCMC for Bayesian inverse problems.

Whitened function-space kernels (pCN through adaptive dimension-reduced
manifold HMC) with low-rank curvature, a self-contained elliptic PDE
inverse problem, and the diagnostics to compare them. The package's own
names are the three README documents; the rest live in their submodules.
"""

from .chain import run_chain
from .config import RunConfig
from .harness import build_model

__version__ = "0.1.0"
