"""Config-driven experiment assembly: build a model, run a chain.

This is the one place that knows how to turn a RunConfig into a concrete
inverse problem (elliptic or linear-Gaussian) wrapped for the whitened
kernels, so the CLI, the scripts, and the test suite all share it.
"""

from __future__ import annotations

from . import elliptic, linear_model
from .chain import WhitenedModel, run_chain
from .operators import build_prior_covariance


def build_elliptic(config, data=None):
    """Elliptic problem with synthetic data; data=(y, sigma_eta) overrides
    generation so several meshes can share one observation vector."""
    mesh = elliptic.Mesh2D(config.nx, config.ny)
    problem = elliptic.make_problem(mesh)
    u_true = elliptic.true_field(mesh)
    if data is not None:
        elliptic.attach_data(problem, *data)
    else:
        snr = float("inf") if config.noiseless else config.snr
        elliptic.generate_data(u_true, problem, snr, config.data_seed)
    cov = build_prior_covariance(mesh.nodes, config.sigma_u, config.s_0)
    # looked up at call time, so a wrapper on elliptic.assemble_and_solve sees each call
    model = WhitenedModel(cov, lambda u: elliptic.assemble_and_solve(u, problem),
                          counter=problem.solves)
    return model, {"problem": problem, "mesh": mesh, "u_true": u_true, "cov": cov}


def build_linear(config):
    lm = linear_model.random_model(n=config.lin_n, m=config.lin_m,
                                   seed=config.data_seed,
                                   noise_scale=config.lin_noise)
    model = WhitenedModel(lm.prior, lambda u: linear_model.make_state(lm, u))
    return model, {"linear_model": lm, "cov": lm.prior}


def build_model(config):
    return build_elliptic(config) if config.model == "elliptic" else build_linear(config)


def run_from_config(config, model=None):
    """Execute the configured chain; returns its ChainRecord."""
    if model is None:
        model, _ = build_model(config)
    return run_chain(model, config)
