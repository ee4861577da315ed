"""Run configuration: a flat, validated record of every knob a chain needs.

Defaults reproduce the desk-scale elliptic study: unit square, 20 x 20
cells, exponential prior kernel (sigma_u = 1.25, s_0 = 0.0625), 25 interior
sensors, SNR 10, 2500 iterations with 500 burn-in, and the adaptation
schedule n_lag = 200, m_max = 100, Delta_LIS = 1e-5.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

import yaml

from .chain import ALGORITHMS

MODELS = ("elliptic", "linear-gaussian")
# libyaml's emitter when PyYAML is built with it: the same bytes, faster
YAML_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper

# Step sizes frozen by scripts/tune_steps.py on the default elliptic
# problem (20 x 20, SNR 10, seed 0): every kernel bisected into the same
# 60-70% acceptance band, leapfrog ceiling I = 4 for Hamiltonian kernels.
DEFAULT_STEPS = {
    "pcn": {"h": 0.0222},
    "inf-mala": {"h": 0.1356},
    "inf-hmc": {"h": 0.1356, "n_leapfrog": 4},
    "dr-inf-mmala": {"h": 0.0624},
    "dr-inf-mhmc": {"h": 0.0222, "n_leapfrog": 4},
    "dili": {"h_r": 0.2943, "h_perp": 0.0294},
    "adr-inf-mmala": {"h": 0.8274},
    "adr-inf-mhmc": {"h": 0.2943, "n_leapfrog": 4},
}


@dataclass
class RunConfig:
    model: str = "elliptic"
    algorithm: str = "pcn"
    nx: int = 20
    ny: int = 20
    sigma_u: float = 1.25
    s_0: float = 0.0625
    snr: float = 10.0
    noiseless: bool = False
    h: float | None = None
    h_r: float | None = None
    h_perp: float | None = None
    n_leapfrog: int | None = None
    eps: float | None = None
    gamma_r: int = 1
    gamma_perp: int = 0
    rank: int = 5
    threshold: float = 0.01
    max_rank: int = 30
    iterations: int = 2500
    burn_in: int = 500
    n_lag: int = 200
    m_max: int = 100
    delta_lis: float = 1e-5
    seed: int = 0
    data_seed: int = 20260815
    # linear-gaussian model shape (ignored by the elliptic model)
    lin_n: int = 8
    lin_m: int = 4
    lin_noise: float = 0.5
    out_dir: str | None = None

    def __post_init__(self):
        def bad(key, msg):
            raise ValueError(f"config key '{key}': {msg}")

        if self.model not in MODELS:
            bad("model", f"must be one of {MODELS}")
        if self.algorithm not in ALGORITHMS:
            bad("algorithm", f"must be one of {ALGORITHMS}")
        if self.iterations <= self.burn_in or self.burn_in < 0:
            bad("iterations", "must exceed burn_in, and burn_in must be >= 0")
        for key in ("nx", "ny"):
            if getattr(self, key) < 2:
                bad(key, "mesh needs at least 2 cells per direction")
        for key in ("sigma_u", "s_0"):
            if getattr(self, key) <= 0:
                bad(key, "prior scales must be positive")
        if self.snr <= 0:
            bad("snr", "must be positive")
        for key in ("h", "h_r", "h_perp", "eps"):
            val = getattr(self, key)
            if val is not None and val <= 0:
                bad(key, "must be positive when given")
        if self.n_leapfrog is not None and self.n_leapfrog < 1:
            bad("n_leapfrog", "must be >= 1")
        for key in ("gamma_r", "gamma_perp"):
            if getattr(self, key) not in (0, 1):
                bad(key, "gamma flags must be 0 or 1")
        for key in ("rank", "max_rank"):
            if getattr(self, key) < 1:
                bad(key, "ranks must be >= 1")
        if not 0 < self.threshold:
            bad("threshold", "must be positive")
        for key in ("n_lag", "m_max"):
            if getattr(self, key) < 1:
                bad(key, "adaptation cadences must be >= 1")
        if self.delta_lis <= 0:
            bad("delta_lis", "must be positive")
        for key in ("lin_n", "lin_m"):
            if getattr(self, key) < 1:
                bad(key, "linear model shape must be positive")
        if self.lin_noise <= 0:
            bad("lin_noise", "must be positive")

    def resolved_steps(self):
        """The step sizes and leapfrog count a chain runs with: set fields
        win, unset ones come from DEFAULT_STEPS (one leapfrog step where
        it names none). dili's h is its h_r."""
        out = {"h": self.h, "h_r": self.h_r, "h_perp": self.h_perp,
               "n_leapfrog": self.n_leapfrog, "eps": self.eps}
        for key, val in {"n_leapfrog": 1, **DEFAULT_STEPS[self.algorithm]}.items():
            if out[key] is None:
                out[key] = val
        if self.algorithm == "dili":
            out["h"] = out["h_r"]
        return out

    def to_dict(self):
        return asdict(self)

    def hash(self):
        return dict_hash(self.to_dict())


def dict_hash(data):  # RunConfig.hash() from the dict its to_dict() gives
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def from_dict(data):
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"config key '{unknown[0]}': unknown key"
                         + (f" (also: {', '.join(unknown[1:])})" if len(unknown) > 1 else ""))
    return RunConfig(**data)


def from_yaml(path):
    with open(path) as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: expected a mapping at top level")
    return from_dict(data)


def to_yaml(config, path):
    """Write a RunConfig, or the dict its to_dict() gives, as YAML."""
    data = config if isinstance(config, dict) else config.to_dict()
    with open(path, "w") as fh:
        yaml.dump(data, fh, Dumper=YAML_DUMPER, sort_keys=True)
