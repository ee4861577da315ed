"""Run configuration: a flat, validated record of every knob a chain needs.

Defaults reproduce the desk-scale elliptic study: unit square, 20 x 20
cells, exponential prior kernel (sigma_u = 1.25, s_0 = 0.0625), 25 interior
sensors, SNR 10, 2500 iterations with 500 burn-in, and the adaptation
schedule n_lag = 200, m_max = 100, Delta_LIS = 1e-5.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields

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
    """Every chain setting. Each field declares its domain once: a tuple of
    allowed values, a lower bound (ints at least it, floats finite and
    strictly above it) or None (any value of its type). Its type is its
    annotation; an int is accepted as a float, a bool is not an int."""

    model: str = field(default="elliptic", metadata={"domain": MODELS})
    algorithm: str = field(default="pcn", metadata={"domain": ALGORITHMS})
    nx: int = field(default=20, metadata={"domain": 2})
    ny: int = field(default=20, metadata={"domain": 2})
    sigma_u: float = field(default=1.25, metadata={"domain": 0.0})
    s_0: float = field(default=0.0625, metadata={"domain": 0.0})
    snr: float = field(default=10.0, metadata={"domain": 0.0})
    noiseless: bool = field(default=False, metadata={"domain": (False, True)})
    h: float | None = field(default=None, metadata={"domain": 0.0})
    h_r: float | None = field(default=None, metadata={"domain": 0.0})
    h_perp: float | None = field(default=None, metadata={"domain": 0.0})
    n_leapfrog: int | None = field(default=None, metadata={"domain": 1})
    eps: float | None = field(default=None, metadata={"domain": 0.0})
    gamma_r: int = field(default=1, metadata={"domain": (0, 1)})
    gamma_perp: int = field(default=0, metadata={"domain": (0, 1)})
    rank: int = field(default=5, metadata={"domain": 1})
    threshold: float = field(default=0.01, metadata={"domain": 0.0})
    max_rank: int = field(default=30, metadata={"domain": 1})
    iterations: int = field(default=2500, metadata={"domain": 1})
    burn_in: int = field(default=500, metadata={"domain": 0})
    n_lag: int = field(default=200, metadata={"domain": 1})
    m_max: int = field(default=100, metadata={"domain": 1})
    delta_lis: float = field(default=1e-5, metadata={"domain": 0.0})
    seed: int = field(default=0, metadata={"domain": 0})
    data_seed: int = field(default=20260815, metadata={"domain": 0})
    # linear-gaussian model shape (ignored by the elliptic model)
    lin_n: int = field(default=8, metadata={"domain": 1})
    lin_m: int = field(default=4, metadata={"domain": 1})
    lin_noise: float = field(default=0.5, metadata={"domain": 0.0})
    out_dir: str | None = field(default=None, metadata={"domain": None})

    def __post_init__(self):
        def bad(key, msg):
            raise ValueError(f"config key '{key}': {msg}")

        for key, (typ, optional, domain) in KEYS.items():
            val = getattr(self, key)
            if val is None and optional:
                continue
            kinds = (int, float) if typ is float else typ
            if not isinstance(val, kinds) or isinstance(val, bool) and typ is not bool:
                bad(key, f"expected {typ.__name__}{' or None' if optional else ''}, "
                         f"got {type(val).__name__} {val!r}")
            if typ is float and not math.isfinite(val):
                bad(key, f"expected a finite float, got {val!r}")
            if isinstance(domain, tuple) and val not in domain:
                bad(key, f"expected one of {domain}, got {val!r}")
            if typ is int and isinstance(domain, int) and val < domain:
                bad(key, f"expected an int >= {domain}, got {val!r}")
            if typ is float and val <= domain:
                bad(key, f"expected a float > {domain}, got {val!r}")
        if self.iterations <= self.burn_in:
            bad("iterations", f"expected more than burn_in ({self.burn_in}), "
                              f"got {self.iterations}")

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


# key -> (type, None allowed, domain) of every RunConfig field, built once for
# __post_init__ and the CLI's flags; fields and type hints share declaration order
KEYS = {f.name: ((typing.get_args(hint) or (hint,))[0], type(None) in typing.get_args(hint),
                 f.metadata["domain"])
        for f, hint in zip(fields(RunConfig), typing.get_type_hints(RunConfig).values())}


def dict_hash(data):  # RunConfig.hash() from the dict its to_dict() gives
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def from_dict(data):
    unknown = sorted(str(key) for key in set(data) - set(KEYS))  # YAML keys need not be str
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
