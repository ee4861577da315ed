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
import sys
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
        for key, (typ, optional, domain) in KEYS.items():
            val = getattr(self, key)
            if val is None and optional:
                continue
            kinds = (int, float) if typ is float else typ
            if not isinstance(val, kinds) or isinstance(val, bool) and typ is not bool:
                _refuse(key, typ.__name__ + (" or None" if optional else ""), val, typed=True)
            if typ is float and not abs(val) <= sys.float_info.max:  # nan, inf, huge int
                _refuse(key, "a finite float", val)
            if isinstance(domain, tuple) and val not in domain:
                _refuse(key, f"one of {domain}", val)
            if typ is int and isinstance(domain, int) and val < domain:
                _refuse(key, f"an int >= {domain}", val)
            if typ is float and val <= domain:
                _refuse(key, f"a float > {domain}", val)
        if self.iterations <= self.burn_in:
            _refuse("iterations", f"more than burn_in ({self.burn_in})", self.iterations)

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


def _refuse(key, expected, val, typed=False):
    """Raise the one-line refusal of a config value. It shows an int of more
    than 20 digits by its digit count (its repr is long, and past 4300
    digits raises), anything else by its repr, after its type name if typed."""
    if isinstance(val, int) and abs(val) >= 10 ** 20:
        k = int(abs(val).bit_length() * math.log10(2))  # the count is k or k + 1
        shown = f"an int of {k + (abs(val) >= 10 ** k)} digits"
    else:
        shown = f"{type(val).__name__} {val!r}" if typed else repr(val)
    raise ValueError(f"config key '{key}': expected {expected}, got {shown}")


def dict_hash(data):  # RunConfig.hash() from the dict its to_dict() gives
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def from_dict(data):
    unknown = sorted(str(key) for key in set(data) - set(KEYS))  # YAML keys need not be str
    if unknown:
        raise ValueError(f"config key '{unknown[0]}': unknown key"
                         + (f" (also: {', '.join(unknown[1:])})" if len(unknown) > 1 else ""))
    return RunConfig(**data)


class _UniqueKeyLoader(yaml.SafeLoader):  # YAML keys are unique; safe_load keeps the last
    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep) for key, _ in node.value
                if key.tag != "tag:yaml.org,2002:merge"]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"duplicate key {key!r}")
        return super().construct_mapping(node, deep)


def from_yaml(path):
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
        except ValueError as exc:  # e.g. PyYAML's int() of more than 4300 digits
            raise ValueError(f"config file {path}: {exc}") from None
    if not isinstance(data, (dict, type(None))):  # only an empty document means defaults
        raise ValueError(f"config file {path}: expected a mapping at top level")
    return from_dict(data or {})


def to_yaml(config, path):
    """Write a RunConfig, or the dict its to_dict() gives, as YAML."""
    data = config if isinstance(config, dict) else config.to_dict()
    with open(path, "w") as fh:
        yaml.dump(data, fh, Dumper=YAML_DUMPER, sort_keys=True)
