"""Plain-text key=value run configuration.

One ``key = value`` pair per line; ``#`` starts a comment. Unknown keys
and malformed values are reported with their line number; values out of
range fail on parse too, before any stage runs.
"""

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .spdm import FIXED_TRANSFORMS

SPECTRAL_DESCRIPTORS = ("sihks_wks", "sihks", "wks", "hks")
DESCRIPTORS = SPECTRAL_DESCRIPTORS + ("lsf",)

# numeric ranges: (fields, lowest bound, whether the bound itself is allowed)
_RANGES = ((("batch_size", "epochs", "d_m", "n_mix", "n_points",
             "neighbor_cap", "t_max_factor", "early_stop_patience"), 1, True),
           # every spectral descriptor needs a mode besides the constant one
           (("k_eig",), 2, True),
           (("learning_rate", "lsf_radius_frac", "log_eps"), 0, False),
           (("margin", "eta", "early_stop_tol"), 0, True))


@dataclass
class RunConfig:
    """Everything a pipeline run needs besides the manifest and paths.

    Defaults are the retrieval training setting (batch 5, learning
    rate 20, margin 60, eta 1); the synthetic benchmark configs shipped
    in ``configs/`` override where calibration found better values.
    """

    task: str = "retrieval"
    descriptor: str = "sihks_wks"
    k_eig: int = 100
    n_points: int = 3000
    lsf_radius_frac: float = 0.15
    neighbor_cap: int = 512
    n_mix: int = 10
    d_m: int = 100
    batch_size: int = 5
    learning_rate: float = 20.0
    margin: float = 60.0
    eta: float = 1.0
    epochs: int = 200
    seed: int = 0
    t_max_factor: int = 10
    early_stop_patience: int = 20
    early_stop_tol: float = 1e-4
    transform: str = ""
    log_eps: float = 1e-3

    def __post_init__(self):
        if self.descriptor not in DESCRIPTORS:
            raise ConfigError(f"unknown descriptor {self.descriptor!r}; "
                              f"choose from {DESCRIPTORS}")
        if self.task not in ("retrieval", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.transform not in ("",) + FIXED_TRANSFORMS:
            raise ConfigError(f"unknown transform {self.transform!r}; "
                              f"choose from {FIXED_TRANSFORMS}")
        for names, low, closed in _RANGES:
            for name in names:
                value = getattr(self, name)
                if not (value >= low if closed else value > low):
                    rule = ">=" if closed else ">"
                    raise ConfigError(f"{name} must be {rule} {low}, "
                                      f"got {value!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw, path, lineno):
    kind = _FIELD_TYPES[key]
    try:
        if kind in (int, "int"):
            return int(raw)
        if kind in (float, "float"):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for "
                          f"{key} (expected {getattr(kind, '__name__', kind)})")


def parse_config(path):
    """Read a config file into a RunConfig."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, value, path, lineno)
    try:
        return RunConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")


def with_overrides(run, **overrides):
    clean = {k: v for k, v in overrides.items() if v is not None}
    return replace(run, **clean) if clean else run
