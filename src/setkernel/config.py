"""Pipeline configuration, config-file parsing, and seed splitting."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError

MASK64 = (1 << 64) - 1

SUBSAMPLE_METHODS = ("herding", "uniform")
FEATURE_MODES = ("rff", "naive")


def derive_seed(seed: int, tag: str) -> int:
    """Derive a purpose-specific sub-seed as seed XOR sha256(tag)[:8].

    Adding a new purpose tag never perturbs the streams of existing tags,
    so pipeline stages can be added without changing earlier randomness.
    """
    h = hashlib.sha256(tag.encode("utf-8")).digest()
    return (int(seed) & MASK64) ^ int.from_bytes(h[:8], "little")


@dataclass(frozen=True)
class PipelineConfig:
    """Effective settings for the end-to-end pipeline.

    m is the number of cells kept per sample after sub-selection; None keeps
    every cell (spelled "all" in config files and flags). preprocessing is
    "none", "standardize", or "arcsinh:<cofactor>". features selects the
    per-sample representation: "rff" (mean embedding) or "naive" (per-feature
    mean, cross-validation ablation only). Building one checks every
    setting, so an invalid config cannot exist.
    """

    gamma: float = 1.0
    D: int = 2000
    m: int | None = 200
    folds: int = 5
    runs: int = 5
    reg_c: float = 1.0
    seed: int = 0
    subsample_method: str = "herding"
    preprocessing: str = "none"
    clusters_C: int = 10
    features: str = "rff"

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be positive and finite, got {self.gamma}")
        if self.D < 2 or self.D % 2 != 0:
            raise ConfigError(f"D must be even and >= 2, got {self.D}")
        if self.m is not None and self.m < 1:
            raise ConfigError(f"m must be positive or 'all', got {self.m}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not 0 < self.reg_c < math.inf:
            raise ConfigError(f"reg_c must be positive and finite, got {self.reg_c}")
        if self.clusters_C < 2:
            raise ConfigError(f"clusters_C must be >= 2, got {self.clusters_C}")
        if self.subsample_method not in SUBSAMPLE_METHODS:
            raise ConfigError(
                f"subsample_method must be one of {SUBSAMPLE_METHODS}, "
                f"got {self.subsample_method!r}"
            )
        if self.features not in FEATURE_MODES:
            raise ConfigError(
                f"features must be one of {FEATURE_MODES}, got {self.features!r}"
            )
        self.arcsinh_cofactor()

    def arcsinh_cofactor(self) -> float | None:
        """Cofactor when preprocessing is arcsinh:<cofactor>, else None."""
        p = self.preprocessing
        if p == "none" or p == "standardize":
            return None
        if p.startswith("arcsinh:"):
            try:
                cofactor = float(p.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"bad arcsinh cofactor in {p!r}") from None
            if not 0 < cofactor < math.inf:
                raise ConfigError(f"arcsinh cofactor must be positive and finite, got {cofactor}")
            return cofactor
        raise ConfigError(
            f"preprocessing must be none, standardize, or arcsinh:<cofactor>, got {p!r}"
        )

    def as_dict(self) -> dict[str, str]:
        """Flat key=value view (used for meta files and report headers)."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "m" and v is None:
                v = "all"
            out[f.name] = str(v)
        return out


_SETTING_TYPES = {f.name: type(f.default) for f in fields(PipelineConfig)}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def coerce_setting(key: str, value: str):
    """Convert one config-file or flag string to its typed value.

    Each key takes the type of its PipelineConfig default; m also takes "all",
    which is None.
    """
    value = value.strip()
    if key not in _SETTING_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _SETTING_TYPES[key]
    if kind is str:
        return value
    if key == "m" and value == "all":
        return None
    try:
        return kind(value)
    except ValueError:
        expected = "an integer or 'all'" if key == "m" else _TYPE_NAMES[kind]
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from None


def parse_config_file(path) -> dict:
    """Parse a key=value config file (one pair per line, # comments)."""
    settings = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        settings[key] = coerce_setting(key, value)
    return settings


def build_config(file_settings: dict | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Defaults, then config-file values, then explicit overrides.

    Both dicts must contain only keys that were actually set; a value of
    None is meaningful (m=None keeps every cell).
    """
    return PipelineConfig(**{**(file_settings or {}), **(overrides or {})})
