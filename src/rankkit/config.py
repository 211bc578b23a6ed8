"""The pipeline config schema: every key a ``--config`` file or a CLI flag
may set, its type, its default and its checks.

It loads no NumPy, so every command reads its config without paying for the
embedding layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping

from .engine import WindowConfig
from .errors import ConfigError
from .prompts import MODES

TEXT_BUDGET_DEFAULT = 4000

# Every config key with its type, in manifest order.  The defaults live in
# PipelineConfig and WindowConfig.
CONFIG_KEYS: dict[str, type] = {
    "top_k": int,
    "selection_k": int,
    "quality_threshold": float,
    "window_size": int,
    "stride": int,
    "budget": int,
    "seed": int,
    "mode": str,
    "parallelism": int,
}
_WINDOW_KEYS = {f.name for f in fields(WindowConfig)}


@dataclass(frozen=True)
class PipelineConfig:
    top_k: int = 20
    selection_k: int = 1000
    quality_threshold: float = 0.25
    window: WindowConfig = field(default_factory=WindowConfig)
    budget: int = TEXT_BUDGET_DEFAULT
    seed: int = 0
    mode: str = "text"
    parallelism: int = 1

    def __post_init__(self):
        for name in ("top_k", "selection_k", "budget", "parallelism"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not -1.0 <= self.quality_threshold <= 1.0:
            raise ConfigError("quality_threshold must lie in [-1, 1]")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")

    def to_json(self) -> dict:
        """The manifest record: every config key but ``parallelism``, which
        does not change the labels."""
        return {name: getattr(self.window if name in _WINDOW_KEYS else self, name)
                for name in CONFIG_KEYS if name != "parallelism"}


def _config_value(name: str, value: object) -> object:
    """``value`` coerced to the type of key ``name``; an int key takes an
    integral number (5.0 but not 2.7), and a boolean is never a number."""
    kind = CONFIG_KEYS.get(name)
    if kind is None:
        raise ConfigError(f"unknown config key {name!r}")
    if kind is str:
        ok = isinstance(value, str)
    elif kind is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    else:
        ok = isinstance(value, (int, float))
    if not ok or isinstance(value, bool):
        raise ConfigError(f"config key {name!r} takes {kind.__name__}, got {value!r}")
    return kind(value)


def config_from_json(data: Mapping) -> PipelineConfig:
    """A ``PipelineConfig`` from a mapping of ``CONFIG_KEYS``; an unknown key
    or a value of the wrong type raises ``ConfigError`` naming the key."""
    values = {name: _config_value(name, value) for name, value in data.items()}
    window = WindowConfig(**{n: values.pop(n) for n in _WINDOW_KEYS if n in values})
    return PipelineConfig(window=window, **values)
