"""The pipeline config schema: every key a ``--config`` file or a CLI flag
may set, its type, its default and its checks, with the window schedule
(``WindowConfig``) and the prompt modes (``MODES``) that the keys take.

It imports only ``types`` and ``errors``: no NumPy and no rerank engine, so
every command reads its config, and ``--help`` lists its choices, without
loading the layers that the command does not run.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ConfigError, InvariantViolation
from .types import Value

TEXT_BUDGET_DEFAULT = 4000
MODES = ("text", "multimodal")

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


class WindowConfig(Value, frozen=True):
    """Sliding-window schedule; traversal is fixed back-to-front.  With no
    stride given it is 10, or ``window_size // 2`` for a window of fewer
    than 10 documents."""

    __slots__ = ("window_size", "stride")

    def __init__(self, window_size: int = 20, stride: int | None = None):
        if window_size < 2:
            raise InvariantViolation(f"need window_size >= 2, got window_size={window_size}")
        if stride is None:
            stride = 10 if window_size >= 10 else window_size // 2
        if not 1 <= stride <= window_size:
            raise InvariantViolation(
                f"need 1 <= stride <= window_size, got stride={stride}, "
                f"window_size={window_size}"
            )
        self._set(window_size, stride)


_WINDOW_KEYS = set(WindowConfig._fields)


class PipelineConfig(Value, frozen=True):
    __slots__ = ("top_k", "selection_k", "quality_threshold", "window", "budget", "seed", "mode",
                 "parallelism")

    def __init__(self, top_k: int = 20, selection_k: int = 1000, quality_threshold: float = 0.25,
                 window: WindowConfig = WindowConfig(), budget: int = TEXT_BUDGET_DEFAULT,
                 seed: int = 0, mode: str = "text", parallelism: int = 1):
        self._set(top_k, selection_k, quality_threshold, window, budget, seed, mode, parallelism)
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
