"""Run configuration with layered precedence.

Values resolve in the order: built-in defaults, then a flat key=value
config file, then command-line flags.  A later layer only overrides keys
it actually sets.  merge_radius left unset follows the bandwidth at half
its value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from .clustering import MeanShiftParams
from .errors import ContractViolationError, ParseError, require_finite
from .events import DecayParams
from .filtering import FilterParams
from .io import read_lines
from .pipeline import PipelineParams
from .tracking import TrackerParams


@dataclass
class RunConfig:
    bandwidth: float = 0.1
    epsilon: float = 1e-3
    max_iters: int = 100
    merge_radius: Optional[float] = None
    min_cluster_size: int = 5
    tau: float = 0.025
    packet_size: int = 500
    filter_radius: int = 1
    filter_window: float = 0.005
    no_filter: bool = False
    gate: float = 15.0
    q_var: float = 100.0
    r_var: float = 4.0
    confirm_hits: int = 3
    max_misses: int = 10
    seed: Optional[int] = None
    speed_factor: float = 1.0
    threshold: float = 2.5
    kmeans_k: Optional[int] = None
    beta: float = 1.0
    fps: float = 30.0
    capacity: Optional[float] = None

    def __post_init__(self):
        require_finite(self)

    def resolved_merge_radius(self) -> float:
        return self.bandwidth / 2.0 if self.merge_radius is None else self.merge_radius

    def pipeline_params(self) -> PipelineParams:
        return PipelineParams(
            packet_size=self.packet_size,
            decay=DecayParams(tau=self.tau),
            filter_params=None if self.no_filter else FilterParams(
                radius=self.filter_radius, window=self.filter_window
            ),
            ms_params=MeanShiftParams(
                bandwidth_h=self.bandwidth,
                epsilon=self.epsilon,
                max_iters=self.max_iters,
                merge_radius=self.resolved_merge_radius(),
                min_cluster_size=self.min_cluster_size,
            ),
            tracker_params=TrackerParams(
                gate=self.gate,
                q_var=self.q_var,
                r_var=self.r_var,
                confirm_hits=self.confirm_hits,
                max_misses=self.max_misses,
            ),
        )


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}

_INT_FIELDS = {"max_iters", "min_cluster_size", "packet_size", "filter_radius", "confirm_hits", "max_misses", "seed", "kmeans_k"}
_BOOL_FIELDS = {"no_filter"}
_OPTIONAL_FIELDS = {"merge_radius", "seed", "kmeans_k", "capacity"}


def _coerce(key: str, raw: str, path: str, line_no: int):
    raw = raw.strip()
    if key in _OPTIONAL_FIELDS and raw.lower() in ("none", ""):
        return None
    try:
        if key in _BOOL_FIELDS:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ParseError(path, line_no, f"bad value for {key}: {exc}") from exc


def load_config_file(path: str) -> Dict[str, object]:
    """Parse a flat `key = value` UTF-8 file; unknown keys are rejected.
    A path that is not a file raises FileNotFoundError."""
    out: Dict[str, object] = {}
    for line_no, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, line_no, f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ParseError(path, line_no, f"unknown configuration key {key!r}")
        out[key] = _coerce(key, value, path, line_no)
    return out


def merge_config(
    file_values: Optional[Dict[str, object]] = None,
    cli_values: Optional[Dict[str, object]] = None,
) -> RunConfig:
    """Defaults, overridden by file values, overridden by CLI values.

    Every key present in a layer is applied, so callers must pass only the
    keys that were explicitly set in that layer.
    """
    merged = dataclasses.asdict(RunConfig())
    for layer in (file_values or {}, cli_values or {}):
        for key, value in layer.items():
            if key not in merged:
                raise ContractViolationError(f"unknown configuration key {key!r}")
            merged[key] = value
    return RunConfig(**merged)
