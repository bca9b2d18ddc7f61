"""Run configuration with layered precedence.

Values resolve in the order: built-in defaults, then a flat key=value
config file, then command-line flags.  A later layer only overrides keys
it actually sets.  merge_radius left unset follows the bandwidth at half
its value.

Each setting is one RunConfig field: its name is the file key and, with
`-` for `_`, the flag; its annotation is its kind and its metadata its
help.  A stage setting takes its default from the stage's own class.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .bench import DEFAULT_FPS
from .clustering import MeanShiftParams
from .errors import ContractViolationError, ParseError, require_finite
from .events import DecayParams
from .filtering import FilterParams
from .io import read_lines
from .pipeline import PipelineParams
from .tracking import TrackerParams


def _setting(default, help: str):
    return dataclasses.field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    bandwidth: float = _setting(MeanShiftParams.bandwidth_h, "kernel bandwidth in normalized feature units")
    epsilon: float = _setting(MeanShiftParams.epsilon, "convergence step threshold")
    max_iters: int = _setting(MeanShiftParams.max_iters, "iteration cap per packet")
    merge_radius: Optional[float] = _setting(None, "mode coalescing radius")
    min_cluster_size: int = _setting(MeanShiftParams.min_cluster_size, "smaller clusters become noise")
    tau: float = _setting(DecayParams.tau, "time decay constant in seconds")
    packet_size: int = _setting(PipelineParams.packet_size, "events per packet")
    filter_radius: int = _setting(FilterParams.radius, "support neighborhood radius in pixels")
    filter_window: float = _setting(FilterParams.window, "support window in seconds")
    no_filter: bool = _setting(False, "skip the correlation filter")
    gate: float = _setting(TrackerParams.gate, "association gate in pixels")
    q_var: float = _setting(TrackerParams.q_var, "process noise intensity")
    r_var: float = _setting(TrackerParams.r_var, "measurement noise variance")
    confirm_hits: int = _setting(TrackerParams.confirm_hits, "consecutive hits to confirm a track")
    max_misses: int = _setting(TrackerParams.max_misses, "consecutive misses before a track dies")
    seed: Optional[int] = _setting(None, "random seed override")
    speed_factor: float = _setting(1.0, "time compression factor")
    threshold: float = _setting(2.5, "validity threshold for track error, pixels")
    kmeans_k: Optional[int] = _setting(None, "fixed k for the k-means comparison")
    beta: float = _setting(1.0, "weight of recall in the F score")
    fps: float = _setting(DEFAULT_FPS, "frame rate of the frame-driven baseline")
    capacity: Optional[float] = _setting(None, "event throughput cap for the consumer model")

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


def _kind(hint) -> Tuple[type, bool]:
    """The kind of a field's annotation, and whether it may be None."""
    kinds = [a for a in typing.get_args(hint) if a is not type(None)]
    return (kinds[0], True) if kinds else (hint, False)


_HINTS = typing.get_type_hints(RunConfig)
# name -> (kind, whether None is allowed, help text), read off each field.
SETTINGS: Dict[str, Tuple[type, bool, str]] = {
    f.name: (*_kind(_HINTS[f.name]), f.metadata["help"]) for f in dataclasses.fields(RunConfig)
}


def _coerce(key: str, raw: str, path: str, line_no: int):
    kind, optional, _ = SETTINGS[key]
    raw = raw.strip()
    if optional and raw.lower() in ("none", ""):
        return None
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return kind(raw)
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
        if key not in SETTINGS:
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
