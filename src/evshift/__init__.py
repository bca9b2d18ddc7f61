"""Event-camera stream clustering and multi-target tracking.

The processing chain: a correlation filter drops isolated events, packets
of fixed event count are lifted into a 4D feature space (normalized
position, polarity, exponential time decay), a hybrid mean-shift labels
each packet, and per-target Kalman filters track the cluster centroids
across packets.
"""

from .bench import CostReport, CostRow, frame_baseline, run_sweep, write_cost_csv
from .clustering import (
    NOISE,
    ClusterLabeling,
    MeanShiftParams,
    cluster_packet,
    find_mode_path,
    kernel_weight,
    merge_modes,
    seek_modes,
)
from .config import RunConfig, load_config_file, merge_config
from .errors import (
    ContractViolationError,
    EmptyAlignmentError,
    EvshiftError,
    NumericalError,
    OutOfBoundsError,
    ParseError,
    StreamOrderError,
)
from .events import (
    DecayParams,
    Event,
    EventStream,
    Packet,
    SensorGeometry,
    as_stream,
    feature_matrix,
    make_packet,
    packetize,
)
from .filtering import FilterParams, filter_stream
from .metrics import (
    PairCounts,
    adjusted_rand_index,
    cluster_scores,
    kmeans_baseline,
    normalized_mutual_information,
    pair_counts,
    precision_recall_f,
    tracking_error,
)
from .pipeline import PipelineParams, PipelineResult, cluster_packets, process_packets, run_pipeline
from .scenes import build_scene, reference_scene, stability_scene, tracking_scene
from .synth import (
    GeneratedScene,
    Keyframes,
    SceneSpec,
    ShapeSpec,
    generate,
    load_scene,
    regular_polygon,
    save_scene,
)
from .tracking import (
    Measurement,
    Track,
    Tracker,
    TrackerParams,
    TrackStatus,
    associate,
    make_track,
    predict,
    update,
)

__version__ = "0.1.0"
