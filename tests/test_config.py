import numpy as np
import pytest

from evshift.clustering import MeanShiftParams
from evshift.config import RunConfig, load_config_file, merge_config
from evshift.errors import ContractViolationError, ParseError
from evshift.pipeline import PipelineParams
from evshift.tracking import TrackerParams


def test_defaults_round_numbers():
    cfg = RunConfig()
    assert cfg.bandwidth == 0.1
    assert cfg.epsilon == 1e-3
    assert cfg.max_iters == 100
    assert cfg.min_cluster_size == 5
    assert cfg.tau == 0.025
    assert cfg.packet_size == 500
    assert cfg.gate == 15.0
    assert cfg.q_var == 100.0
    assert cfg.r_var == 4.0
    assert cfg.confirm_hits == 3
    assert cfg.max_misses == 10


@pytest.mark.parametrize("params, name", [
    (MeanShiftParams, "max_iters"),
    (MeanShiftParams, "min_cluster_size"),
    (TrackerParams, "confirm_hits"),
    (TrackerParams, "max_misses"),
])
@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, "2", None])
def test_counts_must_be_integers(params, name, bad):
    # a float count used to construct and fail later (max_iters=2.5 in
    # range()), or run as a count (max_iters=True ran one iteration)
    with pytest.raises(ContractViolationError, match=f"{name} must be an integer"):
        params(**{name: bad})
    assert getattr(params(**{name: np.int64(2)}), name) == 2


def test_defaults_are_the_library_defaults():
    assert RunConfig().pipeline_params() == PipelineParams()


def test_merge_radius_follows_bandwidth_unless_set():
    assert RunConfig().resolved_merge_radius() == 0.05
    assert RunConfig(bandwidth=0.2).resolved_merge_radius() == 0.1
    assert RunConfig(bandwidth=0.2, merge_radius=0.01).resolved_merge_radius() == 0.01


def test_pipeline_params_threading():
    cfg = RunConfig(bandwidth=0.2, packet_size=77, tau=0.01, no_filter=True, gate=9.0)
    p = cfg.pipeline_params()
    assert p.packet_size == 77
    assert p.decay.tau == 0.01
    assert p.filter_params is None
    assert p.ms_params.bandwidth_h == 0.2
    assert p.ms_params.merge_radius == 0.1
    assert p.tracker_params.gate == 9.0
    assert RunConfig().pipeline_params().filter_params is not None


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "bandwidth = 0.2\n"
        "packet_size=250\n"
        "no_filter = true\n"
        "merge_radius = none\n"
        "seed = 42  # trailing comment\n"
        "\n"
    )
    values = load_config_file(str(path))
    assert values == {
        "bandwidth": 0.2,
        "packet_size": 250,
        "no_filter": True,
        "merge_radius": None,
        "seed": 42,
    }


def test_load_config_file_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mystery = 1\n")
    with pytest.raises(ParseError):
        load_config_file(str(path))
    path.write_text("bandwidth 0.2\n")
    with pytest.raises(ParseError):
        load_config_file(str(path))
    path.write_text("packet_size = 2.5\n")
    with pytest.raises(ParseError):
        load_config_file(str(path))
    path.write_text("no_filter = maybe\n")
    with pytest.raises(ParseError):
        load_config_file(str(path))
    with pytest.raises(FileNotFoundError):
        load_config_file(str(tmp_path / "absent.cfg"))


def test_merge_precedence():
    cfg = merge_config()
    assert cfg == RunConfig()
    cfg = merge_config({"bandwidth": 0.2}, {})
    assert cfg.bandwidth == 0.2
    cfg = merge_config({"bandwidth": 0.2, "gate": 5.0}, {"bandwidth": 0.3})
    assert cfg.bandwidth == 0.3
    assert cfg.gate == 5.0
    with pytest.raises(ContractViolationError):
        merge_config({"nope": 1})
