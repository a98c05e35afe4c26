"""flightwatch: black-box decision-uncertainty detection for autonomous UAV flights.

The library turns the heading channel of a UAV's safe-waypoint control signal
into a windowed dataset, trains a 1D convolutional autoencoder on nominal
windows, raises runtime alarms from the rolling mean of reconstruction losses,
and evaluates how detected uncertainty relates to flight unsafety.
"""

__version__ = "0.1.0"

from .flightdata import (
    FlightLabels,
    FlightLog,
    ObstacleBox,
    ParseError,
    ValidationError,
    parse_flight_log,
    parse_labels,
    parse_obstacles,
)
from .geometry import (
    DistanceTrace,
    FitnessParams,
    Trajectory,
    average_trajectory,
    dtw,
    fitness_distance,
    min_obstacle_distance,
    point_box_distance,
    sum_dist,
    trajectory_from_log,
)
from .preprocess import (
    HeadingWindow,
    PreprocessConfig,
    filter_nominal,
    make_windows,
    preprocess_flight,
    read_windows_csv,
    resample_uniform,
    unwrap_heading,
    write_windows_csv,
)
from .autoenc import (
    AutoencoderModel,
    TrainConfig,
    load_model,
    mse_loss,
    save_model,
    train,
)
from .detector import (
    AlarmEvent,
    CalibrationResult,
    DetectionReport,
    DetectorConfig,
    StreamDetector,
    calibrate_threshold,
    detect_stream,
    lead_time_analysis,
)
from .evalstats import (
    AgreementStats,
    ConfusionMatrix,
    WilsonInterval,
    agreement_stats,
    agreement_stats_from_counts,
    confusion,
    dataset_report,
    metrics,
    normal_quantile,
    wilson,
)
from .synthgen import SynthConfig, SyntheticDataset, generate, write_dataset
