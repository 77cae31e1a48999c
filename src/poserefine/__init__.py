"""Joint-angle based refinement of noisy 2D human pose keypoint sequences."""

from .conditioning import (
    LimbSolveResult,
    estimate_ratios,
    optimize_limb_lengths,
    savgol_smooth,
    smooth_base_trajectory,
)
from .dataset import (
    DatasetManifest,
    NoiseEvents,
    NoiseSpec,
    generate_dataset,
    inject_noise_events,
    load_split,
    read_shard,
    record_coords,
    record_events,
    write_shard,
)
from .errors import (
    CorruptModelError,
    DegenerateLimbError,
    DegenerateSamplingError,
    GenerationError,
    InsufficientDataError,
    InvalidRangeError,
    ModelFormatError,
    PoseRefineError,
    SchemaError,
    ShapeError,
    TrainingDivergedError,
)
from .fourier import (
    FourierMotionTemplate,
    RandomizeRanges,
    eval_fourier,
    fit_fourier,
    randomize_template,
    reference_templates,
    synthesize_truth,
)
from .pipeline import (
    MetricsReport,
    PipelineConfig,
    RefinedMotion,
    evaluate_metrics,
    export_series,
    load_erroneous_frames,
    parse_keypoints,
    refine_keypoint_file,
    refine_pose_sequence,
    write_keypoints,
)
from .refiner import (
    RefinerModel,
    batch_gradients,
    load_model,
    mse_loss,
    parameter_shapes,
    refine_batch,
    save_model,
)
from .skeleton import (
    EDGES,
    EDGE_NAMES,
    KEYPOINT_NAMES,
    N_KEYPOINTS,
    N_LIMBS,
    PoseSequence,
    pose_to_angles,
    pose_to_limb_lengths,
    reconstruct_sequence,
    unwrap_joint_angles,
    velocity_series,
    wrap_angle,
)
from .training import (
    Adam,
    EpochStats,
    TrainConfig,
    TrainLog,
    save_train_log,
    train_model,
    train_on_arrays,
)
from .windows import (
    plan_windows,
    refine_sequence,
    stitch_windows,
)

__version__ = "0.1.0"
