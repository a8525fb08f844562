"""Imbalanced multi-channel ECG classification building blocks.

Two ideas carry the package: a channel magnitude equalizer (CME) that
rescales each channel by a softmax over negated channel magnitudes before
encoding the record as a fixed-size image, and the inverted-weight
logarithmic (IWL) loss, a cross-entropy variant that multiplies each
record's loss by (log(10/(p+eps)))**beta so low-confidence (typically
tail-class) records drive proportionally larger gradients. Around them:
a long-tail resampler, baseline losses, a small deterministic trainer,
and an experiment grid driver.
"""

from .data import (
    CANONICAL_CLASS_NAMES,
    CANONICAL_LEADS,
    CANONICAL_SAMPLE_RATE,
    Dataset,
    EcgRecord,
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    split,
    split_positions,
    synth_labels,
    window_record,
    write_csv_dataset,
)
from .equalizer import (
    ChannelMagnitudeStats,
    EncoderSpec,
    channel_stats,
    cme_factors,
    encode_image,
    featurize_records,
    read_image_csv,
    read_image_raw,
    write_image_csv,
    write_image_raw,
)
from .errors import (
    ConfigError,
    DimensionError,
    EcgBalanceError,
    EmptyDataset,
    EncodeError,
    MalformedRecord,
    NonFiniteSample,
    OutputError,
    SpecError,
    UnknownClass,
    WindowOutOfRange,
)
from .experiment import (
    ExperimentSpec,
    ResultRow,
    parse_experiment_spec,
    run_experiment,
    write_results_csv,
)
from .imbalance import longtail_counts, resample, resample_positions
from .losses import (
    LOSS_KINDS,
    BatchLoss,
    GradCheckResult,
    LossConfig,
    canonical_loss_name,
    effective_number_weights,
    finite_difference_grad,
    gradient_check,
    iwl_point_value,
    iwl_weight,
    ldam_margins,
    make_loss,
    relative_gradient_error,
    softmax,
)
from .trainer import (
    AdamState,
    Metrics,
    ModelParams,
    TrainConfig,
    adam_init,
    adam_step,
    evaluate,
    init_model,
    load_model,
    metrics_from_confusion,
    save_model,
    score,
    train,
    train_stack,
)

__version__ = "0.1.0"
