"""Human activity recognition by decoding label-name token sequences.

Subpackages and modules:
    numkernel   float64 tensor kernel with per-layer forward/backward passes
    labelspace  label tokenization, prefix trie, and the three augmentations
    model       encoder/decoder network, constrained decoding, baseline head
    data        CSV ingestion, windowing, normalization, synthetic generator
    experiment  training loops, metrics, few-shot and imbalance protocols
    cli         command-line entry point
"""

from .labelspace import (
    LabelMap,
    LabelSpace,
    apply_label_map,
    augment_label,
    build_label_space,
    load_embeddings,
    shared_token_count,
)
from .model import (
    DecodeResult,
    EncoderConfig,
    ShareModel,
    VanillaModel,
    constrained_decode,
    count_parameters,
    load_model,
    save_model,
    teacher_forced_loss,
    vanilla_forward,
)
from .data import (
    Dataset,
    SyntheticSpec,
    TimeSeriesSample,
    generate_synthetic,
    load_dataset,
    normalize,
)
from .experiment import (
    Metrics,
    RunRecord,
    TrainConfig,
    compute_metrics,
    evaluate,
    run_downsample_suite,
    run_fewshot_suite,
    train_share,
    train_vanilla,
)

__version__ = "0.1.0"
