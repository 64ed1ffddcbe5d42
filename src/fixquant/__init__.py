"""Fixed-point inference simulation toolkit.

Quantize neural networks without a framework: a small graph IR, uniform
affine quantizers with simulated and true-integer kernels, range setting
from calibration statistics, post-training transforms (batch-norm folding,
cross-layer equalization, bias correction, adaround), straight-through
fine-tuning, and mixed-precision search.
"""

from .amp import (
    AccuracyEntry,
    CandidatePair,
    ParetoEntry,
    QuantizerGroup,
    bit_ops,
    build_pareto,
    choose_mixed_precision,
    find_layer_groups,
    sensitivity_analysis,
)
from .datasets import Dataset, evaluate, iter_batches, load_dataset, metric_score, save_dataset
from .debug import DebugReport, run_debug
from .errors import (
    CacheError,
    CalibrationError,
    EncodingError,
    FixquantError,
    GraphError,
    ModelFormatError,
    NumericError,
    ShapeError,
)
from .graph_ir import GraphModel, Node, load_model, model_paths, save_model
from .ptq import (
    AdaRoundParams,
    CLEReport,
    PtqOptions,
    adaround,
    bias_correct,
    equalize_model,
    fold_batch_norms,
    replace_relu6_with_relu,
    run_ptq_pipeline,
)
from .qat import QatOptions, backward, forward_with_tape, mse_loss, qat_train, softmax_cross_entropy
from .quantizer import (
    QuantEncoding,
    QuantizerSpec,
    dequantize,
    integer_mac,
    integer_matmul_asymmetric,
    qdq,
    quantize_int,
    ste_mask,
)
from .quantsim import (
    QuantSimModel,
    SimConfig,
    compute_activation_encodings,
    compute_encodings,
    compute_param_encodings,
    create_quantsim,
    encodings_to_dict,
    export,
    import_encodings,
)
from .range_setting import (
    RangeAccumulator,
    RangeScheme,
    compute_encodings_from_accumulator,
    compute_minmax,
    compute_sqnr,
    encoding_from_range,
)

__version__ = "0.1.0"
