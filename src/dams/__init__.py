"""Weakly supervised video anomaly detection over precomputed frame features.

Frame features pass through a projection backbone, an adaptive multiscale
temporal pyramid with learned branch fusion and channel excitation, and a
dual (channel + temporal) attention block before per-frame scoring. Training
combines focal pseudo-label supervision, top-k video-level classification,
and triplet separation under learned uncertainty weighting. Everything is
numpy with hand-written backward passes and is deterministic given a seed.
"""

from .amtpn import Aff, Amtpn, ConfigError, EmptyPyramidError, PyramidConfig, Tce, Tpp
from .cbam import Cbam, CbamConfig, ChannelAttention, TemporalAttention
from .checks import ALL_CHECKS, run_suite
from .data import (FeatureFileError, BadMagicError, BadVersionError,
                   ChecksumError, TruncatedFileError, SyntheticSpec,
                   VideoRecord, batch_iter, load_dataset, read_feature_file,
                   save_dataset, synthesize_dataset, write_feature_file)
from .kernel import (DegenerateBatchError, DimensionError, GradCheckAborted,
                     GradCheckReport, Parameter, grad_check)
from .losses import (EmptyLossError, LossConfig, NonFiniteLossError,
                     UncertaintyWeights, focal_loss, topk_video_score,
                     total_loss, triplet_loss, video_cls_loss)
from .metrics import (MiEstimatorConfig, UndefinedMetricError,
                      average_precision, complementarity_index, mi_discrete,
                      roc_auc)
from .model import (ClipPathConfig, DamsModel, ForwardOutput, ModelConfig,
                    clip_binary_probs, clip_scores, pseudo_labels)
from .trainer import (ABLATION_VARIANTS, Adam, EvalReport, TrainConfig,
                      TrainResult, ablate, apply_variant, build_model,
                      config_from_dict, config_hash, config_to_dict,
                      evaluate, load_checkpoint, load_model_for_inference,
                      save_checkpoint, score_video, train, train_step)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
