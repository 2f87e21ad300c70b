"""seldkit: sound event localization and detection at desk scale.

Synthetic first-order-Ambisonic scenes, spectral features, the three
training augmentations, a small numpy network with hand-written gradients,
overlap/rotation inference, joint localization/detection metrics, and
fitted ensemble weighting.
"""

__version__ = "0.1.0"

from .accdoa import (
    angular_distance,
    compose_accdoa,
    decode_accdoa,
    encode_accdoa,
    pool_to_label_rate,
)
from .augment import ALL_PATTERNS, RotationPattern, SpecAugmentConfig, emda_mix, rotate_accdoa, rotate_angles, rotate_foa, spec_augment
from .features import FeatureStack, StftConfig, extract_features, make_feature_stack, stft
from .infer import Predictor, rotation_tta, sliding_inference
from .intensity import IntensityVectorModel
from .metrics import MetricsAccumulator, SeldMetrics, evaluate, match_frame_class
from .scene import (
    AmbisonicClip,
    DoaAngles,
    Event,
    EventList,
    SceneConfig,
    encode_plane_wave,
    class_signature,
    synth_scene,
)

__all__ = [name for name in dir() if not name.startswith("_")]
