"""bandstack: reversible multichannel-to-single-channel spectral codec.

Stretch each channel's spectrum into a narrow band of a wideband grid, stack
the bands, and invert the result into a single high-rate waveform (playable
as audio in the real modes). The inverse transform recovers every original
channel; the sidecar header carries everything decoding needs.
"""

from bandstack.model import (
    MODE_PAPER_COMPLEX,
    MODE_REAL_HERMITIAN,
    MODE_STRICT_LOSSLESS,
    BandPlan,
    BandstackError,
    ChannelSpectrum,
    CollisionError,
    CollisionWarning,
    DecodeError,
    FormatError,
    InfeasibleError,
    MultiChannelRecord,
    StackedSpectrum,
    TransformConfig,
    ValidationError,
    WidebandSignal,
    output_length,
    validate_record,
)
from bandstack.mapping import apply_stacking, build_band_plan, stack_fast
from bandstack.sidecar import SidecarHeader
from bandstack.transform import RoundtripReport, decode, encode, roundtrip_report

__version__ = "0.1.0"

__all__ = [
    "MODE_PAPER_COMPLEX",
    "MODE_REAL_HERMITIAN",
    "MODE_STRICT_LOSSLESS",
    "BandPlan",
    "BandstackError",
    "ChannelSpectrum",
    "CollisionError",
    "CollisionWarning",
    "DecodeError",
    "FormatError",
    "InfeasibleError",
    "MultiChannelRecord",
    "RoundtripReport",
    "SidecarHeader",
    "StackedSpectrum",
    "TransformConfig",
    "ValidationError",
    "WidebandSignal",
    "apply_stacking",
    "build_band_plan",
    "decode",
    "encode",
    "output_length",
    "roundtrip_report",
    "stack_fast",
    "validate_record",
    "__version__",
]
