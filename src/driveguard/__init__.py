"""EEG distracted-driving detection toolkit.

End-to-end pipeline for single- and multi-electrode EEG recordings:
binary packet ingestion, band-power and wavelet feature extraction,
distraction-index scoring, classifier training and evaluation,
nonparametric statistics, a streaming alert engine with per-subject
calibration, and a seeded synthetic data generator for testing.
"""

from .errors import DriveGuardError, ParameterError, ValidationError
from .model import (
    ADC_MAX,
    ADC_MIN,
    BAND_NAMES,
    DEFAULT_TRIAL_SECONDS,
    DISTRACTION_TASKS,
    EPOC_CHANNELS,
    BandPowers,
    Device,
    EegSample,
    FeatureVector,
    SubjectSession,
    TaskLabel,
    TrialSplitError,
    TrialWindow,
    split_into_trials,
    trial_stack,
)
from .protocol import (
    PacketError,
    PacketParser,
    RawPacket,
    SessionFormatError,
    UV_PER_COUNT,
    VOLTS_PER_COUNT,
    checksum,
    encode_packet,
    packets_to_samples,
    raw_to_microvolts,
    read_arff,
    read_manifest,
    read_session,
    session_to_packets,
    write_arff,
    write_session,
)
from .wavelet import (
    WaveletDecomposition,
    dwt_db8,
    idwt_db8,
    max_decomposition_level,
)
from .dsp import (
    BANDS,
    BandDefinition,
    ResolutionError,
    Spectrogram,
    band_powers_fft,
    band_powers_from_samples,
    build_feature_vector,
    feature_vectors_from_sessions,
    periodogram,
    spectrogram_csv,
    stft_spectrogram,
    wavelet_band_features,
)
from .index import (
    CoverageError,
    TaskRanking,
    UndefinedIndexError,
    distraction_index,
    rank_tasks,
)
from .classify import (
    DivergenceError,
    EvalReport,
    FIVE_CLASS,
    GnbModel,
    MlpConfig,
    MlpModel,
    StratificationError,
    TWO_CLASS,
    auc,
    kfold_evaluate,
    make_fold_plan,
    multiclass_auc,
    predict_gnb,
    predict_mlp,
    train_gnb,
    train_mlp,
    vectors_to_dataset,
)
from .stats import (
    DegenerateDataError,
    TestReport,
    friedman,
    load_table5,
    load_table6,
    posthoc_wilcoxon_bonferroni,
    table5_report,
    table6_reports,
    wilcoxon_signed_rank,
)
from .stream import (
    AlertEvent,
    CalibrationError,
    CalibrationProfile,
    CalibrationResult,
    DetectorState,
    SequencingError,
    calibrate_thresholds,
    evaluate_profile,
    feed_block,
    process_sample,
    replay_session,
    stream_samples,
    stream_session,
)
from .synth import (
    BurstSpec,
    ClippingError,
    GeneratorSpec,
    PinkNoiseSpec,
    expected_band_power,
    expected_band_power_sd,
    generate_benchmark_suite,
    generate_session,
)

__version__ = "0.1.0"
