"""Compositional-reasoning forecasting benchmark.

Builds the spectral forecasting task (train on a series' top-k Fourier
basis sinusoids, test zero-shot on the composed series), trains a
desk-scale zoo of forecasting models, and evaluates them with MAE,
basis-win metrics, rank statistics, and representation similarity.
"""
from __future__ import annotations

from . import errors
from .series import ForecastTask, TimeSeries, Windows, make_windows
from .spectral import (
    SpectralDecomposition,
    basis_series,
    dft,
    partial_sum,
    reconstruct_full,
    sorted_components,
    top_k_components,
)
from .synthgen import (
    SinusoidKind,
    SinusoidSpec,
    SyntheticDataset,
    SyntheticVariant,
    TrendSpec,
    gen_sinusoid,
    gen_sinusoid_dataset,
    gen_trend,
    gen_trend_dataset,
)
from .preprocess import (
    AdfReport,
    Segment,
    adf_test,
    load_csv,
    mean_acf,
    segment,
    select_series,
    write_csv,
)
from .evaluation import (
    BasisWinReport,
    CdAnalysis,
    FriedmanResult,
    ScoreMatrix,
    basis_win_report,
    cd_analysis,
    friedman,
    holm_correct,
    linear_cka,
    mae,
    topk_basis_win,
    topk_max,
    wilcoxon_signed_rank,
)
from . import models
from . import harness
from .harness.runner import SplitDataset, split_windows

__version__ = "0.1.0"

__all__ = [
    "errors",
    "TimeSeries", "ForecastTask", "Windows", "SplitDataset", "make_windows",
    "split_windows",
    "SpectralDecomposition", "dft", "reconstruct_full",
    "sorted_components", "top_k_components", "basis_series", "partial_sum",
    "SinusoidKind", "SinusoidSpec", "TrendSpec", "SyntheticVariant",
    "SyntheticDataset", "gen_sinusoid", "gen_trend", "gen_sinusoid_dataset",
    "gen_trend_dataset",
    "Segment", "AdfReport", "load_csv", "write_csv", "segment", "adf_test",
    "mean_acf", "select_series",
    "ScoreMatrix", "BasisWinReport", "FriedmanResult", "CdAnalysis",
    "mae", "topk_basis_win", "topk_max", "basis_win_report", "friedman",
    "wilcoxon_signed_rank", "holm_correct", "cd_analysis", "linear_cka",
    "models", "harness",
    "__version__",
]
