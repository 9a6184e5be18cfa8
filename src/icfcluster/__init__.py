"""Kernel k-means clustering on incomplete Cholesky factors of the Gram matrix."""

from .baselines import approx_kkmeans, chol_embedding, nystrom_embedding, rff_embedding
from .cluster import ClusterModel, kmeans_pp_init, lloyd, oracle_embedding, psd_embedding
from .data import Dataset, ParseError, gen_synthetic, parse_libsvm, standardize, to_libsvm
from .evaluate import (ALGORITHMS, CSV_HEADER, BenchmarkConfig,
                       BenchmarkReport, BenchmarkRow, accuracy, bound_gap,
                       fit_decay, run_benchmark, trace_objective)
from .icf import (BreakdownError, IcfFactor, dump_factor, icf_factorize,
                  parse_factor_dump, reconstruct, residual_trace)
from .kernel import (DEFAULT_GUARD, KernelSpec, full_gram, kernel_column,
                     kernel_diag, kernel_eval)

__all__ = [
    "ALGORITHMS",
    "BenchmarkConfig",
    "BenchmarkReport",
    "BenchmarkRow",
    "BreakdownError",
    "CSV_HEADER",
    "ClusterModel",
    "Dataset",
    "DEFAULT_GUARD",
    "IcfFactor",
    "KernelSpec",
    "ParseError",
    "accuracy",
    "approx_kkmeans",
    "bound_gap",
    "chol_embedding",
    "dump_factor",
    "fit_decay",
    "full_gram",
    "gen_synthetic",
    "icf_factorize",
    "kernel_column",
    "kernel_diag",
    "kernel_eval",
    "kmeans_pp_init",
    "lloyd",
    "nystrom_embedding",
    "oracle_embedding",
    "parse_factor_dump",
    "parse_libsvm",
    "psd_embedding",
    "reconstruct",
    "residual_trace",
    "rff_embedding",
    "run_benchmark",
    "standardize",
    "to_libsvm",
    "trace_objective",
]
