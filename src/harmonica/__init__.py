"""Multi-layer convolutional kernels on products of spheres.

Builds the kernel associated with a convolutional network, computes its
exact Mercer spectrum over products of spherical harmonics, validates the
eigenvalue decay and interaction-order structure against independent
oracles, and runs regularized least-squares experiments.
"""

__version__ = "0.1.0"

from .activations import ActivationSpec, activation, majorant_series
from .image import (Image, PatchConfig, extract_patches, sample_uniform,
                    unit_patches)
from .kernel import KernelSpec, TruncationConfig, build_kernel, eval_kernel, gram
from .krr import Dataset, FitResult, Schedule, rls_fit, schedule_lambda
from .spectrum import (LambdaTable, Spectrum, enumerate_spectrum,
                       fit_decay, lambda_table, mu_eigenvalue)
from .taylor import CoeffSeries, cauchy_product, compose, eval_series, power

__all__ = [
    "ActivationSpec", "activation", "majorant_series",
    "Image", "PatchConfig", "extract_patches", "sample_uniform", "unit_patches",
    "KernelSpec", "TruncationConfig", "build_kernel", "eval_kernel", "gram",
    "Dataset", "FitResult", "Schedule", "rls_fit", "schedule_lambda",
    "LambdaTable", "Spectrum", "enumerate_spectrum", "fit_decay",
    "lambda_table", "mu_eigenvalue",
    "CoeffSeries", "cauchy_product", "compose", "eval_series", "power",
    "__version__",
]
