"""Gaussian summaries of stage-one output and the approximate melded target.

Stage-one draws for the two end submodels are summarized as Gaussians over
their shared blocks (the end nuisance parameters are integrated out simply
by ignoring their columns).  The approximate target multiplies the Gaussian
ratio (subposterior over subprior, stacked block-diagonally across the two
ends) into the middle submodel's joint density, assuming the pooled prior
defers to the middle submodel over the shared blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .chain import ChainModel
from .errors import NumericalFailureError, StructureError, UnsupportedConfigError
from .gaussian import (
    GaussianDensity,
    ImproperGaussianRatio,
    block_diag_stack,
    gaussian_ratio_product,
)
from .samplers import SampleStore

__all__ = [
    "MomentDiagnostics",
    "fit_gaussian_moments",
    "moment_diagnostics",
    "build_normal_approx_target",
]

_JITTER = 1e-10
MODES = ("ratio", "poe-flat-prior")


def _select_columns(store: SampleStore, selector) -> tuple[np.ndarray, tuple]:
    if isinstance(selector, str):
        if selector == "phi":
            return store.phi, store.phi_coords
        if selector == "psi":
            return store.psi, store.psi_coords
        if selector == "all":
            return store.draws, store.phi_coords + store.psi_coords
        raise StructureError(f"unknown block selector {selector!r}")
    idx = list(selector)
    coords = store.phi_coords + store.psi_coords
    return store.draws[:, idx], tuple(coords[i] for i in idx)


def fit_gaussian_moments(store: SampleStore, selector: Union[str, Sequence[int]] = "phi") -> GaussianDensity:
    """Sample mean and unbiased covariance of the selected columns.

    ``selector`` is ``"phi"``, ``"psi"``, ``"all"``, or explicit column
    indices into the concatenated (phi, psi) draw matrix.  Discrete
    coordinates are rejected; the covariance must be positive definite
    after a 1e-10 relative jitter.
    """
    data, coords = _select_columns(store, selector)
    if any(c.kind == "discrete" for c in coords):
        raise UnsupportedConfigError(
            "Gaussian moment fitting requires continuous coordinates only"
        )
    d = data.shape[1]
    if np.unique(data, axis=0).shape[0] < d + 1:
        raise NumericalFailureError(
            f"need at least {d + 1} distinct draws to fit a {d}-dimensional Gaussian"
        )
    mean = data.mean(axis=0)
    cov = np.cov(data, rowvar=False, ddof=1).reshape(d, d)
    scale = max(1.0, float(np.abs(cov).max()))
    jittered = cov + _JITTER * scale * np.eye(d)
    if np.linalg.eigvalsh(jittered)[0] <= 0:
        raise NumericalFailureError("sample covariance is degenerate")
    return GaussianDensity(mean, jittered)


@dataclass(frozen=True)
class MomentDiagnostics:
    """Per-coordinate shape diagnostics for judging Gaussian adequacy."""

    skewness: np.ndarray
    excess_kurtosis: np.ndarray


def moment_diagnostics(store: SampleStore, selector: Union[str, Sequence[int]] = "phi") -> MomentDiagnostics:
    """Biased sample skewness and excess kurtosis of each selected column."""
    data, _ = _select_columns(store, selector)
    mean = data.mean(axis=0)
    centered = data - mean
    m2 = np.mean(centered**2, axis=0)
    # A column constant up to rounding has no shape: report NaN.
    flat = m2 <= (np.finfo(float).eps * mean) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return MomentDiagnostics(
            skewness=np.where(flat, np.nan, np.mean(centered**3, axis=0) / m2**1.5),
            excess_kurtosis=np.where(flat, np.nan, np.mean(centered**4, axis=0) / m2**2 - 3.0),
        )


def build_normal_approx_target(
    model: ChainModel,
    g1_post: GaussianDensity,
    g1_prior: GaussianDensity,
    g3_post: GaussianDensity,
    g3_prior: GaussianDensity,
    mode: str = "ratio",
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Approximate melded log target over (phi12, phi23, psi2).

    In ``"ratio"`` mode the Gaussian factor is the stacked subposterior
    summaries divided by the stacked subprior summaries; the division must
    leave a proper Gaussian, otherwise an error names the offending shared
    block.  ``"poe-flat-prior"`` mode corresponds to uniform subpriors over
    the shared blocks and uses the subposterior stack directly.
    """
    if model.n_submodels != 3:
        raise UnsupportedConfigError("normal approximation is defined for M = 3 chains")
    if mode not in MODES:
        raise UnsupportedConfigError(f"unknown mode {mode!r}")
    b12, b23 = model.phi_blocks
    for block in (b12, b23):
        if any(c.kind == "discrete" for c in block.coords):
            raise UnsupportedConfigError(
                f"shared block {block.label!r} has discrete coordinates; "
                "the normal approximation requires continuous shared blocks"
            )
    if g1_post.dim != b12.dim or g1_prior.dim != b12.dim:
        raise StructureError(f"end-1 summaries must have dim {b12.dim}")
    if g3_post.dim != b23.dim or g3_prior.dim != b23.dim:
        raise StructureError(f"end-3 summaries must have dim {b23.dim}")

    if mode == "ratio":
        for g_post, g_prior, block in ((g1_post, g1_prior, b12), (g3_post, g3_prior, b23)):
            if isinstance(gaussian_ratio_product(g_post, g_prior), ImproperGaussianRatio):
                raise NumericalFailureError(
                    f"subposterior/subprior ratio for shared block {block.label!r} "
                    "is improper (precision difference not positive definite)"
                )
        gauss = gaussian_ratio_product(
            block_diag_stack([g1_post, g3_post]),
            block_diag_stack([g1_prior, g3_prior]),
        )
        if isinstance(gauss, ImproperGaussianRatio):
            raise NumericalFailureError(
                "stacked subposterior/subprior ratio is improper"
            )
    else:
        gauss = block_diag_stack([g1_post, g3_post])

    spec2 = model.submodels[1]

    def log_target(phi12: np.ndarray, phi23: np.ndarray, psi2: np.ndarray):
        """Batched over leading dimensions; a float for 1-D inputs."""
        phi = np.concatenate([np.atleast_1d(phi12), np.atleast_1d(phi23)], axis=-1)
        lj2 = spec2.eval_log_joint(phi, np.atleast_1d(np.asarray(psi2, dtype=float)))
        return gauss.logpdf(phi) + lj2

    log_target.gaussian_factor = gauss
    return log_target
