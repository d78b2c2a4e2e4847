"""Gaussian summaries of stage-one output and the approximate melded target.

Stage-one draws for the two end submodels are summarized as Gaussians over
their shared blocks (the end nuisance parameters are integrated out simply
by ignoring their columns).  The approximate target is the ordinary
stage-two target of the middle submodel, with each end's stage-one
subposterior replaced by its fitted Gaussian, so it is the melded posterior
of whatever pool and factorization the stage-one draws came from, up to the
Gaussian fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chain import ChainModel, PhiBlock, checked
from .errors import NumericalFailureError, StructureError, UnsupportedConfigError
from .gaussian import GaussianDensity, block_diag_stack, ratio_is_improper
from .pooling import PoolFactorization, merge_term, neg_inf_policy
from .samplers import SampleStore

__all__ = [
    "MomentDiagnostics",
    "fit_gaussian_moments",
    "moment_diagnostics",
    "build_normal_approx_target",
    "check_proper_ratio",
]

_JITTER = 1e-10


def fit_gaussian_moments(store: SampleStore) -> GaussianDensity:
    """Sample mean and unbiased covariance of the store's shared-block (phi) draws.

    Discrete coordinates are rejected; the covariance must be positive
    definite after a 1e-10 relative jitter.
    """
    data = store.phi
    if any(c.kind == "discrete" for c in store.phi_coords):
        raise UnsupportedConfigError(
            "Gaussian moment fitting requires continuous coordinates only"
        )
    d = data.shape[1]
    # Distinct rows are sought in prefixes of 64, 128, ... rows: a mixing
    # store shows d + 1 of them early, and only a nearly stuck one is sorted whole.
    rows = 64
    while np.unique(data[:rows], axis=0).shape[0] < d + 1:
        if rows >= data.shape[0]:
            raise NumericalFailureError(
                f"need at least {d + 1} distinct draws to fit a {d}-dimensional Gaussian"
            )
        rows *= 2
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


def moment_diagnostics(store: SampleStore) -> MomentDiagnostics:
    """Biased sample skewness and excess kurtosis of each phi column of the store."""
    data = store.phi
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


def check_proper_ratio(fit: GaussianDensity, subprior: GaussianDensity, block: PhiBlock) -> None:
    """Raise unless the fitted subposterior over ``block`` is more precise than its subprior.

    Under ``subprior-ends`` the target divides each end's fit by the end's
    subprior (the factor's -log p_e term).  When the fit's precision does
    not exceed the subprior's, that ratio is improper and the target may be
    too; when it does, the target is proper under every logarithmic pool.
    """
    if ratio_is_improper(fit, subprior):
        raise NumericalFailureError(
            f"subposterior/subprior ratio for shared block {block.label!r} "
            "is improper (precision difference not positive definite)"
        )


def build_normal_approx_target(
    model: ChainModel,
    factor: PoolFactorization,
    g1: GaussianDensity,
    g3: GaussianDensity,
) -> Callable[[np.ndarray], np.ndarray]:
    """Stage-two log target over rows z = (phi12, phi23, psi2), batched as (n, d) -> (n,).

    It is the middle submodel's stage-two target, log p2(phi, psi2, Y2) plus
    its pool factor ``factor.terms[1]`` with log p2(phi) divided out, times
    the fits ``g1`` and ``g3`` that stand in for the ends' stage-one
    subposteriors over phi12 and phi23.
    """
    if model.n_submodels != 3:
        raise UnsupportedConfigError("normal approximation is defined for M = 3 chains")
    b12, b23 = model.phi_blocks
    for block in (b12, b23):
        if any(c.kind == "discrete" for c in block.coords):
            raise UnsupportedConfigError(
                f"shared block {block.label!r} has discrete coordinates; "
                "the normal approximation requires continuous shared blocks"
            )
    if g1.dim != b12.dim:
        raise StructureError(f"end-1 summary must have dim {b12.dim}")
    if g3.dim != b23.dim:
        raise StructureError(f"end-3 summary must have dim {b23.dim}")

    spec2 = model.submodels[1]
    terms = merge_term(factor.terms[1], -1.0, spec2.eval_log_prior, (0, 1))
    gauss = block_diag_stack([g1, g3])
    edges = (0, b12.dim, b12.dim + b23.dim)
    d = edges[-1]
    joint, gauss_logpdf = spec2.eval_log_joint, gauss.logpdf
    parts = [(checked(t.fn, spec2.index, f"pool term over blocks {t.blocks}"), t.coef,
              slice(edges[t.blocks[0]], edges[t.blocks[-1] + 1])) for t in terms]

    def log_target(z: np.ndarray) -> np.ndarray:
        phi = z[:, :d]
        lj2 = joint(phi, z[:, d:])
        values = [fn(z[:, cols]) for fn, _, cols in parts]
        total = lj2 + gauss_logpdf(phi)
        with np.errstate(invalid="ignore"):
            for (_, coef, _), value in zip(parts, values):
                total = total + coef * value
        # The sum of squares is finite exactly when every value is, unless one
        # overflows, which only takes the slower path.
        if not math.isfinite(total.dot(total)):
            total = neg_inf_policy(terms, values, total, zero=np.isneginf(lj2))
        return total

    return log_target
