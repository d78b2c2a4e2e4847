"""Dense multivariate Gaussians and the closed forms the package needs.

``GaussianDensity`` is a mean/covariance pair with a batched log density.
``block_diag_stack`` stacks independent parts; ``log_pool_gaussian_chain``
pools the three-submodel Gaussian chain by adding weighted precisions, and
``ratio_is_improper`` subtracts two precisions to test whether a ratio of
Gaussians is improper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalFailureError, StructureError

__all__ = [
    "GaussianDensity",
    "ratio_is_improper",
    "block_diag_stack",
    "log_pool_gaussian_chain",
]

# Relative floor on the smallest eigenvalue of a precision difference.
_PD_TOL = 1e-10
_COND_LIMIT = 1e12


def _check_cov(cov: np.ndarray, what: str) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape[0] != cov.shape[1]:
        raise StructureError(f"{what}: covariance must be square, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10 * max(1.0, np.abs(cov).max())):
        raise StructureError(f"{what}: covariance is not symmetric")
    return cov


def _precision(cov: np.ndarray, what: str) -> np.ndarray:
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= 0:
        raise NumericalFailureError(f"{what}: covariance is not positive definite")
    if eigs[-1] / eigs[0] > _COND_LIMIT:
        raise NumericalFailureError(
            f"{what}: covariance condition number {eigs[-1] / eigs[0]:.2e} exceeds limit"
        )
    inv_chol = _inverse_factor(cov)
    return inv_chol.T @ inv_chol


def _inverse_factor(a: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of a positive definite ``a``: a^-1 = L^-T L^-1."""
    return np.linalg.inv(np.linalg.cholesky(a))


def _improper(prec: np.ndarray) -> bool:
    """The smallest eigenvalue is at most ``_PD_TOL`` relative to the largest magnitude."""
    eigs = np.linalg.eigvalsh(prec)
    return eigs[0] <= _PD_TOL * max(1.0, float(np.abs(eigs).max()))


def _from_precision(prec: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """N(prec^-1 shift, prec^-1) for a positive definite ``prec``, covariance symmetrized."""
    inv_chol = _inverse_factor(prec)
    cov = inv_chol.T @ inv_chol
    return GaussianDensity(inv_chol.T @ (inv_chol @ shift), 0.5 * (cov + cov.T))


@dataclass(frozen=True)
class GaussianDensity:
    """Mean/covariance pair with a vectorized log density."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = _check_cov(self.cov, "GaussianDensity")
        if cov.shape[0] != mean.shape[0]:
            raise StructureError(
                f"mean dim {mean.shape[0]} does not match cov dim {cov.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @functools.cached_property
    def _whitener(self) -> tuple[np.ndarray, float]:
        """Transposed inverse Cholesky factor and the log-normalizer, computed on first use."""
        chol = np.linalg.cholesky(self.cov)
        log_norm = -0.5 * (self.dim * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol))))
        return np.linalg.inv(chol).T, float(log_norm)

    def logpdf(self, x: np.ndarray):
        """Normalized log density of points of shape ``(..., d)``: an array of
        their batch shape, or a float for one point."""
        inv_chol_t, log_norm = self._whitener
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.mean.shape:
            raise StructureError(f"logpdf needs points of shape (..., {self.dim}), got {x.shape}")
        z = (x - self.mean) @ inv_chol_t
        out = log_norm - 0.5 * np.einsum("...i,...i->...", z, z)
        return float(out) if out.ndim == 0 else out


def ratio_is_improper(nu: GaussianDensity, de: GaussianDensity) -> bool:
    """Whether the ratio nu / de of Gaussian densities is improper: its precision
    difference is not positive definite."""
    if nu.dim != de.dim:
        raise StructureError(f"dim mismatch: {nu.dim} vs {de.dim}")
    prec = _precision(nu.cov, "gaussian_ratio numerator") - \
        _precision(de.cov, "gaussian_ratio denominator")
    return _improper(0.5 * (prec + prec.T))


def block_diag_stack(parts: Sequence[GaussianDensity]) -> GaussianDensity:
    """Independent stack: concatenated mean, block-diagonal covariance."""
    if len(parts) < 1:
        raise StructureError("need at least one part to stack")
    mean = np.concatenate([p.mean for p in parts])
    cov = np.zeros((mean.size, mean.size))
    start = 0
    for p in parts:
        cov[start : start + p.dim, start : start + p.dim] = p.cov
        start += p.dim
    return GaussianDensity(mean, cov)


def log_pool_gaussian_chain(
    g1: GaussianDensity,
    g2: GaussianDensity,
    g3: GaussianDensity,
    lam: Sequence[float],
) -> GaussianDensity:
    """Closed-form logarithmic pooling of the three-submodel Gaussian chain.

    ``g1`` and ``g3`` are the end marginals over the first and second shared
    blocks, ``g2`` the middle submodel's joint over both.  Accumulates
    weighted precisions on the full (block 1, block 2) space, so zero
    weights are permitted as long as the result stays proper.
    """
    lam = [float(w) for w in lam]
    if len(lam) != 3 or any(w < 0 for w in lam):
        raise ValueError("need three nonnegative weights")
    d1, d3 = g1.dim, g3.dim
    d = d1 + d3
    if g2.dim != d:
        raise StructureError(f"middle density dim {g2.dim} != {d1} + {d3}")
    prec = np.zeros((d, d))
    shift = np.zeros(d)
    if lam[0] > 0:
        p = lam[0] * _precision(g1.cov, "log_pool end 1")
        prec[:d1, :d1] += p
        shift[:d1] += p @ g1.mean
    if lam[2] > 0:
        p = lam[2] * _precision(g3.cov, "log_pool end 3")
        prec[d1:, d1:] += p
        shift[d1:] += p @ g3.mean
    if lam[1] > 0:
        p = lam[1] * _precision(g2.cov, "log_pool middle")
        prec += p
        shift += p @ g2.mean
    if _improper(prec):
        raise NumericalFailureError("pooled precision is not positive definite")
    return _from_precision(prec, shift)
