"""Closed-form products, powers, and ratios of multivariate Gaussians.

Everything here works through the precision parameterization: products add
precisions, powers scale them, and ratios subtract them.  Ratios can leave
the precision indefinite, in which case an ``ImproperGaussianRatio`` is
returned carrying the offending precision so the caller can decide what to
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
import scipy.linalg

from .errors import NumericalFailureError, StructureError

__all__ = [
    "GaussianDensity",
    "ImproperGaussianRatio",
    "gaussian_power",
    "gaussian_product",
    "gaussian_ratio_product",
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
    cho = scipy.linalg.cho_factor(cov, lower=True)
    return scipy.linalg.cho_solve(cho, np.eye(cov.shape[0]))


def _improper(prec: np.ndarray) -> bool:
    """The smallest eigenvalue is at most ``_PD_TOL`` relative to the largest magnitude."""
    eigs = np.linalg.eigvalsh(prec)
    return eigs[0] <= _PD_TOL * max(1.0, float(np.abs(eigs).max()))


def _from_precision(prec: np.ndarray, shift: np.ndarray) -> GaussianDensity:
    """N(prec^-1 shift, prec^-1) for a positive definite ``prec``, covariance symmetrized."""
    cho = scipy.linalg.cho_factor(prec, lower=True)
    cov = scipy.linalg.cho_solve(cho, np.eye(prec.shape[0]))
    mean = scipy.linalg.cho_solve(cho, shift)
    return GaussianDensity(mean, 0.5 * (cov + cov.T))


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

    def _whitener(self) -> tuple[np.ndarray, float]:
        """Inverse Cholesky factor and log-normalizer, computed on first use."""
        cached = self.__dict__.get("_cached_whitener")
        if cached is None:
            chol = scipy.linalg.cholesky(self.cov, lower=True)
            inv_chol = scipy.linalg.solve_triangular(chol, np.eye(self.dim), lower=True)
            log_norm = -0.5 * (
                self.dim * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(chol)))
            )
            cached = (inv_chol, float(log_norm))
            self.__dict__["_cached_whitener"] = cached
        return cached

    def logpdf(self, x: np.ndarray):
        """Normalized log density; accepts shape ``(..., d)``."""
        inv_chol, log_norm = self._whitener()
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            z = inv_chol @ (x.reshape(self.dim) - self.mean)
            return log_norm - 0.5 * float(z @ z)
        z = (x.reshape(-1, self.dim) - self.mean) @ inv_chol.T
        out = log_norm - 0.5 * np.einsum("ij,ij->i", z, z)
        return out.reshape(x.shape[:-1])


@dataclass(frozen=True)
class ImproperGaussianRatio:
    """Result of a density ratio whose precision is not positive definite.

    ``precision`` is the (indefinite or singular) precision difference and
    ``shift`` the corresponding linear term, so callers can still evaluate
    the unnormalized log ratio if they want to.
    """

    precision: np.ndarray
    shift: np.ndarray


def gaussian_power(g: GaussianDensity, lam: float) -> GaussianDensity:
    """N(mu, Sigma)^lam is proportional to N(mu, Sigma / lam)."""
    if lam <= 0:
        raise ValueError(f"power weight must be positive, got {lam}")
    return GaussianDensity(g.mean, g.cov / lam)


def gaussian_product(a: GaussianDensity, b: GaussianDensity) -> GaussianDensity:
    """Product of two Gaussian densities (precision-additive)."""
    if a.dim != b.dim:
        raise StructureError(f"dim mismatch: {a.dim} vs {b.dim}")
    pa = _precision(a.cov, "gaussian_product lhs")
    pb = _precision(b.cov, "gaussian_product rhs")
    return _from_precision(pa + pb, pa @ a.mean + pb @ b.mean)


def gaussian_ratio_product(
    nu: GaussianDensity, de: GaussianDensity
) -> Union[GaussianDensity, ImproperGaussianRatio]:
    """Ratio nu / de of Gaussian densities.

    Proper only when the precision difference is positive definite;
    otherwise the indefinite precision is returned for the caller to
    inspect.
    """
    if nu.dim != de.dim:
        raise StructureError(f"dim mismatch: {nu.dim} vs {de.dim}")
    pn = _precision(nu.cov, "gaussian_ratio numerator")
    pd = _precision(de.cov, "gaussian_ratio denominator")
    prec = pn - pd
    prec = 0.5 * (prec + prec.T)
    shift = pn @ nu.mean - pd @ de.mean
    if _improper(prec):
        return ImproperGaussianRatio(prec, shift)
    return _from_precision(prec, shift)


def block_diag_stack(parts: Sequence[GaussianDensity]) -> GaussianDensity:
    """Independent stack: concatenated mean, block-diagonal covariance."""
    if len(parts) < 1:
        raise StructureError("need at least one part to stack")
    mean = np.concatenate([p.mean for p in parts])
    cov = scipy.linalg.block_diag(*[p.cov for p in parts])
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
