"""Finite-rank noise models for the lattice simulation.

The driving noise is either identity-covariance (an independent
Gaussian increment per mesh point) or a rank-M model built from M
orthonormal directions supported on the observation window, with
per-direction intensities drawn uniformly from [0.5, 2].  The basis is
Haar distributed: the thin QR of a support x M Gaussian matrix, with the
sign convention that makes the triangular factor's diagonal positive,
has the law of the first M columns of a Haar matrix (Mezzadri, "How to
generate random matrices from the classical compact groups", Notices
AMS 54, 2007), so it takes support x M memory.  Every draw goes through
``as_generator``, the one place that names a bit generator (``SFC64``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-10


def as_generator(seed) -> np.random.Generator:
    """Build an ``SFC64`` generator from an int or a ``SeedSequence``, or
    pass a ``Generator`` through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.SFC64(seed))


def sample_eigenvalues(m: int, seed=0) -> np.ndarray:
    """Draw m covariance intensities uniformly from [0.5, 2]."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be at least 1")
    rng = as_generator(seed)
    return rng.uniform(0.5, 2.0, size=m)


def _haar_columns(n: int, m: int, rng) -> np.ndarray:
    """The first m columns of an n x n Haar orthogonal matrix.

    Thin QR of an n x m standard Gaussian matrix, with column signs
    fixed so the triangular factor has a positive diagonal; without that
    correction the factorization's sign ambiguity breaks uniformity.
    """
    basis, tri = np.linalg.qr(rng.standard_normal((n, m)))
    signs = np.sign(np.diag(tri))
    signs[signs == 0] = 1.0
    return basis * signs


def sample_haar_basis(m: int, seed=0) -> np.ndarray:
    """Draw an m x m orthogonal matrix from the Haar distribution."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be at least 1")
    return _haar_columns(m, m, as_generator(seed))


@dataclass(frozen=True)
class NoiseModel:
    """Covariance description of the driving noise on a mesh of given size.

    ``eigenvalues`` and ``basis`` are both None for identity covariance.
    Otherwise ``basis`` has orthonormal columns embedded into the mesh
    (zero off the window support) and ``eigenvalues`` holds the
    per-column intensities.
    """

    size: int
    eigenvalues: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if (self.eigenvalues is None) != (self.basis is None):
            raise ValueError("eigenvalues and basis must be given together")
        if self.basis is not None:
            basis = np.asarray(self.basis, dtype=float)
            eig = np.asarray(self.eigenvalues, dtype=float)
            if basis.ndim != 2 or basis.shape[0] != self.size:
                raise ValueError(f"basis must have shape ({self.size}, M)")
            if eig.shape != (basis.shape[1],):
                raise ValueError("eigenvalues must match the number of basis columns")
            if np.any(eig <= 0):
                raise ValueError("eigenvalues must be positive")
            # rows off the support are zero and add nothing to the Gram
            active = basis[np.any(basis, axis=1)]
            gram = active.T @ active
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > _ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal")
            object.__setattr__(self, "basis", basis)
            object.__setattr__(self, "eigenvalues", eig)

    @property
    def rank(self) -> int:
        return self.size if self.basis is None else self.basis.shape[1]

    @property
    def is_identity(self) -> bool:
        return self.basis is None

    def covariance(self) -> np.ndarray:
        """Dense covariance of a unit-time increment."""
        if self.is_identity:
            return np.eye(self.size)
        return (self.basis * self.eigenvalues) @ self.basis.T

    @classmethod
    def identity(cls, size: int) -> "NoiseModel":
        return cls(size=int(size))


def build_noise_model(size: int, support_indices, m: int | None = None, seed=0) -> NoiseModel:
    """Rank-M noise supported on the given mesh indices.

    Draws intensities and the first m columns of a Haar basis of
    dimension equal to the support size, and embeds them into the full
    mesh by zero extension: modes act only where the observation window
    is active.
    """
    support = np.asarray(support_indices, dtype=int)
    if support.ndim != 1 or support.size == 0:
        raise ValueError("support_indices must be a nonempty index vector")
    if np.any(support < 0) or np.any(support >= size):
        raise ValueError("support indices out of mesh range")
    if np.unique(support).size != support.size:
        raise ValueError("support indices must be distinct")
    n_support = support.size
    if m is None:
        m = n_support
    m = int(m)
    if not 1 <= m <= n_support:
        raise ValueError(f"m must lie in [1, {n_support}]")
    rng = as_generator(seed)
    eig = sample_eigenvalues(m, rng)
    basis = np.zeros((size, m))
    basis[support, :] = _haar_columns(n_support, m, rng)
    return NoiseModel(size=int(size), eigenvalues=eig, basis=basis)


def noise_increment(model: NoiseModel, dt: float, rng) -> np.ndarray:
    """One increment of the driving noise over a step of length dt.

    sqrt(dt) times a draw from the model covariance; dt = 0 degenerates
    to the zero vector while still consuming the same random draws, so
    streams stay aligned across step sizes.
    """
    dt = float(dt)
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    rng = as_generator(rng)
    if model.is_identity:
        return np.sqrt(dt) * rng.standard_normal(model.size)
    xi = rng.standard_normal(model.rank)
    return np.sqrt(dt) * (model.basis @ (np.sqrt(model.eigenvalues) * xi))
