"""Implicit Euler simulation of the stable linear lattice equation.

The equation du = (f(x) + p) u dt + sigma dW is discretized on a
uniform interior mesh with the drift treated implicitly, so the update

    u_next = (u + sigma * dW) / (1 - (f + p) * dt)

is unconditionally stable.  The lattice points are not coupled: the
drift acts by multiplication, so every mesh point is an independent
autoregressive chain of order one, and the stationary variance of any
linear observable is available in closed form, which
``predict_discrete_variance`` evaluates.

``run`` estimates the same quantity from trajectories.  Only the points
on the window support reach the projection, and points with one drift
value share one multiplier, so the weighted sum of the points in each
such group is itself an AR(1) chain, driven by the weighted sum of
their noise.  ``run`` steps one chain per distinct drift value: with
identity noise that sum is one normal per chain scaled by the root of
its summed squared weights, with rank-M noise it is the M mode normals
through the weight-summed basis rows.  The projection is the sum of
the chains, exact in distribution.  Time advances in blocks of steps,
all replicas together as one (replicas, chains) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# noise_increment is unused here but stays importable from this module:
# perfbench/test_harness.py checks that the tracer wraps it here.
from .noise import NoiseModel, noise_increment  # noqa: F401
from .quadrature import TestFunction
from .symbols import Symbol, as_finite

# Working-set budget of the simulation and prediction kernels: the
# number of steps (or prediction rows) per block is derived from it so
# a block of draws and states stays near 1 MB at any mesh size.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class Mesh:
    """Uniform interior lattice on [-half_width, half_width]**dim.

    Along each axis the points are r_i = L (2 i - (n + 1)) / (n + 1)
    for i = 1..n, so the boundary points are excluded and the spacing
    is h = 2 L / (n + 1).  The integer numerator makes the points
    exactly antisymmetric, r_(n+1-i) = -r_i bit for bit, so symmetric
    drifts give equal values at mirrored points.
    """

    half_width: float
    n: int
    dim: int = 1

    def __post_init__(self):
        if as_finite(self.half_width, "half_width") <= 0:
            raise ValueError("half_width must be positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.dim not in (1, 2):
            raise ValueError("meshes are supported in one and two dimensions")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n + 1)

    @property
    def size(self) -> int:
        return self.n**self.dim

    def axis_points(self) -> np.ndarray:
        i = np.arange(1, self.n + 1)
        return self.half_width * (2 * i - (self.n + 1)) / (self.n + 1)

    def grid(self) -> np.ndarray:
        """All mesh points, flattened to shape (size,) or (size, dim)."""
        axis = self.axis_points()
        if self.dim == 1:
            return axis
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([xs.ravel(), ys.ravel()], axis=-1)


def step(u, drift, dt: float, increment, sigma: float):
    """One implicit Euler update: (u + sigma * increment) / (1 - drift * dt)."""
    return (u + sigma * increment) / (1.0 - drift * dt)


def projection_weights(g: TestFunction, mesh: Mesh, unweighted: bool = False):
    """Mesh indices inside the window and their projection weights.

    The default weights are h**dim * g(r_i), a quadrature-consistent
    discretization of the pairing with g; ``unweighted`` drops the cell
    factor and reproduces the bare lattice sum over the window, whose
    scale grows with refinement.
    """
    pts = mesh.grid()
    gvals = np.asarray(g(pts), dtype=float)
    idx = np.nonzero(gvals > 0.0)[0]
    if idx.size == 0:
        raise ValueError("the window has no support on the mesh")
    weights = gvals[idx] if unweighted else mesh.h**mesh.dim * gvals[idx]
    return idx, weights


def project(u, g: TestFunction, mesh: Mesh, unweighted: bool = False) -> float:
    """Project a state vector onto the window observable."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.size,):
        raise ValueError(f"state must have shape ({mesh.size},)")
    idx, w = projection_weights(g, mesh, unweighted)
    return float(w @ u[idx])


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation estimate."""

    symbol: Symbol
    g: TestFunction
    p: float
    mesh: Mesh
    dt: float
    nt: int
    sigma: float = 1.0
    burn_in: int | None = None
    replicas: int = 2
    seed: int = 0
    noise: NoiseModel | None = None
    batches: int = 32
    unweighted: bool = False

    def __post_init__(self):
        for name in ("p", "dt", "sigma"):
            as_finite(getattr(self, name), name)
        if self.p >= 0:
            raise ValueError("p must be negative")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.nt < 10:
            raise ValueError("nt must be at least 10")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.batches < 2:
            raise ValueError("batches must be at least 2")
        if self.symbol.dim != self.mesh.dim or self.g.dim != self.mesh.dim:
            raise ValueError("symbol, window and mesh dimensions must agree")
        if self.noise is not None and self.noise.size != self.mesh.size:
            raise ValueError("noise model size must match the mesh")
        if self.burn_in is not None and not 0 <= self.burn_in < self.nt:
            raise ValueError("burn_in must lie in [0, nt)")


@dataclass(frozen=True)
class VarianceEstimate:
    """Estimated stationary variance of the window observable.

    ``stderr`` is the larger of the within-replica batch-means error
    and the across-replica spread, both propagated to the replica
    average; ``effective_samples`` counts the batches that entered it.
    """

    mean: float
    variance: float
    stderr: float
    effective_samples: int
    replica_variances: tuple[float, ...]


def _drift_vector(config: SimConfig) -> np.ndarray:
    pts = config.mesh.grid()
    drift = np.asarray(config.symbol(pts), dtype=float) + config.p
    if np.max(drift) >= 0:
        raise ValueError("drift is not strictly stable on the mesh")
    return drift


def _auto_burn_in(config: SimConfig, drift: np.ndarray, support: np.ndarray) -> int:
    # run until the slowest window mode has forgotten its start:
    # exp(2 * lam_max * t) < 1e-4
    lam_max = float(np.max(drift[support]))
    t_relax = math.log(1e4) / (2.0 * abs(lam_max))
    return min(int(math.ceil(t_relax / config.dt)), config.nt - 1)


def _batch_count(config: SimConfig, drift: np.ndarray, support: np.ndarray, n_kept: int) -> int:
    # cap the batch count so each batch spans several correlation times
    lam_max = float(np.max(drift[support]))
    tau_steps = max(1.0 / (abs(lam_max) * config.dt), 1.0)
    by_correlation = int(n_kept / (5.0 * tau_steps))
    return int(min(config.batches, max(2, by_correlation)))


def predict_discrete_variance(config: SimConfig) -> float:
    """Exact stationary variance of the discretized window observable.

    Each mesh point is the chain u' = a (u + sigma dW) with
    a = 1/(1 - lam dt), so a mode with intensity c has stationary
    variance sigma**2 c dt a**2/(1 - a**2) = sigma**2 c/(2|lam| +
    lam**2 dt).  Identity noise sums this over the window with squared
    projection weights; a rank-M model routes the mode covariance
    through the same per-point factors, one block of support rows at a
    time so memory stays bounded for large windows.
    """
    drift = _drift_vector(config)
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    lam = drift[idx]
    model = config.noise
    if model is None or model.is_identity:
        return float(config.sigma**2 * np.sum(w**2 / (2.0 * np.abs(lam) + lam**2 * config.dt)))
    a = 1.0 / (1.0 - lam * config.dt)
    basis = model.basis[idx, :]
    scaled = basis * model.eigenvalues
    rows = max(1, _BLOCK_BYTES // (8 * idx.size))
    total = 0.0
    for lo in range(0, idx.size, rows):
        part = slice(lo, lo + rows)
        cov = scaled[part] @ basis.T
        pair = np.outer(a[part], a)
        stationary = config.sigma**2 * config.dt * cov * pair / (1.0 - pair)
        total += w[part] @ stationary @ w
    return float(total)


def _lumped_chains(drift, idx, w, model: NoiseModel):
    """Drifts of the chains, one per distinct drift value on the support
    (``np.unique`` order), and the map from one step's normals to each
    chain's weighted noise: per-chain scales sqrt(sum w**2) for identity
    noise, or the (M, chains) weight-summed basis rows times
    sqrt(eigenvalues) for rank-M noise.  A step draws mix.shape[0] normals.
    """
    lam, group = np.unique(drift[idx], return_inverse=True)
    if model.is_identity:
        return lam, np.sqrt(np.bincount(group, w**2))
    rows = np.zeros((lam.size, model.rank))
    np.add.at(rows, group, w[:, None] * model.basis[idx])
    return lam, (rows * np.sqrt(model.eigenvalues)).T


def _steps_per_block(replicas: int, chains: int, draws: int) -> int:
    # one step holds a row of draws and a state row per replica
    return max(1, _BLOCK_BYTES // (8 * (replicas * chains + draws)))


def run(config: SimConfig) -> VarianceEstimate:
    """Estimate the stationary window variance from simulated trajectories.

    Replicas evolve independently from u = 0 with per-replica random
    streams split off the configured seed, so equal seeds give
    identical estimates.  All replicas advance together, one chain per
    distinct drift value on the window support (see the module
    docstring), a block of steps at a time, with the arithmetic of
    ``step``.  After the burn-in the projection, the sum of the chains,
    is recorded every step; each replica reports the sample variance of
    its series and a batch-means standard error.
    """
    drift = _drift_vector(config)
    idx, w = projection_weights(config.g, config.mesh, config.unweighted)
    model = config.noise if config.noise is not None else NoiseModel.identity(config.mesh.size)
    burn = config.burn_in if config.burn_in is not None else _auto_burn_in(config, drift, idx)
    n_kept = config.nt - burn
    if n_kept < 10:
        lam_max = float(np.max(drift[idx]))
        need = int(math.ceil(math.log(1e4) / (2.0 * abs(lam_max)) / config.dt)) + 10
        raise ValueError(
            f"fewer than 10 recorded steps after burn-in; the slowest window "
            f"mode relaxes at rate {lam_max:g}, raise nt to at least {need}")
    n_batches = _batch_count(config, drift, idx, n_kept)

    r = config.replicas
    rngs = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(config.seed, spawn_key=(rep,)))) for rep in range(r)]
    lam, mix = _lumped_chains(drift, idx, w, model)
    sqrt_dt = np.sqrt(config.dt)
    denom = 1.0 - lam * config.dt
    chunk = _steps_per_block(r, lam.size, mix.shape[0])
    block = np.empty((chunk, r, lam.size))
    u = np.zeros((r, lam.size))
    series = np.empty((r, n_kept))
    for start in range(0, config.nt, chunk):
        k = min(chunk, config.nt - start)
        for rep in range(r):
            xi = rngs[rep].standard_normal((k, mix.shape[0]))
            block[:k, rep] = xi * mix if mix.ndim == 1 else xi @ mix
        # sqrt(dt), then sigma, then the division, in the order of
        # noise_increment and step: every chain state matches the
        # one-step update of that chain bit for bit
        block[:k] *= sqrt_dt
        block[:k] *= config.sigma
        prev = u
        for row in block[:k]:
            row += prev
            row /= denom
            prev = row
        u[...] = prev
        first = max(burn - start, 0)
        if first < k:
            series[:, start + first - burn:start + k - burn] = block[first:k].sum(axis=-1).T

    replica_vars = []
    replica_errs = []
    replica_means = []
    for values in series:
        replica_means.append(float(np.mean(values)))
        replica_vars.append(float(np.var(values, ddof=1)))
        usable = (n_kept // n_batches) * n_batches
        blocks = values[:usable].reshape(n_batches, -1)
        block_vars = np.var(blocks, axis=1, ddof=1)
        replica_errs.append(float(np.std(block_vars, ddof=1) / math.sqrt(n_batches)))

    variance = float(np.mean(replica_vars))
    se_within = math.sqrt(sum(e**2 for e in replica_errs)) / r
    se_between = float(np.std(replica_vars, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    return VarianceEstimate(
        mean=float(np.mean(replica_means)),
        variance=variance,
        stderr=max(se_within, se_between),
        effective_samples=r * n_batches,
        replica_variances=tuple(replica_vars),
    )
