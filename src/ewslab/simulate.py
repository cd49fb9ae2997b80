"""Implicit Euler simulation of the stable linear lattice equation.

The equation du = (f(x) + p) u dt + sigma dW is discretized on a
uniform interior mesh with the drift treated implicitly, so the update

    u_next = (u + sigma * dW) / (1 - (f + p) * dt)

is unconditionally stable.  The lattice points are not coupled: the
drift acts by multiplication, so every mesh point is an independent
autoregressive chain of order one.  Only the points on the window
support reach the projection, and points with one symbol value share
one multiplier, so the weighted sum of the points in each such group is
itself an AR(1) chain, driven by the weighted sum of their noise.  These
chains, one per distinct symbol value (``_chains``), are the one model
of the simulation: with identity noise a chain's noise is one normal
scaled by the root of its summed squared weights, with rank-M noise it
is the M mode normals through the weight-summed basis rows.  The
projection is the sum of the chains, exact in distribution.

The chains are AR(1) with chain noise covariance C (per unit time), and
their stationary covariance is

    S_ij = sigma**2 C_ij / (|lam_i| + |lam_j| + lam_i lam_j dt),

the pair factor of ``_chain_covariance``.  ``predict_discrete_variance``
sums S, the exact stationary variance of the projection.  ``run``
estimates the same quantity from trajectories of the chains, a block of
steps at a time, all replicas together as one (replicas, chains) array.
A replica starts in the chains' exact stationary law N(0, S), through a
factor F with F F^T = S, wherever that is cheaper than forgetting a
start; the burn-in then runs no steps: it only shortens the recorded
series to nt - burn_in steps.  For identity noise F is a diagonal.  For
rank-M noise it is a dense chains x chains eigendecomposition, so a
config whose factor would outgrow the block budget, or cost more than
stepping the slowest mode's relaxation, starts at u = 0 instead and
steps its burn-in (``_starts_stationary``).

``run_sweep`` takes a grid of p in one pass.  The chains do not depend
on p, and every p draws the same normals (common random numbers): each
replica's start normals are drawn once and mapped through the factor of
every p that starts stationary, and a block's step increments are staged
once for every p.  Two threads draw the normals, one block ahead, and
the split changes no bit (``run_sweep``).  The calling thread maps each
replica's normals through the chain noise map, scales them by sqrt(dt)
and sigma in place, and copies them into every p's slab of the block in
one broadcast (a single p maps them into its slab).  One step loop then
advances the whole (p, replicas, chains) state as flat rows.  Each p
keeps its own start, recorded steps and batch count and gets the
estimate ``run`` gives it alone; ``run`` is the sweep of one config.
"""

from __future__ import annotations

import math
import queue
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .noise import as_generator
# noise_increment is unused here but stays importable from this module:
# perfbench/test_harness.py checks that the tracer wraps it here.
from .noise import NoiseModel, noise_increment  # noqa: F401
from .quadrature import TestFunction
from .symbols import Symbol, as_finite, as_positive, power, split_square

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
        as_positive(self.half_width, "half_width")
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
        if as_finite(self.p, "p") >= 0:
            raise ValueError("p must be negative")
        as_positive(self.dt, "dt")
        as_positive(self.sigma, "sigma")
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


def _chains(configs):
    """The chains of a call (module docstring), built once from the configs' shared
    symbol, window, mesh and noise: the chain drifts, one row per config's p, and the
    chains' noise map (``_lumped_chains``).  A drift that is not negative everywhere on
    the mesh raises ValueError."""
    base = configs[0]
    values = np.asarray(base.symbol(base.mesh.grid()), dtype=float)
    idx, w = projection_weights(base.g, base.mesh, base.unweighted)
    model = base.noise if base.noise is not None else NoiseModel.identity(base.mesh.size)
    chain_values, mix = _lumped_chains(values, idx, w, model)
    ps = np.array([config.p for config in configs])
    if np.max(values) + np.max(ps) >= 0:
        raise ValueError("drift is not strictly stable on the mesh")
    # each row is bit for bit the support drifts values + p of its chains
    return chain_values + ps[:, None], mix


def predict_discrete_variance(config: SimConfig) -> float:
    """Exact stationary variance of the discretized window observable.

    The observable is the sum of the chains ``run`` steps, so its variance
    is the sum of every entry of their stationary covariance S
    (``_chain_covariance``), taken a block of rows at a time so memory
    stays bounded for many chains.  A value that is not a positive
    double, as a huge ``sigma`` gives, raises FloatingPointError.
    """
    (lam,), mix = _chains([config])
    rows = max(1, _BLOCK_BYTES // (8 * lam.size))
    total = 0.0
    for lo in range(0, lam.size, rows):
        part = _chain_covariance(lam, mix, config.dt, slice(lo, lo + rows))
        # identity noise gives the root of the diagonal of S
        total += np.sum(part**2 if mix.ndim == 1 else part)
    square, k = split_square(config.sigma)
    with np.errstate(over="ignore"):
        value = float(np.ldexp(square * total, k))
    _check_positive(value, "the predicted discrete variance")
    return value


def _check_positive(value: float, what: str) -> None:
    if not 0.0 < value < math.inf:
        raise FloatingPointError(f"{what} is {value!r}, not a positive double")


def _lumped_chains(values, idx, w, model: NoiseModel):
    """Values of the chains, one per distinct value of ``values`` on the
    support (``np.unique`` order), and the map from one step's normals to
    each chain's weighted noise: per-chain scales sqrt(sum w**2) for identity
    noise, or the (M, chains) weight-summed basis rows times
    sqrt(eigenvalues) for rank-M noise.  A step draws mix.shape[0] normals.
    """
    lam, group = np.unique(values[idx], return_inverse=True)
    if model.is_identity:
        return lam, np.sqrt(np.bincount(group, w**2))
    rows = np.zeros((lam.size, model.rank))
    np.add.at(rows, group, w[:, None] * model.basis[idx])
    return lam, (rows * np.sqrt(model.eigenvalues)).T


def _chain_covariance(lam, mix, dt, rows=slice(None), scale=1.0):
    """Rows of the chains' stationary covariance S per unit sigma**2, times ``scale``.

    ``lam`` holds the chain drifts and ``mix`` is the chain noise map of
    ``_lumped_chains``, so C = mix^T mix.  This is the one place that
    writes the pair factor of the module docstring, and its diagonal.
    Rank-M noise gives the ``rows`` of S, as (scale * C) / pair.
    Identity noise makes S diagonal, C_ii = mix_i**2, and gives the root
    of the diagonal on ``rows`` instead, (scale * mix) / sqrt(2|lam| +
    lam**2 dt): at scale sigma, the start factor itself.
    """
    part = lam[rows]
    if mix.ndim == 1:
        return scale * mix[rows] / np.sqrt(2.0 * np.abs(part) + part**2 * dt)
    return scale * (mix[:, rows].T @ mix) / (np.outer(part, lam) * dt - part[:, None] - lam)


def _stationary_factor(lam, mix, sigma: float, dt: float) -> np.ndarray:
    """A factor F of the chains' stationary covariance S, F F^T = S.

    Identity noise makes S diagonal and F its root, returned as the
    diagonal; rank-M noise takes F = V sqrt(e) from the eigendecomposition
    of S, eigenvalues clipped at 0.  Both come from ``_chain_covariance``;
    an S that overflows raises FloatingPointError.
    """
    if mix.ndim == 1:
        return _chain_covariance(lam, mix, dt, scale=sigma)
    square, k = split_square(sigma)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.ldexp(_chain_covariance(lam, mix, dt, scale=square), k)
    if not np.all(np.isfinite(cov)):
        raise FloatingPointError(f"the chains' stationary covariance overflows at sigma = {sigma!r}")
    eig, vectors = np.linalg.eigh(cov)
    return vectors * np.sqrt(np.clip(eig, 0.0, None))


def _relax_steps(lam_max: float, dt: float) -> int:
    # steps until the slowest mode forgets a start: exp(2 lam_max t) < 1e-4
    return int(math.ceil(math.log(1e4) / (2.0 * abs(lam_max)) / dt))


def _starts_stationary(mix, replicas: int, relax: int) -> bool:
    """Whether a config draws its start from the stationary law.

    Otherwise it starts at u = 0 and steps its burn-in.  Identity noise
    always starts stationary: its factor is a diagonal.  A rank-M factor
    holds dense chains x chains arrays and its eigendecomposition costs
    about 2 chains**3 flops, so it is taken only when one such array
    fits the block budget and the eigendecomposition costs less than
    stepping the ``relax`` steps the slowest mode needs to forget a
    start, about replicas * chains * (M + 1) flops a step (the product
    of the draws with the noise map, and the update).  On a 2-core Xeon
    the two sides of that rule measured within a factor of 3 of each
    other from 51 to 501 chains.
    """
    if mix.ndim == 1:
        return True
    rank, chains = mix.shape
    return 8 * chains**2 <= _BLOCK_BYTES and 2 * chains**2 <= relax * replicas * (rank + 1)


def _steps_per_block(points: int, replicas: int, chains: int, draws: int) -> int:
    # one step of a block holds a state row per p and replica, two rows of
    # draws per replica (run_sweep fills the next block's while it steps
    # this one's), and with several p the staged row of every replica's
    # increments; blocks of these arrays stay near 1 MB
    extra = 0 if points == 1 else replicas * chains
    rows = points * replicas * chains + extra + 2 * replicas * draws
    return max(1, _BLOCK_BYTES // (8 * rows))


# fields run_sweep needs shared: the same objects, or equal values
_SHARED_OBJECTS = ("symbol", "g", "noise")
_SHARED_VALUES = ("mesh", "dt", "nt", "sigma", "replicas", "seed", "batches", "unweighted")


def _check_shared(configs) -> None:
    base = configs[0]
    for config in configs[1:]:
        for name in _SHARED_OBJECTS:
            if getattr(config, name) is not getattr(base, name):
                raise ValueError(f"run_sweep configs must share one {name} object")
        for name in _SHARED_VALUES:
            if getattr(config, name) != getattr(base, name):
                raise ValueError(f"run_sweep configs must have equal {name}")


def _schedule(config: SimConfig, lam) -> tuple[int, int]:
    """Burn-in and batch count of one config, whose chain drifts are ``lam``.

    Both follow the slowest window mode, the chain drift lam_max
    nearest 0.  The automatic burn-in is the time that mode takes to
    forget a start, ``_relax_steps``; a stationary start steps none of
    it, so it only shortens the recorded series.  The batch count is
    capped so each batch spans several of its correlation times
    1/|lam_max|.
    """
    lam_max = float(np.max(lam))
    relax_steps = _relax_steps(lam_max, config.dt)
    burn = config.burn_in if config.burn_in is not None else min(relax_steps, config.nt - 1)
    n_kept = config.nt - burn
    if n_kept < 10:
        raise ValueError(
            f"fewer than 10 recorded steps after burn-in; the slowest window "
            f"mode relaxes at rate {lam_max:g}, raise nt to at least {relax_steps + 10}")
    tau_steps = max(1.0 / (abs(lam_max) * config.dt), 1.0)
    by_correlation = int(n_kept / (5.0 * tau_steps))
    return burn, int(min(config.batches, max(2, by_correlation)))


def _estimate(series: np.ndarray, n_batches: int, p: float) -> VarianceEstimate:
    """Sample variance and batch-means error of (replicas, steps) series.

    Series whose largest magnitude reaches 2**250 are scaled by 2**-k to
    just below it, and the estimates scaled back by ldexp: below 2**250 no
    sum of squared errors overflows for fewer than 2**24 replicas, and
    smaller series, taken as they are, keep every bit (Python's x**2 is
    not exact under a power of two).  A variance or error that is not a
    positive double, as a huge ``sigma`` gives where the variance itself
    is past the largest double, raises FloatingPointError.
    """
    r, n_kept = series.shape
    replica_vars = []
    replica_errs = []
    replica_means = []
    with np.errstate(over="ignore", invalid="ignore"):
        # one row at a time, so that no copy of the whole series is made
        k = max(0, math.frexp(max(-series.min(), series.max()))[1] - 250)
        for row in series:
            values = np.ldexp(row, -k)
            replica_means.append(float(np.mean(values)))
            replica_vars.append(float(np.var(values, ddof=1)))
            usable = (n_kept // n_batches) * n_batches
            blocks = values[:usable].reshape(n_batches, -1)
            block_vars = np.var(blocks, axis=1, ddof=1)
            replica_errs.append(float(np.std(block_vars, ddof=1) / math.sqrt(n_batches)))
        variance = float(np.mean(replica_vars))
        se_within = math.sqrt(sum(power(e, 2) for e in replica_errs)) / r
        se_between = float(np.std(replica_vars, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        variance, stderr, *replica_vars = np.ldexp([variance, max(se_within, se_between),
                                                    *replica_vars], 2 * k).tolist()
    _check_positive(variance, f"the simulated variance at p = {p!r}")
    _check_positive(stderr, f"the standard error of the simulated variance at p = {p!r}")
    return VarianceEstimate(
        mean=math.ldexp(float(np.mean(replica_means)), k),
        variance=variance,
        stderr=stderr,
        effective_samples=r * n_batches,
        replica_variances=tuple(replica_vars),
    )


def run_sweep(configs) -> list[VarianceEstimate]:
    """Estimate the stationary window variance at several p in one pass.

    The configs may differ only in ``p`` and ``burn_in``: symbol, window
    and noise model must be the same objects, every other field equal.
    Replicas evolve independently with per-replica random streams split
    off the configured seed, so equal seeds give identical estimates,
    and every p sees the same draws.  One chain per distinct symbol value
    on the window support (see the module docstring) steps at drift
    value + p.  Each replica first draws one normal per chain; a p that
    ``_starts_stationary`` maps them through its ``_stationary_factor``
    and records its first nt - burn_in steps, any other p starts at
    u = 0 and records the steps after its burn-in, with a RuntimeWarning
    when an explicit ``burn_in`` is shorter than the ``_relax_steps`` its
    slowest mode needs to forget that start.  All p and replicas
    advance together, a block of steps at a time, with the arithmetic of
    the implicit Euler update (u + sigma dW) / (1 - (f + p) dt), each p
    recording the projection, the sum of its chains; each replica
    reports the sample variance of its series and a batch-means standard
    error.  Estimate i equals ``run(configs[i])``, for rank-M noise up
    to the last bits: the BLAS product of a block's draws with the noise
    map may round a block's tail rows differently, and a sweep's blocks
    need not have the row count of one ``run``'s.

    A sweep of more than one block draws on two threads: each block's
    jobs (one per replica) are posted once every fill of the block
    before is answered, a worker thread draws them into a second buffer
    while the calling thread steps that block, and the calling thread
    then draws any the worker has not taken.  Every replica's stream is
    consumed in the order one thread would use, so the estimates do not
    depend on which thread draws what.  The worker runs nothing but
    numpy's fills, which release the GIL; it is joined before this
    returns or raises, and an exception it meets is raised here.
    """
    configs = list(configs)
    if not configs:
        return []
    _check_shared(configs)
    base = configs[0]
    lam, mix = _chains(configs)
    burns, batches = zip(*(_schedule(config, row) for config, row in zip(configs, lam)))

    points, r, chains = len(configs), base.replicas, lam.shape[1]
    denom = np.ascontiguousarray(
        np.broadcast_to((1.0 - lam * base.dt)[:, None, :], (points, r, chains)))
    rngs = [as_generator(np.random.SeedSequence(base.seed, spawn_key=(rep,)))
            for rep in range(r)]
    # drawn even where no config uses them, so the step normals are the
    # same for either start and every p shares them
    z = [rng.standard_normal(chains) for rng in rngs]
    u = np.zeros(denom.shape)
    # config j records steps first[j] to first[j] + kept[j]: from the
    # start if it starts stationary, after its burn-in if it steps it
    first = []
    for j, burn in enumerate(burns):
        relax = _relax_steps(np.max(lam[j]), base.dt)
        if _starts_stationary(mix, r, relax):
            factor = _stationary_factor(lam[j], mix, base.sigma, base.dt)
            for rep in range(r):
                u[j, rep] = z[rep] * factor if mix.ndim == 1 else factor @ z[rep]
            first.append(0)
        else:
            if burn < relax:
                warnings.warn(
                    f"p = {configs[j].p!r} starts at u = 0 with burn_in = {burn}, below the "
                    f"{relax} steps its slowest window mode needs to forget that start; "
                    f"the estimate keeps the start's transient", RuntimeWarning, stacklevel=2)
            first.append(burn)
    kept = [base.nt - burn for burn in burns]
    steps = max(lo + n for lo, n in zip(first, kept))
    # the series first, the block's arrays after them: in this order the
    # mc-white benchmark's peak RSS, set by its check after the run, read
    # lower than the other way in 6 of 8 fresh processes
    series = [np.empty((r, n)) for n in kept]
    sqrt_dt = np.sqrt(base.dt)
    chunk = _steps_per_block(points, r, chains, mix.shape[0])
    block = np.empty((chunk,) + u.shape)
    # every p steps on the same increments, mapped by the calling thread
    # into the slab of a single p, or staged once in a contiguous row that
    # is copied to every slab of several p.  A block's normals are drawn
    # into one of two buffers while the block before steps on the other.
    normals = np.empty((2, r, chunk, mix.shape[0]))
    staged = block[:, 0] if points == 1 else np.empty((chunk, r, chains))
    to_chains = np.multiply if mix.ndim == 1 else np.matmul

    def fill(buf, rep, k):
        # numpy only: this also runs on the worker thread
        rngs[rep].standard_normal(out=normals[buf, rep, :k])

    def to_increments(buf, rep, k):
        to_chains(normals[buf, rep, :k], mix, out=staged[:k, rep])

    # a job is one replica's normals of one block; the jobs of a block are
    # posted only once every fill of the block before has been answered,
    # so each stream is consumed in the order one thread would use
    jobs, done = queue.SimpleQueue(), queue.SimpleQueue()

    def post(start):
        for rep in range(r):
            jobs.put((start // chunk % 2, rep, min(chunk, steps - start)))

    post(0)
    worker = None
    if steps > chunk:
        worker = threading.Thread(target=_serve, args=(jobs, done, fill), daemon=True)
        worker.start()
    # the step loop runs on flat rows of the whole (p, replica, chain)
    # state, views built once
    rows, flat_u, flat_denom = list(block.reshape(chunk, -1)), u.reshape(-1), denom.reshape(-1)
    try:
        for start in range(0, steps, chunk):
            k = min(chunk, steps - start)
            # draw every job the worker has not taken, then map each replica
            # the worker drew as its fill is answered
            owed = r
            while (job := _take(jobs)) is not None:
                fill(*job)
                to_increments(*job)
                owed -= 1
            for _ in range(owed):
                job, failure = done.get()
                if failure is not None:
                    raise failure
                to_increments(*job)
            if start + chunk < steps:
                post(start + chunk)
            # sqrt(dt), then sigma, then the division, in the order of
            # noise_increment and the implicit update (u + sigma dW) / (1 - drift dt):
            # every chain state matches the one-step update of that chain bit
            # for bit (multiplying by a sigma of 1.0 changes no bit, so it is skipped)
            drawn = staged[:k]
            drawn *= sqrt_dt
            if base.sigma != 1.0:
                drawn *= base.sigma
            if points > 1:
                block[:k] = drawn[:, None]
            prev = flat_u
            for row in rows[:k]:
                row += prev
                row /= flat_denom
                prev = row
            flat_u[...] = prev
            sums = block[:k].sum(axis=-1)
            for j, (lo, n) in enumerate(zip(first, kept)):
                a, b = max(lo - start, 0), min(lo + n - start, k)
                if a < b:
                    series[j][:, start + a - lo:start + b - lo] = sums[a:b, j].T
    finally:
        if worker is not None:
            # jobs a raise left behind are dropped, so the worker stops
            # after the fill it is in
            while _take(jobs) is not None:
                pass
            jobs.put(None)
            worker.join()
    return [_estimate(s, n_batches, float(config.p))
            for s, n_batches, config in zip(series, batches, configs)]


def _take(jobs):
    """The next job of a queue, or None if it is empty."""
    try:
        return jobs.get_nowait()
    except queue.Empty:
        return None


def _serve(jobs, done, fill) -> None:
    """Worker loop of ``run_sweep``: fill(*job) for every job it takes until
    None, answering (job, None) on ``done`` for each.  An exception is
    answered instead, (job, exception), for the caller to raise, and ends
    the loop, so the caller never waits on a worker that has stopped."""
    while (job := jobs.get()) is not None:
        try:
            fill(*job)
        except BaseException as failure:
            done.put((job, failure))
            return
        done.put((job, None))


def run(config: SimConfig) -> VarianceEstimate:
    """Estimate the stationary window variance from simulated trajectories:
    ``run_sweep`` of the one config."""
    return run_sweep([config])[0]
