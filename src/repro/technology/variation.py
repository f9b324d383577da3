"""Process-variation models for post-APR behaviour.

The paper's linearity plots (Figures 50 and 51) are measured after Automatic
Placement and Routing, so identical cells no longer have identical delays:
random device mismatch and placement/routing differences perturb each cell.
The paper also notes (section 4.3) that lower-frequency configurations are more
linear because each delay cell combines more buffers, so random per-buffer
variation partially averages out -- an effect this model reproduces naturally
because mismatch is sampled per *buffer*, not per cell.

Two variation components are modelled:

* **random mismatch** -- i.i.d. Gaussian multiplier per buffer instance with a
  configurable relative sigma (default 4 %, representative of a 32 nm buffer).
* **placement gradient** -- a slowly varying systematic component along the
  placed delay line (default 1.5 % peak), modelling the supply/temperature
  gradient across the placed row that the paper warns about ("delay line cells
  should be placed beside each other carefully").

All sampling is performed with an explicit seed so experiments and tests are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.streams import standard_normals

__all__ = [
    "BatchVariationSample",
    "CorrelatedVariationModel",
    "VariationModel",
    "VariationSample",
]


@dataclass(frozen=True, eq=False)
class CorrelatedVariationModel:
    """User-declared correlation structure across component parameters.

    The IID component draws of
    :class:`~repro.core.yield_analysis.ComponentVariation` treat every
    spread axis as independent, but real spreads are not: passives from one
    reel track each other, the two parasitic resistances share the same
    copper lot, supply and thermal gradients couple everything.  This model
    declares the coupling as a correlation matrix over the standard-normal
    draws *before* their per-axis transforms (log-normal for the passives,
    relative normal for the resistances), and realizes it by the Cholesky
    factorization: a vector of IID standard normals ``z`` becomes ``L z``
    with ``L L^T = matrix``, which has exactly the declared correlations.

    The identity matrix factors to the identity ``L``, and the drawing
    paths branch to the verbatim IID code in that case, so declaring "no
    correlation" reproduces the current model bit for bit -- the contract
    ``tests/test_mc_statistics.py`` pins and the vanilla experiments'
    golden outputs rely on.

    Attributes:
        matrix: the correlation matrix -- square, symmetric, unit diagonal
            and positive semi-definite (validated by attempting the
            Cholesky factorization; a non-PSD matrix raises
            :class:`ValueError`).
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"correlation matrix must be square; got shape {matrix.shape}"
            )
        if matrix.shape[0] < 1:
            raise ValueError("correlation matrix must be at least 1x1")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("correlation matrix entries must be finite")
        if not np.allclose(matrix, matrix.T, atol=1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.allclose(np.diagonal(matrix), 1.0, atol=1e-12):
            raise ValueError("correlation matrix must have a unit diagonal")
        try:
            cholesky = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as error:
            raise ValueError(
                "correlation matrix must be positive semi-definite (its "
                "Cholesky factorization failed); check the off-diagonal "
                "entries for an impossible correlation pattern"
            ) from error
        object.__setattr__(self, "_cholesky", cholesky)

    @classmethod
    def identity(cls, dimension: int) -> "CorrelatedVariationModel":
        """The no-correlation model over ``dimension`` axes."""
        return cls(matrix=np.eye(dimension))

    @property
    def dimension(self) -> int:
        return int(self.matrix.shape[0])

    def is_identity(self) -> bool:
        """True when the declared correlations leave the draws IID."""
        return bool(np.array_equal(self.matrix, np.eye(self.dimension)))

    def cholesky(self) -> np.ndarray:
        """The lower-triangular factor ``L`` with ``L L^T == matrix``."""
        factor: np.ndarray = getattr(self, "_cholesky")
        return factor

    def correlate(self, z: np.ndarray) -> np.ndarray:
        """Correlated draws ``L z`` from IID standard-normal draws.

        ``z`` is either one draw vector of shape ``(dimension,)`` or a
        stacked matrix of shape ``(dimension, count)``; the correlated
        result has the same shape.
        """
        z = np.asarray(z, dtype=float)
        if z.shape[0] != self.dimension:
            raise ValueError(
                f"draw vector spans {z.shape[0]} axes, the correlation "
                f"matrix {self.dimension}"
            )
        result: np.ndarray = self.cholesky() @ z
        return result


@dataclass(frozen=True)
class VariationSample:
    """Per-buffer delay multipliers for one fabricated instance of a line.

    Attributes:
        multipliers: array of shape ``(num_cells, buffers_per_cell)`` holding
            the positive delay multiplier of every buffer.
    """

    multipliers: np.ndarray

    @property
    def num_cells(self) -> int:
        return int(self.multipliers.shape[0])

    @property
    def buffers_per_cell(self) -> int:
        return int(self.multipliers.shape[1])

    def cell_multipliers(self) -> np.ndarray:
        """Mean multiplier per cell (averaging over the buffers in the cell)."""
        return self.multipliers.mean(axis=1)

    def cell_delays_ps(self, buffer_delay_ps: float) -> np.ndarray:
        """Per-cell delay (ps) given the nominal per-buffer delay."""
        return self.multipliers.sum(axis=1) * buffer_delay_ps


@dataclass(frozen=True)
class BatchVariationSample:
    """Per-buffer delay multipliers for a whole ensemble of fabricated lines.

    Attributes:
        multipliers: array of shape ``(instances, num_cells, buffers_per_cell)``
            holding the positive delay multiplier of every buffer of every
            instance.  Slice ``multipliers[i]`` is exactly the array a scalar
            :meth:`VariationModel.sample` call would have produced for
            instance ``i``, so ensemble computations and per-instance scalar
            computations see the *same* fabricated chips.
    """

    multipliers: np.ndarray

    def __post_init__(self) -> None:
        if self.multipliers.ndim != 3:
            raise ValueError(
                "batch multipliers must have shape "
                f"(instances, num_cells, buffers_per_cell); got {self.multipliers.shape}"
            )

    @property
    def num_instances(self) -> int:
        return int(self.multipliers.shape[0])

    @property
    def num_cells(self) -> int:
        return int(self.multipliers.shape[1])

    @property
    def buffers_per_cell(self) -> int:
        return int(self.multipliers.shape[2])

    def instance(self, index: int) -> VariationSample:
        """The scalar variation sample of one instance of the ensemble."""
        return VariationSample(multipliers=self.multipliers[index])


@dataclass
class VariationModel:
    """Generator of per-instance delay variation.

    Attributes:
        random_sigma: relative sigma of the per-buffer random mismatch.
        gradient_peak: peak relative deviation of the systematic placement
            gradient across the line (0 disables the gradient).
        seed: RNG seed; every :meth:`sample` call derives an independent
            stream from it so repeated calls give different but reproducible
            instances.
    """

    random_sigma: float = 0.04
    gradient_peak: float = 0.015
    seed: int = 2012

    def __post_init__(self) -> None:
        if self.random_sigma < 0:
            raise ValueError("random_sigma must be non-negative")
        if self.gradient_peak < 0:
            raise ValueError("gradient_peak must be non-negative")

    @classmethod
    def ideal(cls) -> "VariationModel":
        """A variation model with no variation (pre-APR / ideal cells)."""
        return cls(random_sigma=0.0, gradient_peak=0.0, seed=0)

    def sample(
        self, num_cells: int, buffers_per_cell: int, instance: int = 0
    ) -> VariationSample:
        """Sample per-buffer multipliers for one fabricated line instance.

        Args:
            num_cells: number of delay cells in the line.
            buffers_per_cell: buffers combined in each cell.
            instance: index of the fabricated instance; different instances
                get independent random mismatch but share the model
                parameters.

        Returns:
            a :class:`VariationSample` with strictly positive multipliers
            -- instance ``instance`` of :meth:`sample_batch`.
        """
        batch = self.sample_batch(
            1, num_cells, buffers_per_cell, first_instance=instance
        )
        return batch.instance(0)

    def sample_tilted(
        self,
        num_cells: int,
        buffers_per_cell: int,
        instance: int = 0,
        *,
        shift: float = 0.0,
        sigma_scale: float = 1.0,
    ) -> tuple[VariationSample, float]:
        """Sample one instance from a tilted mismatch distribution.

        Importance-sampling entry point: the per-buffer standard-normal
        mismatch draw ``z`` is replaced by ``shift + sigma_scale * z``
        (a mean shift in sigma units plus a variance inflation), pushing
        fabricated instances toward the failure region.  The returned
        log-likelihood ratio is ``log p(z') - log q(z')`` between the
        nominal standard normal and the tilted distribution, summed over
        all buffers -- exactly the correction factor self-normalized
        importance sampling needs to reweight results back to the
        nominal process.

        Stream contract: instance ``i``'s underlying standard-normal
        draw is the *same* draw :meth:`sample` consumes, so the identity
        tilt (``shift=0, sigma_scale=1``) reproduces :meth:`sample`
        bit-for-bit with a log-likelihood ratio of exactly zero.

        Args:
            num_cells / buffers_per_cell / instance: as in :meth:`sample`.
            shift: mean shift of the mismatch draw, in units of the
                standard-normal sigma (positive = slower buffers).
            sigma_scale: multiplier on the mismatch sigma (must be > 0);
                values > 1 widen the proposal, which keeps the weight
                distribution well behaved.

        Returns:
            ``(sample, log_likelihood_ratio)``.
        """
        batch, log_lrs = self.sample_batch_tilted(
            1,
            num_cells,
            buffers_per_cell,
            first_instance=instance,
            shift=shift,
            sigma_scale=sigma_scale,
        )
        return batch.instance(0), float(log_lrs[0])

    def sample_batch(
        self,
        num_instances: int,
        num_cells: int,
        buffers_per_cell: int,
        first_instance: int = 0,
    ) -> BatchVariationSample:
        """Sample per-buffer multipliers for a whole ensemble of instances.

        Instance ``i`` of the batch draws its mismatch from its own stream,
        ``np.random.default_rng((seed, first_instance + i))``, so any
        chunking of an instance range tiles the one-shot batch bit for bit
        and ``sample(..., instance=first_instance + i)`` is slice ``i`` --
        the contract the ensemble engine's batch-versus-scalar equivalence
        rests on.  The streams come from :func:`repro.streams
        .standard_normals`; everything after the draw is vectorized.
        """
        z = self._mismatch_draws(
            num_instances, num_cells, buffers_per_cell, first_instance
        )
        return self._batch_from_mismatch(z)

    def sample_batch_tilted(
        self,
        num_instances: int,
        num_cells: int,
        buffers_per_cell: int,
        first_instance: int = 0,
        *,
        shift: float = 0.0,
        sigma_scale: float = 1.0,
    ) -> tuple[BatchVariationSample, np.ndarray]:
        """Sample a tilted ensemble plus its per-instance log-likelihood ratios.

        Instance ``i`` of the batch matches
        ``sample_tilted(..., instance=first_instance + i, ...)`` exactly,
        preserving the chunk-stable seeding contract for tilted draws.

        Returns:
            ``(batch, log_likelihood_ratios)`` where the ratio array has
            shape ``(num_instances,)``.
        """
        if sigma_scale <= 0.0:
            raise ValueError(f"sigma_scale must be positive; got {sigma_scale}")
        z = self._mismatch_draws(
            num_instances, num_cells, buffers_per_cell, first_instance
        )
        tilted = shift + sigma_scale * z
        # A row-wise sum over contiguous rows is the same pairwise summation
        # as one instance's whole-array sum, so the ratios match bit for bit.
        rows = (num_instances, num_cells * buffers_per_cell)
        log_lrs = (
            0.5 * (z * z).reshape(rows).sum(axis=1)
            - 0.5 * (tilted * tilted).reshape(rows).sum(axis=1)
            + rows[1] * math.log(sigma_scale)
        )
        return self._batch_from_mismatch(tilted), log_lrs

    def _mismatch_draws(
        self,
        num_instances: int,
        num_cells: int,
        buffers_per_cell: int,
        first_instance: int,
    ) -> np.ndarray:
        """Standard-normal mismatch ``z`` of shape ``(instances, cells, buffers)``."""
        if num_instances < 1:
            raise ValueError("need at least one instance")
        if num_cells <= 0:
            raise ValueError("num_cells must be positive")
        if buffers_per_cell <= 0:
            raise ValueError("buffers_per_cell must be positive")
        return standard_normals(
            (self.seed,),
            first_instance,
            num_instances,
            (num_cells, buffers_per_cell),
        )

    def _batch_from_mismatch(self, z: np.ndarray) -> BatchVariationSample:
        """Multipliers ``1 + sigma * z + gradient`` from the mismatch, in place."""
        z *= self.random_sigma
        z += 1.0
        z += self._placement_gradient(z.shape[1])[:, np.newaxis]
        # Delays cannot be negative or zero; clip far in the tail (beyond
        # 5 sigma for the default settings) to keep the model physical.
        np.clip(z, 0.2, None, out=z)
        return BatchVariationSample(multipliers=z)

    def _placement_gradient(self, num_cells: int) -> np.ndarray:
        """Systematic slow gradient along the placed line."""
        if self.gradient_peak <= 0.0 or num_cells == 1:
            return np.zeros(num_cells)
        position = np.linspace(0.0, 1.0, num_cells)
        # Half a cosine period: cells at one end of the row are slightly
        # slower than cells at the other end.
        return self.gradient_peak * np.cos(np.pi * position)
