"""Tests for the process-variation model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.technology.variation import VariationModel, VariationSample


class TestVariationModel:
    def test_ideal_model_has_unity_multipliers(self):
        sample = VariationModel.ideal().sample(num_cells=16, buffers_per_cell=2)
        assert np.allclose(sample.multipliers, 1.0)

    def test_sampling_is_deterministic_for_same_seed_and_instance(self):
        model = VariationModel(seed=7)
        first = model.sample(32, 2, instance=3)
        second = model.sample(32, 2, instance=3)
        assert np.array_equal(first.multipliers, second.multipliers)

    def test_different_instances_differ(self):
        model = VariationModel(seed=7)
        first = model.sample(32, 2, instance=0)
        second = model.sample(32, 2, instance=1)
        assert not np.array_equal(first.multipliers, second.multipliers)

    def test_different_seeds_differ(self):
        first = VariationModel(seed=1).sample(32, 2)
        second = VariationModel(seed=2).sample(32, 2)
        assert not np.array_equal(first.multipliers, second.multipliers)

    def test_shape_matches_request(self):
        sample = VariationModel().sample(num_cells=64, buffers_per_cell=4)
        assert sample.multipliers.shape == (64, 4)
        assert sample.num_cells == 64
        assert sample.buffers_per_cell == 4

    def test_multipliers_are_strictly_positive(self):
        sample = VariationModel(random_sigma=0.3).sample(256, 1)
        assert np.all(sample.multipliers > 0)

    def test_mean_multiplier_is_near_unity(self):
        sample = VariationModel(random_sigma=0.04, gradient_peak=0.0).sample(512, 4)
        assert sample.multipliers.mean() == pytest.approx(1.0, abs=0.01)

    def test_gradient_only_model_is_smooth_and_bounded(self):
        model = VariationModel(random_sigma=0.0, gradient_peak=0.02)
        sample = model.sample(100, 1)
        cells = sample.cell_multipliers()
        assert np.all(np.abs(cells - 1.0) <= 0.02 + 1e-12)
        # Monotone over the half-cosine gradient.
        assert np.all(np.diff(cells) <= 1e-12)

    def test_more_buffers_per_cell_reduce_cell_spread(self):
        # The paper's explanation for better linearity at low frequency:
        # random per-buffer variation averages out within larger cells.
        model = VariationModel(random_sigma=0.05, gradient_peak=0.0, seed=11)
        narrow = model.sample(256, 1).cell_multipliers().std()
        wide = model.sample(256, 4).cell_multipliers().std()
        assert wide < narrow

    def test_cell_delays_scale_with_buffer_delay(self):
        sample = VariationModel.ideal().sample(8, 3)
        delays = sample.cell_delays_ps(buffer_delay_ps=40.0)
        assert np.allclose(delays, 120.0)

    @pytest.mark.parametrize(
        "model",
        [
            VariationModel(seed=7),
            VariationModel(random_sigma=0.3, gradient_peak=0.0, seed=2**40 + 1),
            VariationModel(random_sigma=0.05, gradient_peak=0.02, seed=0),
        ],
    )
    @pytest.mark.parametrize("instance", [0, 5, 2**32 + 3])
    def test_sample_matches_inline_default_rng_reference(self, model, instance):
        # Written out per instance, as the scalar model was defined: the
        # batched stream builder must reproduce it bit for bit.
        rng = np.random.default_rng((model.seed, instance))
        random_part = rng.normal(loc=0.0, scale=model.random_sigma, size=(24, 3))
        position = np.linspace(0.0, 1.0, 24)
        gradient = model.gradient_peak * np.cos(np.pi * position)
        reference = np.clip(1.0 + random_part + gradient[:, np.newaxis], 0.2, None)
        sample = model.sample(24, 3, instance=instance)
        np.testing.assert_array_equal(sample.multipliers, reference)

    def test_sample_tilted_matches_inline_default_rng_reference(self):
        model = VariationModel(random_sigma=0.05, gradient_peak=0.01, seed=19)
        batch, log_lrs = model.sample_batch_tilted(
            1, 10, 4, first_instance=6, shift=0.8, sigma_scale=1.25
        )
        sample, log_lr = batch.instance(0), log_lrs[0]
        rng = np.random.default_rng((model.seed, 6))
        z = rng.standard_normal(size=(10, 4))
        tilted = 0.8 + 1.25 * z
        gradient = model.gradient_peak * np.cos(np.pi * np.linspace(0.0, 1.0, 10))
        reference = np.clip(
            1.0 + model.random_sigma * tilted + gradient[:, np.newaxis], 0.2, None
        )
        np.testing.assert_array_equal(sample.multipliers, reference)
        assert log_lr == (
            0.5 * float((z * z).sum())
            - 0.5 * float((tilted * tilted).sum())
            + 40 * math.log(1.25)
        )

    @pytest.mark.parametrize(
        "tilt",
        [
            {"shift": math.nan},
            {"shift": math.inf},
            {"shift": -math.inf},
            {"sigma_scale": math.nan},
            {"sigma_scale": math.inf},
        ],
    )
    def test_sample_batch_tilted_rejects_non_finite_tilts(self, tilt):
        with pytest.raises(ValueError, match="finite"):
            VariationModel(seed=3).sample_batch_tilted(2, 4, 2, **tilt)

    @pytest.mark.parametrize("num_cells, buffers", [(0, 1), (4, 0), (-1, 2)])
    def test_invalid_shapes_rejected(self, num_cells, buffers):
        with pytest.raises(ValueError):
            VariationModel().sample(num_cells, buffers)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(random_sigma=-0.1)

    def test_negative_gradient_rejected(self):
        with pytest.raises(ValueError):
            VariationModel(gradient_peak=-0.1)


class TestVariationSample:
    def test_cell_multipliers_average_buffers(self):
        multipliers = np.array([[1.0, 3.0], [2.0, 2.0]])
        sample = VariationSample(multipliers=multipliers)
        assert np.allclose(sample.cell_multipliers(), [2.0, 2.0])

    def test_cell_delays_sum_buffers(self):
        multipliers = np.array([[1.0, 1.0], [0.5, 1.5]])
        sample = VariationSample(multipliers=multipliers)
        assert np.allclose(sample.cell_delays_ps(10.0), [20.0, 20.0])
