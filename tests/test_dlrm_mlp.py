"""Tests for the MLP building block."""

import numpy as np
import pytest

from repro.dlrm import MLP


class TestMLP:
    def test_output_shape_single_sample(self):
        mlp = MLP([8, 16, 4])
        out = mlp.forward(np.zeros(8, dtype=np.float32))
        assert out.shape == (4,)

    def test_output_shape_batch(self):
        mlp = MLP([8, 16, 4])
        out = mlp.forward(np.zeros((5, 8), dtype=np.float32))
        assert out.shape == (5, 4)

    def test_stacked_rows_equal_single_rows_bit_for_bit(self):
        # (batch, 1, dim) is `batch` independent one-row products per layer;
        # biases are made non-zero so the broadcast add is exercised too.
        mlp = MLP([96, 32, 32, 3], seed=2)
        rng = np.random.default_rng(0)
        for bias in mlp.biases:
            bias[:] = rng.normal(0, 0.1, size=bias.shape)
        for scale in (0.01, 1.0, 100.0):
            x = (rng.normal(size=(16, 96)) * scale).astype(np.float32)
            stacked = mlp.forward(x[:, None, :])
            assert stacked.shape == (16, 1, 3)
            for row, out in zip(x, stacked):
                assert np.array_equal(out[0], mlp.forward(row))
        with pytest.raises(ValueError):
            mlp.forward(np.zeros((4, 1, 95), dtype=np.float32))

    def test_deterministic_given_seed(self):
        x = np.linspace(-1, 1, 8).astype(np.float32)
        a = MLP([8, 16, 2], seed=3).forward(x)
        b = MLP([8, 16, 2], seed=3).forward(x)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        x = np.ones(8, dtype=np.float32)
        a = MLP([8, 16, 2], seed=1).forward(x)
        b = MLP([8, 16, 2], seed=2).forward(x)
        assert not np.array_equal(a, b)

    def test_hidden_relu_final_linear(self):
        """Hidden activations are clamped at zero but the output layer is
        linear, so outputs can be negative."""
        mlp = MLP([4, 8, 1], seed=0)
        outputs = [
            float(mlp.forward(np.random.default_rng(i).normal(size=4))[0]) for i in range(64)
        ]
        assert any(value < 0 for value in outputs)

    def test_zero_input_gives_zero_output_with_zero_biases(self):
        mlp = MLP([4, 8, 2], seed=0)
        np.testing.assert_allclose(mlp.forward(np.zeros(4)), np.zeros(2), atol=1e-7)

    def test_flops_per_sample(self):
        mlp = MLP([8, 16, 4])
        assert mlp.flops_per_sample() == 2 * (8 * 16 + 16 * 4)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ValueError):
            MLP([8, 4]).forward(np.zeros(5))

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            MLP([8])

    def test_non_positive_layer_rejected(self):
        with pytest.raises(ValueError):
            MLP([8, 0, 4])

    def test_properties(self):
        mlp = MLP([8, 16, 4], name="x")
        assert mlp.input_dim == 8
        assert mlp.output_dim == 4
        assert mlp.num_layers == 2
        assert "x" in repr(mlp)
