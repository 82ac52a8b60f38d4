"""Multi-layer perceptron used for the bottom and top interaction components."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sim.rng import make_rng


class MLP:
    """A fully connected ReLU network with a linear final layer.

    Weights are initialised deterministically from the ``seed`` so the same
    model produces the same outputs run-to-run -- this is what lets the tests
    assert that SDM-served inference is bit-identical to DRAM-only inference.
    """

    def __init__(self, layer_sizes: Sequence[int], seed: int = 0, name: str = "mlp") -> None:
        sizes = [int(s) for s in layer_sizes]
        if len(sizes) < 2:
            raise ValueError(f"MLP needs at least an input and output size: {sizes}")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"all layer sizes must be positive: {sizes}")
        self.name = name
        self.layer_sizes = sizes
        rng = make_rng(seed, "mlp", name)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)).astype(np.float32))
            self.biases.append(np.zeros(fan_out, dtype=np.float32))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on an ``(input_dim,)``, ``(batch, input_dim)`` or
        stacked ``(batch, 1, input_dim)`` array.

        The last axis is the input; ``@`` broadcasts over the axes before the
        last two, so the stacked form is ``batch`` independent one-row
        products per layer — row ``b`` bit-identical to ``forward(x[b])`` —
        where the ``(batch, input_dim)`` form is one GEMM whose rows round
        differently.
        """
        out = np.asarray(x, dtype=np.float32)
        squeeze = out.ndim == 1
        if squeeze:
            out = out[None, :]
        if out.shape[-1] != self.input_dim:
            raise ValueError(
                f"MLP {self.name!r} expects input dim {self.input_dim}, got {out.shape[-1]}"
            )
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            out = out @ weight + bias
            if index < self.num_layers - 1:
                np.maximum(out, 0.0, out=out)
        return out[0] if squeeze else out

    def flops_per_sample(self) -> int:
        """Multiply-accumulate FLOPs for one input sample."""
        return int(sum(2 * w.shape[0] * w.shape[1] for w in self.weights))

    def __repr__(self) -> str:
        return f"MLP(name={self.name!r}, layers={self.layer_sizes})"
