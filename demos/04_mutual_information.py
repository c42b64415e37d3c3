"""Inspecting learned structure through mutual information.

The model-side all-to-all MI comes from von Neumann entropies of one-
and two-feature reduced density matrices; the data-side estimate is a
low-bias histogram plug-in. Both should highlight the constructed pairs.
"""

import numpy as np

from tnad import (
    LegendreFeatureMap,
    TrainConfig,
    TtnModel,
    all_to_all_mi,
    fit,
    fit_rescaler,
    histogram_mi_matrix,
    toy_correlated_pairs,
)

PAIRS = ((1, 2), (5, 6))
data = toy_correlated_pairs(2000, 8, pairs=PAIRS, seed=42)
encoder = LegendreFeatureMap(5, fit_rescaler(data))
model = TtnModel.random(8, 5, init_bond=2, seed=0, encoder=encoder)
fit(model, data,
    TrainConfig(learning_rate=4e-3, sweeps=6, batch_size=None, max_bond=10, seed=0))

matrices = all_to_all_mi(model)

estimate = histogram_mi_matrix(data)
peak = estimate.max()
estimate_display = estimate / peak if peak > 0 else estimate


def show(title, matrix):
    print(f"\n{title} (rescaled to [0, 1], diagonal zeroed)")
    for row in matrix:
        print(" ".join(f"{v:5.2f}" for v in row))


show("model-side mutual information (tree tensor network)", matrices.display)
show("histogram estimate from the raw data", estimate_display)

top_model = np.unravel_index(np.argmax(matrices.raw), matrices.raw.shape)
print(f"\nstrongest model-side dependency: features {tuple(sorted(int(i) for i in top_model))}")
print(f"constructed pairs were: {PAIRS}")
