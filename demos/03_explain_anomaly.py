"""Explaining a single anomalous sample.

Beyond the NLL score, the trained network's reduced density matrices
give every feature an expected value and standard deviation; features
outside the band get flagged, and for those the model computes what it
would have expected given the rest of the sample.
"""

import numpy as np

from tnad import (
    LegendreFeatureMap,
    MpsModel,
    TrainConfig,
    explain_sample,
    fit,
    fit_rescaler,
    toy_correlated_pairs,
)

data = toy_correlated_pairs(2000, 8, pairs=((1, 2), (5, 6)), seed=42)
encoder = LegendreFeatureMap(5, fit_rescaler(data))
model = MpsModel.random(8, 5, init_bond=2, seed=0, encoder=encoder)
fit(model, data,
    TrainConfig(learning_rate=4e-3, sweeps=6, batch_size=None, max_bond=10, seed=0))

# Construct an anomaly: a genuine sample whose feature 5 is pushed far
# away, which also silently violates its tie to feature 6.
sample = data[17].copy()
sample[5] = 0.98

explanation = explain_sample(model, sample, k_sigma=1.0, sample_id=17)
print(f"sample 17: NLL {explanation.nll:.2f}")
print(f"flagged features: {explanation.flagged_indices()}\n")
print(f"{'feat':>4} {'observed':>9} {'mean':>9} {'std':>9} {'flag':>5} {'conditional':>12}")
for f in explanation.features:
    conditional = f"{f.conditional_expected:9.3f}" if f.conditional_expected is not None else "        -"
    print(f"{f.index:>4} {f.observed:9.3f} {f.mean:9.3f} {f.std:9.3f} "
          f"{str(f.flagged):>5} {conditional:>12}")

# The conditional expectation of feature 5 should track its partner
# feature 6 (they share a latent draw), not the global mean.
partner = sample[6]
conditional_5 = next(
    f.conditional_expected for f in explanation.features if f.index == 5
)
print(f"\nfeature 6 (the partner) sits at {partner:.3f}")
print(f"conditioned on the unflagged features, feature 5 was expected near {conditional_5:.3f}")
