"""Feature encoding and the tensor primitives underneath everything.

Walks through the orthonormal polynomial encoding of a raw feature and
the truncated SVD that training uses to adapt bond dimensions.
"""

import numpy as np

from tnad import (
    fit_rescaler,
    gauss_legendre_unit,
    LegendreFeatureMap,
    orthonormal_basis,
    truncated_svd,
)

# Raw features live on arbitrary scales. The rescaler maps each feature
# affinely onto [0, 1], where the polynomial basis is defined.
raw = np.array([[12.0, -3.0], [30.0, 5.0], [18.0, 0.5], [25.0, 2.0]])
rescaler = fit_rescaler(raw)
print("feature 0 fitted to", (rescaler.minimum[0], rescaler.maximum[0]))
row = np.array([[18.0, 0.5]])
print("raw 18.0 rescales to", round(rescaler.transform(row)[0, 0], 4))

# A feature map with N functions turns each number into N amplitudes:
# the first N shifted Legendre polynomials, scaled to an orthonormal set.
encoder = LegendreFeatureMap(4, rescaler)
vec = encoder.encode_batch(row)[0, 0]
print("\nencoded amplitudes:", np.round(vec, 4))

# Orthonormality is what makes marginalization of a feature a plain
# index contraction later on. Check it with Gauss-Legendre quadrature
# (exact for polynomial integrands of this degree):
nodes, weights = gauss_legendre_unit(5)
basis = orthonormal_basis(4, nodes)
gram = (basis * weights) @ basis.T
print("max deviation from the identity Gram matrix:", np.abs(gram - np.eye(4)).max())

# The other workhorse: a truncated SVD with an explicit account of the
# discarded weight. Build a noisy low-rank matrix and compress it.
rng = np.random.default_rng(0)
low_rank = np.outer(rng.standard_normal(6), rng.standard_normal(5))
noisy = low_rank + 1e-4 * rng.standard_normal((6, 5))
result = truncated_svd(noisy, rel_threshold=1e-3)
print("\nretained rank:", result.rank)
print("singular values:", np.round(result.singular_values, 5))
print("discarded weight (squared reconstruction error):", f"{result.discarded_weight:.3e}")
recon = result.left_isometry * result.singular_values @ result.right_isometry
print("actual squared error:", f"{np.linalg.norm(noisy - recon) ** 2:.3e}")
