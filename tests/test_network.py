"""The engine both model kinds share: canonical moves, the environment cache, two-site layout."""

import numpy as np
import pytest

import helpers
from tnad import MpsModel, TrainConfig, TtnModel, two_site_step
from tnad.explain import _analysis_copy


def chain_path(a, b):
    return set(range(min(a, b), max(a, b) + 1))


def tree_path(model, a, b):
    """Nodes on the tree path between ``a`` and ``b``, both included, via parent ids."""
    up_a, up_b = [a], [b]
    while up_a[-1] != 0:
        up_a.append(model.parents[up_a[-1]])
    while up_b[-1] != 0:
        up_b.append(model.parents[up_b[-1]])
    common = set(up_a) & set(up_b)
    return {u for u in up_a + up_b if u not in common} | {max(common)}


def path_between(model, a, b):
    return chain_path(a, b) if isinstance(model, MpsModel) else tree_path(model, a, b)


@pytest.fixture(params=["mps", "ttn"])
def model(request):
    if request.param == "mps":
        return MpsModel.random(7, 3, init_bond=4, seed=1)
    return TtnModel.random(9, 3, init_bond=4, seed=2)  # padded: 9 features on 5 leaves


class TestCanonicalize:
    def test_tensors_off_the_path_untouched(self, model):
        rng = np.random.default_rng(3)
        for target in rng.integers(0, model.n_nodes, size=8):
            start = model.center
            before = [t.copy() for t in model.tensors]
            model.canonicalize(int(target))
            assert model.center == target
            assert model.isometry_defect() <= 1e-10
            on_path = path_between(model, start, int(target))
            for u in range(model.n_nodes):
                if u not in on_path:
                    np.testing.assert_array_equal(model.tensors[u], before[u])

    def test_n_features(self, model):
        assert model.n_features == (7 if isinstance(model, MpsModel) else 9)


def test_full_pass_makes_a_pinned_copy_canonical():
    model = TtnModel.random(9, 3, init_bond=4, seed=5)
    for center in (0, 3, model.sweep_start()):
        work = _analysis_copy(model, center, {0: 0.3, 4: 0.8, 7: 0.1})
        assert work.center == center
        assert work.isometry_defect() <= 1e-10


def test_mps_center_moves_are_plain_qr_steps():
    """A move right is the QR of a core as ``(D_left * N, D_right)``, a move
    left that of its ``(D_left, N * D_right)`` transpose; odd bonds included."""
    model = MpsModel.random(6, 5, init_bond=39, seed=4)
    reference = list(model.cores)  # moves replace cores, never write into them
    model.canonicalize(3)
    for c in range(3):
        dl, n, dr = reference[c].shape
        q, r = np.linalg.qr(reference[c].reshape(dl * n, dr))
        reference[c] = q.reshape(dl, n, -1)
        np.testing.assert_array_equal(model.cores[c], reference[c])
        reference[c + 1] = np.tensordot(r, reference[c + 1], axes=(1, 0))
    np.testing.assert_array_equal(model.cores[3], reference[3])
    model.canonicalize(1)
    for c in (3, 2):
        dl, n, dr = reference[c].shape
        q, r = np.linalg.qr(reference[c].reshape(dl, n * dr).T)
        np.testing.assert_array_equal(model.cores[c], q.T.reshape(-1, n, dr))
        reference[c - 1] = np.tensordot(reference[c - 1], r.T, axes=(2, 0))
    np.testing.assert_array_equal(model.cores[1], reference[1])


def test_incremental_cache_matches_a_fresh_one(model):
    """After every step of a full sweep, the cache ``fit`` advances gives the
    next edge the same factors, bit for bit, as a cache built from scratch."""
    rng = np.random.default_rng(6)
    batch = np.abs(helpers.random_encoded(rng, 40, model.n_features, model.phys_dim)) + 0.2
    env = model.environment_cache(batch)
    config = TrainConfig(learning_rate=5e-3, inner_steps=2, svd_rel_threshold=0.0)
    schedule = model.sweep_schedule()
    assert max(model.bond_profile()) > 1
    for i, edge in enumerate(schedule):
        stats = two_site_step(model, edge, env, rng.choice(40, 16, replace=False), 5e-3, config)
        assert stats.error is None
        next_edge = schedule[(i + 1) % len(schedule)]
        got, got_log = env.factors(next_edge)
        want, want_log = model.environment_cache(batch).factors(next_edge)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got_log, want_log)
