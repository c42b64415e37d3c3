"""The engine both model kinds share: canonical moves, the environment cache, two-site layout."""

import tracemalloc

import numpy as np
import pytest

import helpers
from tnad import (
    DataError,
    DimensionError,
    LegendreFeatureMap,
    MpsModel,
    TrainConfig,
    TtnModel,
    fit,
    fit_rescaler,
    load_model,
    nll_loss,
    reduced_density_matrix,
    save_model,
    score_samples,
    two_site_gradient,
    two_site_step,
)
from tnad.explain import _analysis_copy
from tnad.network import BLOCK_ROWS
from tnad.training import _contract_fractions


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
        work = _analysis_copy(model, center)
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


def bipartition_case(case):
    """A model canonical at one end of the edge named by ``case``, and that edge."""
    if case == "mps-end":
        return MpsModel.random(6, 3, init_bond=4, seed=12), (0, 1)
    if case == "mps-right-to-left":
        model = MpsModel.random(6, 3, init_bond=4, seed=12)
        model.canonicalize(3)
        return model, (3, 2)
    model = TtnModel.random(9, 3, init_bond=4, seed=2)
    child = model.children[0][1]
    model.canonicalize(child)
    return model, (child, 0)


@pytest.mark.parametrize("case", ["mps-end", "mps-right-to-left", "tree-child-to-root"])
def test_factor_pair_is_the_split_bipartition(case):
    """Each factor is one node's own: its width is the product of that node's
    remaining axes, so the pair contracts ``merge_edge(edge).reshape(W0, W1)``
    into every sample's amplitude."""
    model, edge = bipartition_case(case)
    batch = helpers.random_encoded(np.random.default_rng(4), 30, model.n_features, model.phys_dim)
    (left, right), log_scale = model.environment_cache(batch).factors(edge)
    merged = model.merge_edge(edge)
    n_first = model.tensors[edge[0]].ndim - 1
    assert left.shape == (30, int(np.prod(merged.shape[:n_first])))
    assert right.shape == (30, int(np.prod(merged.shape[n_first:])))
    psi = _contract_fractions(merged, left, right)
    want, sign = model.log_amplitudes(batch)
    np.testing.assert_allclose(np.log(np.abs(psi)) + log_scale, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(np.sign(psi), sign)


@pytest.mark.parametrize("where", ["leaf", "root", "internal"])
def test_amplitudes_at_the_center(where):
    """The cache's amplitudes read at a tree center, leaf or not, are the amplitude pass's."""
    model = TtnModel.random(9, 3, init_bond=4, seed=2)
    center = {
        "leaf": model.sweep_start(),
        "root": 0,
        "internal": next(u for u in range(1, model.n_nodes) if model.children[u] is not None),
    }[where]
    model.canonicalize(center)
    batch = helpers.random_encoded(np.random.default_rng(5), 30, model.n_features, model.phys_dim)
    psi, log_scale = model.environment_cache(batch).amplitudes()
    want, sign = model.log_amplitudes(batch)
    np.testing.assert_allclose(np.log(np.abs(psi)) + log_scale, want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(np.sign(psi), sign)


@pytest.mark.parametrize(
    "kind, n_features",
    [("mps", 12), ("ttn", 12), ("mps", 11), ("ttn", 11)],
    ids=["mps", "ttn", "mps-odd", "ttn-padded"],
)
def test_reloaded_twin_trains_to_the_same_bits(kind, n_features, tmp_path):
    """A model and its saved and reloaded twin hold equal values, so fitting
    both must give equal tensors whatever memory layout each started in,
    one from ``encode_batch``'s strided view and one from its copy; an odd
    width gives the tree a dummy feature."""
    data = np.random.default_rng(8).uniform(size=(300, n_features))
    encoder = LegendreFeatureMap(5, fit_rescaler(data))
    model_cls = MpsModel if kind == "mps" else TtnModel
    model = model_cls.random(n_features, 5, init_bond=20, seed=1, encoder=encoder)
    save_model(tmp_path / "twin.tnad", model)
    twin = load_model(tmp_path / "twin.tnad")
    for ours, theirs in zip(model.tensors, twin.tensors):
        np.testing.assert_array_equal(ours, theirs)
    config = TrainConfig(learning_rate=5e-3, sweeps=1, batch_size=64, max_bond=20, seed=2)
    encoded = encoder.encode_batch(data)
    fit(model, encoded, config)
    fit(twin, np.ascontiguousarray(encoded), config)
    for ours, theirs in zip(model.tensors, twin.tensors):
        np.testing.assert_array_equal(ours, theirs)


@pytest.mark.parametrize("model_class", [MpsModel, TtnModel])
def test_model_kinds_inherit_the_engine_passes(model_class):
    """Amplitudes, the sweep walk, the feature legs and their extent exist once, in the engine."""
    shared = {"log_amplitudes", "sweep_schedule", "feature_leg", "phys_dim"}
    assert not shared & set(vars(model_class))


class TestConstructionChecks:
    """A model's tensors are checked against its graph once, where it is made."""

    def test_tree_is_described_by_its_parents(self):
        """Children, leaf features, dummy features and the center follow from
        the parent list: a padded tree rebuilt from it pins its dummy feature."""
        model = TtnModel.random(5, 3, init_bond=4, seed=0)
        twin = TtnModel(model.tensors, model.parents, 5)
        assert (twin.children, twin.leaf_features) == (model.children, model.leaf_features)
        assert (twin.padding, twin.center, twin.phys_dim) == (1, model.sweep_start(), 3)
        np.testing.assert_array_equal(
            reduced_density_matrix(twin, (4,)).matrix, reduced_density_matrix(model, (4,)).matrix
        )

    @pytest.mark.parametrize(
        "order, message",
        [
            ([0, 2, 1, 3, 4], "smaller than its child"),  # leaf 1 hangs below inner node 2
            ([0, 1, 4, 2, 3], "pre-order"),  # breadth-first ids: leaf 2 is the right-most
        ],
        ids=["child-before-parent", "breadth-first"],
    )
    def test_tree_not_in_pre_order_refused(self, order, message):
        model = TtnModel.random(6, 3, init_bond=4, seed=6)
        new_id = {old: k for k, old in enumerate(order)}
        parents = [new_id.get(model.parents[old], -1) for old in order]
        with pytest.raises(DataError, match=message):
            TtnModel([model.tensors[old] for old in order], parents, 6)

    def test_tree_with_too_few_leaves_refused(self):
        model = TtnModel.random(6, 3, init_bond=4, seed=6)
        with pytest.raises(DataError, match="3 leaves cannot carry 7 features"):
            TtnModel(model.tensors, model.parents, 7)
        with pytest.raises(DataError, match="4 tensors for 5 nodes"):
            TtnModel(model.tensors[:-1], model.parents, 6)

    @staticmethod
    def rebuilt(model, tensors):
        """A model of ``model``'s kind and graph on other tensors."""
        if isinstance(model, MpsModel):
            return MpsModel(tensors)
        return TtnModel(tensors, model.parents, model.n_features)

    def test_feature_legs_of_unequal_extent_refused(self, model):
        """Caught where the model is made, not later in a transfer as a numpy error."""
        tensors = list(model.tensors)
        u, ax = next(
            (u, ax) for u in range(1, model.n_nodes)
            for ax, (kind, _) in enumerate(model.axis_spec(u)) if kind == "phys"
        )
        tensors[u] = np.take(tensors[u], [0, 1], axis=ax)
        with pytest.raises(DimensionError, match=r"unequal extents \[2, 3\]"):
            self.rebuilt(model, tensors)

    def test_node_of_the_wrong_rank_refused(self, model):
        tensors = list(model.tensors)
        tensors[1] = tensors[1][..., None]
        with pytest.raises(DimensionError, match="node 1 must be rank 3, got rank 4"):
            self.rebuilt(model, tensors)

    def test_every_node_is_stored_up_bond_first(self, model):
        """One node shape for both kinds, ``(up, in0, in1)``; node 0's up bond has no node behind it."""
        assert model.axis_spec(0)[0] == ("bond", -1)
        assert model.tensors[0].shape[0] == 1
        for u in range(1, model.n_nodes):
            assert model.tensors[u].ndim == 3
            kind, up = model.axis_spec(u)[0]
            assert kind == "bond" and 0 <= up < u  # the parent, in pre-order

    def test_bond_without_a_neighbor_must_have_extent_1(self, model):
        """Node 0's up bond, and the last MPS site's right bond, end the network."""
        ends = [(0, 0)] + [(model.n_nodes - 1, 2)] * isinstance(model, MpsModel)
        for u, ax in ends:
            tensors = list(model.tensors)
            tensors[u] = np.concatenate([tensors[u]] * 2, axis=ax)
            with pytest.raises(DimensionError, match=f"node {u}'s bond without a neighbor "
                                                     "must have extent 1"):
                self.rebuilt(model, tensors)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize(
    "entry",
    ["log_amplitudes", "nll_loss", "score_samples", "fit", "fit-no-sweeps", "two_site_gradient"],
)
def test_non_finite_encoded_batch_refused(entry, value):
    """Not taken for a zero-amplitude sample: the first bad sample and feature are named."""
    model = MpsModel.random(6, 3, init_bond=3, seed=1)
    encoded = helpers.random_encoded(np.random.default_rng(0), 40, 6, 3)
    encoded[17, 4, 1] = encoded[30, 0, 0] = value
    calls = {
        "log_amplitudes": lambda: model.log_amplitudes(encoded),
        "nll_loss": lambda: nll_loss(model, encoded),
        "score_samples": lambda: score_samples(model, encoded),
        "fit": lambda: fit(model, encoded, TrainConfig(sweeps=1, batch_size=None)),
        "fit-no-sweeps": lambda: fit(model, encoded, TrainConfig(sweeps=0)),
        "two_site_gradient": lambda: two_site_gradient(
            model, (0, 1), model.merge_edge((0, 1)), encoded
        ),
    }
    with pytest.raises(DataError, match="non-finite value at sample 17, feature 4"):
        calls[entry]()


def test_long_chain_sweep_walk():
    """The walk keeps its own stack: a chain longer than the recursion limit walks."""
    model = MpsModel([np.ones((1, 2, 1))] * 1500)
    right = [(i, i + 1) for i in range(1499)]
    left = [(i + 1, i) for i in reversed(range(1499))]
    assert model.sweep_schedule() == right + left


@pytest.fixture(params=["mps", "ttn", "ttn-padded"])
def scoring_model(request):
    if request.param == "mps":
        return MpsModel.random(6, 3, init_bond=4, seed=13)
    if request.param == "ttn":
        return TtnModel.random(8, 3, init_bond=4, seed=14)
    return TtnModel.random(7, 3, init_bond=4, seed=15)  # 7 features, one dummy


def one_pass(model, encoded):
    """The amplitude pass over the whole batch as a single block."""
    log_abs, sign = np.empty(len(encoded)), np.empty(len(encoded))
    model._block_log_amplitudes(encoded, log_abs, sign)
    return log_abs, sign


# rows of each block the pass walks, for a batch of the given size
BLOCKS = {
    0: [],
    1: [1],
    BLOCK_ROWS - 1: [BLOCK_ROWS - 1],
    BLOCK_ROWS: [BLOCK_ROWS],
    BLOCK_ROWS + 1: [BLOCK_ROWS + 1],
    2 * BLOCK_ROWS - 1: [2 * BLOCK_ROWS - 1],
    2 * BLOCK_ROWS: [BLOCK_ROWS, BLOCK_ROWS],
    2 * BLOCK_ROWS + 7: [BLOCK_ROWS, BLOCK_ROWS + 7],  # a remainder joins the last full block
}


class TestBlockedAmplitudePass:
    @pytest.mark.parametrize("n_rows", sorted(BLOCKS))
    def test_blocks_and_bits(self, scoring_model, n_rows, monkeypatch):
        """The pass walks the batch in bounded blocks, each read in place, and
        gives the bits of a block-by-block loop and of one pass over every row."""
        model = scoring_model
        rng = np.random.default_rng(n_rows)
        encoded = helpers.random_encoded(rng, n_rows, model.n_features, model.phys_dim)
        seen = []
        block_pass = type(model)._block_log_amplitudes

        def spy(self, block, log_abs, sign):
            assert block.shape[1:] == (model.n_features, model.phys_dim)
            seen.append(len(block))
            block_pass(self, block, log_abs, sign)

        monkeypatch.setattr(type(model), "_block_log_amplitudes", spy)
        log_abs, sign = model.log_amplitudes(encoded)
        assert seen == BLOCKS[n_rows]
        assert log_abs.shape == sign.shape == (n_rows,)
        assert log_abs.dtype == sign.dtype == np.float64
        monkeypatch.undo()

        bounds = np.cumsum([0] + BLOCKS[n_rows])
        loop = [model.log_amplitudes(encoded[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        want_log, want_sign = one_pass(model, encoded)
        np.testing.assert_array_equal(log_abs, want_log)
        np.testing.assert_array_equal(sign, want_sign)
        if loop:
            np.testing.assert_array_equal(log_abs, np.concatenate([p[0] for p in loop]))
            np.testing.assert_array_equal(sign, np.concatenate([p[1] for p in loop]))

    @pytest.mark.parametrize("n_rows", sorted(BLOCKS))
    def test_raw_rows_give_the_bits_of_their_encoding(self, scoring_model, n_rows, monkeypatch):
        """Raw rows are encoded one block at a time, never more than a block
        at once, and score to the bits of the whole batch encoded first."""
        model = scoring_model
        rng = np.random.default_rng(100 + n_rows)
        # fitted on other rows, so some raw values fall outside and are clamped
        model.encoder = LegendreFeatureMap(
            model.phys_dim, fit_rescaler(rng.normal(size=(50, model.n_features)))
        )
        raw = rng.normal(size=(n_rows, model.n_features))
        want = model.log_amplitudes(model.encoder.encode_batch(raw))
        want_scores = score_samples(model, model.encoder.encode_batch(raw))
        encoded_rows = []
        encode = LegendreFeatureMap.encode_batch

        def spy(self, block):
            encoded_rows.append(len(block))
            return encode(self, block)

        monkeypatch.setattr(LegendreFeatureMap, "encode_batch", spy)
        got = model.log_amplitudes(raw)
        assert encoded_rows == BLOCKS[n_rows]
        assert max(encoded_rows, default=0) < 2 * BLOCK_ROWS
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(score_samples(model, raw), want_scores)

    @pytest.mark.parametrize(
        "n_rows", [BLOCK_ROWS + 2, BLOCK_ROWS + 8, BLOCK_ROWS + 48, 2 * BLOCK_ROWS + 5]
    )
    def test_small_remainder_at_bond_40_gives_the_bits_of_one_pass(self, n_rows):
        """At bond 40 the BLAS multiplies a block of a few dozen rows by
        another route than a large one, which rounds some rows differently;
        no such block is made."""
        model = MpsModel.random(36, 5, init_bond=40, seed=1)
        encoded = helpers.random_encoded(np.random.default_rng(n_rows), n_rows, 36, 5)
        for got, want in zip(model.log_amplitudes(encoded), one_pass(model, encoded)):
            np.testing.assert_array_equal(got, want)

    def test_raw_rows_are_checked(self, scoring_model):
        model = scoring_model
        raw = np.zeros((3, model.n_features))
        with pytest.raises(DataError, match="encoder"):
            model.log_amplitudes(raw)  # no encoder to encode them
        model.encoder = LegendreFeatureMap(model.phys_dim, helpers.unit_rescaler(model.n_features))
        with pytest.raises(DataError, match="features"):
            model.log_amplitudes(np.zeros((0, model.n_features + 1)))
        with pytest.raises(DataError):
            model.log_amplitudes(np.zeros((3, model.n_features, 1)))

    def test_matches_brute_force_across_block_edges(self, scoring_model):
        model = scoring_model
        n_rows = 2 * BLOCK_ROWS + 7
        rng = np.random.default_rng(16)
        encoded = helpers.random_encoded(rng, n_rows, model.n_features, model.phys_dim)
        log_abs, sign = model.log_amplitudes(encoded)
        for r in (0, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS, n_rows - 1):
            want_log, want_sign = helpers.brute_log_amplitude(model, encoded[r])
            assert log_abs[r] == pytest.approx(want_log, abs=1e-12, rel=0.0)
            assert sign[r] == want_sign

    def test_encoded_view_gives_the_bits_of_its_contiguous_copy(self, scoring_model):
        """``encode_batch`` returns a strided view; blocks slice it without a copy."""
        model = scoring_model
        rng = np.random.default_rng(17)
        raw = rng.normal(size=(BLOCK_ROWS + 40, model.n_features))
        encoder = LegendreFeatureMap(model.phys_dim, fit_rescaler(raw))
        view = encoder.encode_batch(raw)
        assert not view.flags.c_contiguous
        got = model.log_amplitudes(view)
        want = model.log_amplitudes(np.ascontiguousarray(view))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestBatchMemory:
    """numpy reports its buffers to ``tracemalloc``, so a traced peak counts every array."""

    def test_scoring_raw_rows_holds_one_block(self):
        n_rows, n_features, phys_dim = 20_000, 57, 5
        raw = np.random.default_rng(18).normal(size=(n_rows, n_features))
        encoder = LegendreFeatureMap(phys_dim, fit_rescaler(raw))
        model = TtnModel.random(n_features, phys_dim, init_bond=4, seed=19, encoder=encoder)
        full_encoding = n_rows * n_features * phys_dim * 8  # 45.6 MB
        tracemalloc.start()
        try:
            score_samples(model, raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_encoding / 4

    def test_environment_cache_does_not_copy_the_batch(self):
        """A padded tree's cache reads the caller's batch: no array it keeps,
        and none it drops on the way, comes near the batch's size."""
        n_rows, n_features, phys_dim = 4000, 57, 5
        model = TtnModel.random(n_features, phys_dim, init_bond=4, seed=20)
        assert model.padding == 1
        encoded = helpers.random_encoded(np.random.default_rng(21), n_rows, n_features, phys_dim)
        tracemalloc.start()
        try:
            env = model.environment_cache(encoded)
            kept, peak = tracemalloc.get_traced_memory()
            largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
        finally:
            tracemalloc.stop()
        assert env.n_samples == n_rows
        assert largest < encoded.nbytes / 10
        assert peak - kept < encoded.nbytes / 10
