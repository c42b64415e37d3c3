"""The engine both model kinds share: canonical moves, the environment cache, two-site layout."""

import ast
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
import tnad
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
from tnad.network import BLOCK_ROWS, node_message, node_shapes, up_bond_extents
from tnad.training import _contract_fractions, _leg_gram


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
    reference = list(model.tensors)  # moves replace cores, never write into them
    model.canonicalize(3)
    for c in range(3):
        dl, n, dr = reference[c].shape
        q, r = np.linalg.qr(reference[c].reshape(dl * n, dr))
        reference[c] = q.reshape(dl, n, -1)
        np.testing.assert_array_equal(model.tensors[c], reference[c])
        reference[c + 1] = np.tensordot(r, reference[c + 1], axes=(1, 0))
    np.testing.assert_array_equal(model.tensors[3], reference[3])
    model.canonicalize(1)
    for c in (3, 2):
        dl, n, dr = reference[c].shape
        q, r = np.linalg.qr(reference[c].reshape(dl, n * dr).T)
        np.testing.assert_array_equal(model.tensors[c], q.T.reshape(-1, n, dr))
        reference[c - 1] = np.tensordot(reference[c - 1], r.T, axes=(2, 0))
    np.testing.assert_array_equal(model.tensors[1], reference[1])


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
        got, got_log, got_legs = env.factors(next_edge)
        want, want_log, want_legs = model.environment_cache(batch).factors(next_edge)
        assert (len(got), len(got_legs)) == (len(want), len(want_legs))
        for a, b in zip(got + got_legs, want + want_legs):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(got_log, want_log)


def test_leg_gram_is_the_factor_pair_gram_at_every_edge(model):
    """At every edge of a sweep the step's legs rebuild its factor pair, and the
    entrywise product of their Gram matrices is ``(L Lᵀ) ∘ (R Rᵀ)``: on the
    MPS's end edges with the unit operand of the bond to no node, and on the
    tree's padded leaf with its dummy feature."""
    rng = np.random.default_rng(8)
    batch = np.abs(helpers.random_encoded(rng, 24, model.n_features, model.phys_dim)) + 0.2
    env = model.environment_cache(batch)
    config = TrainConfig(learning_rate=5e-3, inner_steps=2, svd_rel_threshold=0.0)
    unit_edges = dummy_edges = 0
    for edge in model.sweep_schedule():
        (left, right), _, legs = env.factors(edge)
        n_left = model.tensors[edge[0]].ndim - 1
        unit_edges += any(a.shape[1] == 1 and np.all(a == 1.0) for a in legs)
        dummy_edges += any(a.strides[0] == 0 and a.shape[1] > 1 for a in legs)
        for factor, part in ((left, legs[:n_left]), (right, legs[n_left:])):
            kron = part[0]
            for a in part[1:]:
                kron = np.einsum("bi,bj->bij", kron, a).reshape(len(kron), -1)
            np.testing.assert_array_equal(factor, kron)
        got = _leg_gram(legs)
        want = (left @ left.T) * (right @ right.T)
        bound = (np.abs(left) @ np.abs(left).T) * (np.abs(right) @ np.abs(right).T)
        assert np.all(np.abs(got - want) <= 1e-12 * bound)
        two_site_step(model, edge, env, None, 5e-3, config)
    assert unit_edges >= 2  # the edges at an end of the chain, or at the tree's root
    # the padded leaf's two steps read its dummy feature's broadcast leg
    assert dummy_edges == (2 if isinstance(model, TtnModel) else 0)


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
    (left, right), log_scale, _ = model.environment_cache(batch).factors(edge)
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


def random_preorder_tree(rng, n_leaves):
    """Parent list of a binary tree whose leaf counts split at random, numbered in pre-order."""
    parents = []

    def build(count, parent):
        idx = len(parents)
        parents.append(parent)
        if count > 1:
            left = int(rng.integers(1, count))
            build(left, idx)
            build(count - left, idx)

    build(n_leaves, -1)
    return parents


def legs_below_and_above(parents, legs):
    """Feature legs in each node's subtree and outside it, counted by walking the subtree."""
    children = [[c for c, p in enumerate(parents) if p == u] for u in range(len(parents))]
    counts = []
    for u in range(len(parents)):
        subtree, stack = set(), [u]
        while stack:
            w = stack.pop()
            subtree.add(w)
            stack.extend(children[w])
        below = sum(legs[w] for w in subtree)
        counts.append((below, sum(legs) - below))
    return counts


def test_one_cap_rule_matches_legs_counted_by_brute_force():
    """Chains of 2-140 sites, the balanced trees of 3-140 features and random pre-order trees."""
    rng = np.random.default_rng(0)
    layouts = [(list(range(-1, width - 1)), [1] * width) for width in range(2, 141)]
    for width in range(3, 141):
        tree = TtnModel.random(width, 2, init_bond=1)
        layouts.append((tree.parents, [2 * (c is None) for c in tree.children]))
    for n_leaves in rng.integers(2, 71, size=40):
        parents = random_preorder_tree(rng, int(n_leaves))
        layouts.append((parents, [0 if u in parents else 2 for u in range(len(parents))]))
    for parents, legs in layouts:
        counts = legs_below_and_above(parents, legs)
        assert counts[0][1] == 0
        for phys_dim in (2, 4, 5):
            for init_bond in (1, 2, 16, 40):
                assert up_bond_extents(parents, legs, phys_dim, init_bond) == [
                    min(init_bond, phys_dim**below, phys_dim**above) for below, above in counts
                ]


def test_seeded_start_has_the_capped_bonds():
    chain = MpsModel.random(9, 3, init_bond=16, seed=2)
    assert chain.bond_profile() == up_bond_extents(range(-1, 8), [1] * 9, 3, 16)[1:]
    tree = TtnModel.random(13, 2, init_bond=5, seed=2)
    legs = [2 * (c is None) for c in tree.children]
    assert tree.bond_profile() == up_bond_extents(tree.parents, legs, 2, 5)[1:]


def former_axis_spec(model, u):
    """Node ``u``'s axes as each model kind once wrote them out for itself."""
    if isinstance(model, MpsModel):
        return [("bond", u - 1), ("phys", u), ("bond", u + 1)]
    if model.children[u] is None:  # the k-th leaf, left to right, carries (2k, 2k + 1)
        k = model.leaf_ids().index(u)
        return [("bond", model.parents[u]), ("phys", 2 * k), ("phys", 2 * k + 1)]
    return [("bond", model.parents[u])] + [("bond", c) for c in model.children[u]]


@pytest.mark.parametrize("phys_dim", [2, 5])
def test_engine_rule_reproduces_both_former_layouts(phys_dim):
    """Chains of 2-140 sites and the trees of 3-140 features, odd widths and
    even: the axes the engine derives from a parent list and feature legs are
    the ones each kind wrote out, the bond profile is the old per-edge
    reading, and ``node_shapes`` gives the seeded tensors' shapes."""
    chains = [(MpsModel.random(w, phys_dim, init_bond=3, seed=w), list(range(-1, w - 1)), [1] * w)
              for w in range(2, 141)]
    trees = []
    for w in range(3, 141):
        tree = TtnModel.random(w, phys_dim, init_bond=3, seed=w)
        trees.append((tree, tree.parents, [2 * (c is None) for c in tree.children]))
    for model, parents, legs in chains + trees:
        assert model.parents == parents
        for u in range(model.n_nodes):
            assert model.axis_spec(u) == former_axis_spec(model, u)
        edges = [(u, v) for v in range(model.n_nodes) for u in model.neighbors(v) if u < v]
        assert model.bond_profile() == [model.tensors[v].shape[model.axis_to(v, u)]
                                        for u, v in edges]
        bonds = up_bond_extents(parents, legs, phys_dim, 3)
        assert node_shapes(parents, legs, bonds, phys_dim) == [t.shape for t in model.tensors]


def test_model_kinds_keep_no_layout_rule_of_their_own():
    """The engine derives every node's axes and tensor shape from a kind's
    parent list and feature legs; ``mps.py`` and ``ttn.py`` define no
    ``axis_spec``, no shape rule and no bond cap, and build no shapes."""
    root = Path(tnad.__file__).resolve().parent
    for name in ("mps.py", "ttn.py"):
        tree = ast.parse((root / name).read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not defined & {"axis_spec", "node_shapes"}, name
        assert not named & {"shapes", "up_bond_extents", "node_shapes"}, name


class TestConstructionChecks:
    """A model's tensors are checked against its graph once, where it is made."""

    def test_tree_is_described_by_its_parents(self):
        """Children, leaf features, dummy features and the center follow from
        the parent list: a padded tree rebuilt from it pins its dummy feature."""
        model = TtnModel.random(5, 3, init_bond=4, seed=0)
        twin = TtnModel(model.tensors, model.parents, 5)
        assert twin.children == model.children
        assert [twin.axis_spec(u) for u in range(twin.n_nodes)] == [
            model.axis_spec(u) for u in range(model.n_nodes)
        ]
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

    @pytest.mark.parametrize("n_features", [1, 4])
    def test_tree_with_more_than_one_dummy_feature_refused(self, n_features):
        """A tree holds at most the one dummy feature that pads an odd count."""
        model = TtnModel.random(6, 3, init_bond=4, seed=6)
        assert TtnModel(model.tensors, model.parents, 5).padding == 1
        with pytest.raises(DataError, match=f"3 leaves would carry {n_features} features "
                                            f"and {6 - n_features} dummy ones"):
            TtnModel(model.tensors, model.parents, n_features)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_refused(self, model, value):
        """Refused where the model is made, before a score reads it as a vanishing amplitude."""
        for u in (0, model.n_nodes - 1):
            tensors = list(model.tensors)
            tensors[u] = tensors[u].copy()
            tensors[u].flat[-1] = value
            with pytest.raises(DataError, match=f"node {u} holds a non-finite entry"):
                self.rebuilt(model, tensors)

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
    """Not taken for a zero-amplitude sample: the first bad sample and feature
    are named, in an encoded batch and in raw rows alike, before any sweep."""
    model = MpsModel.random(6, 3, init_bond=3, seed=1)
    model.encoder = LegendreFeatureMap(3, helpers.unit_rescaler(6))
    rng = np.random.default_rng(0)
    encoded = helpers.random_encoded(rng, 40, 6, 3)
    encoded[17, 4, 1] = encoded[30, 0, 0] = value
    raw = rng.uniform(size=(40, 6))
    raw[17, 4] = raw[30, 0] = value
    for batch, form in ((encoded, "encoded batch holds"), (raw, "raw rows hold")):
        calls = {
            "log_amplitudes": lambda: model.log_amplitudes(batch),
            "nll_loss": lambda: nll_loss(model, batch),
            "score_samples": lambda: score_samples(model, batch),
            "fit": lambda: fit(model, batch, TrainConfig(sweeps=1, batch_size=None)),
            "fit-no-sweeps": lambda: fit(model, batch, TrainConfig(sweeps=0)),
            "two_site_gradient": lambda: two_site_gradient(
                model, (0, 1), model.merge_edge((0, 1)), batch
            ),
        }
        with pytest.raises(DataError, match=f"{form} a non-finite value at sample 17, feature 4"):
            calls[entry]()


@pytest.mark.parametrize("shape", ["row", "4-D", "wide"])
@pytest.mark.parametrize(
    "entry",
    ["log_amplitudes", "score_samples", "nll_loss", "fit", "two_site_gradient", "environment_cache"],
)
def test_one_refusal_for_both_input_forms(model, entry, shape):
    """A batch that is neither raw rows nor an encoded batch is refused by
    every entry point with one message naming both shapes."""
    n, d = model.n_features, model.phys_dim
    model.encoder = LegendreFeatureMap(d, helpers.unit_rescaler(n))
    batch = np.full({"row": (n,), "4-D": (4, n, d, 1), "wide": (4, n + 1)}[shape], 0.5)
    edge = model.sweep_schedule()[0]
    calls = {
        "log_amplitudes": lambda: model.log_amplitudes(batch),
        "score_samples": lambda: score_samples(model, batch),
        "nll_loss": lambda: nll_loss(model, batch),
        "fit": lambda: fit(model, batch, TrainConfig(sweeps=1)),
        "two_site_gradient": lambda: two_site_gradient(model, edge, model.merge_edge(edge), batch),
        "environment_cache": lambda: model.environment_cache(batch),
    }
    message = (f"batch has shape {batch.shape}; a model of {n} features takes raw rows "
               f"(n, {n}) or an encoded batch (n, {n}, {d})")
    with pytest.raises(DataError, match=re.escape(message)):
        calls[entry]()


@pytest.mark.parametrize("entry", ["score_samples", "fit"])
def test_raw_rows_need_an_encoder_as_wide_as_the_feature_legs(model, entry):
    """An encoder of another width would have its rows cut short in a
    transfer, or fail there as a numpy error; raw rows are refused first."""
    raw = np.full((4, model.n_features), 0.5)
    model.encoder = LegendreFeatureMap(model.phys_dim + 2, helpers.unit_rescaler(model.n_features))
    call = {"score_samples": lambda: score_samples(model, raw),
            "fit": lambda: fit(model, raw, TrainConfig(sweeps=1))}[entry]
    with pytest.raises(DataError, match=f"encoder of {model.phys_dim} functions"):
        call()


@pytest.mark.parametrize("batch_size", [64, None], ids=["batch64", "full-batch"])
@pytest.mark.parametrize(
    "kind, n_features, bond",
    [("mps", 36, 40), ("ttn", 57, 16)],
    ids=["mps36-bond40", "ttn57-padded-bond16"],
)
def test_raw_rows_train_to_the_bits_of_their_encoding(kind, n_features, bond, batch_size):
    """``fit`` on raw rows gives the tensors, trace and discarded weights of
    ``fit`` on ``encode_batch(rows)``, a strided view, with drawn batches and
    full-batch. Drawn rows of a leg reach the products C-contiguous, so
    there the view's copy gives the same bits too; a full batch keeps its
    layout, and on the MPS the copy trains to other bits (README)."""
    raw = np.random.default_rng(30).normal(size=(400, n_features))
    encoder = LegendreFeatureMap(5, fit_rescaler(raw))
    model_cls = MpsModel if kind == "mps" else TtnModel
    config = TrainConfig(sweeps=1, batch_size=batch_size, max_bond=bond, seed=32)
    encoded = encoder.encode_batch(raw)
    assert not encoded.flags.c_contiguous
    models, reports = [], []
    batches = [raw, encoded] + ([np.ascontiguousarray(encoded)] if batch_size else [])
    for batch in batches:
        models.append(model_cls.random(n_features, 5, init_bond=2, seed=31, encoder=encoder))
        reports.append(fit(models[-1], batch, config))
    assert max(models[0].bond_profile()) == bond
    for other, report in zip(models[1:], reports[1:]):
        for ours, theirs in zip(models[0].tensors, other.tensors):
            np.testing.assert_array_equal(ours, theirs)
        assert report.nll_trace == reports[0].nll_trace
        assert report.discarded_weights == reports[0].discarded_weights


def test_cache_copies_only_the_legs_of_picked_rows(model):
    """The amplitude pass and the cache read an encoded leg of every row as a
    view of the batch, a raw one in ``encode_unit``'s column-major layout and
    a dummy one as a broadcast row; picked rows of a leg, from raw values,
    ``encode_batch``'s strided view or its copy, come C-contiguous, the
    layout in which the rows of an encoded batch trained before."""
    rng = np.random.default_rng(33)
    raw = rng.uniform(size=(20, model.n_features))
    model.encoder = LegendreFeatureMap(model.phys_dim, helpers.unit_rescaler(model.n_features))
    encoded = model.encoder.encode_batch(raw)
    batches = (raw, encoded, encoded.copy())
    envs = [model.environment_cache(b) for b in batches]
    rows = rng.choice(20, 7, replace=False)
    _, toward = model._orientation(model.center)
    checked = 0
    for u in range(model.n_nodes):
        # every operand of u but the message it would send toward the center
        skip = model.axis_to(u, model.neighbors(u)[0] if u == model.center else toward[u])
        ins = [spec for ax, spec in enumerate(model.axis_spec(u)) if ax != skip]
        for pick in (None, rows):
            wants, _ = envs[1]._operands(u, skip, pick)
            for env, batch in zip(envs, batches):
                legs, _ = env._operands(u, skip, pick)
                for (kind, f), leg, want in zip(ins, legs, wants, strict=True):
                    if kind != "phys":
                        continue
                    checked += 1
                    np.testing.assert_array_equal(leg, want)
                    if pick is not None:
                        assert leg.flags.c_contiguous
                    elif f >= model.n_features:
                        assert leg.strides[0] == 0
                    elif batch.ndim == 3:
                        assert np.shares_memory(leg, batch)
                    else:
                        assert leg.flags.f_contiguous
    assert checked == 2 * len(batches) * (model.n_features + model.padding)


def eager_message(model, encoded, u, v):
    """Message ``u -> v`` out of leaf ``u`` for every row, pushed as soon as
    ``u`` changes, the way a cache of every bond's message computed it."""
    out_axis = model.axis_to(u, v)
    operands = []
    for ax, (kind, ref) in enumerate(model.axis_spec(u)):
        if ax == out_axis:
            continue
        if kind == "phys":
            operands.append(model.feature_leg(encoded, ref))
        else:  # a leaf's other bond has no node behind it
            operands.append(np.ones((len(encoded), 1)))
    return node_message(model.tensors[u], model.axis_spec(u), out_axis, operands,
                        np.zeros(len(encoded)))


@pytest.mark.parametrize("full_batch", [False, True], ids=["batch16", "full-batch"])
@pytest.mark.parametrize("kind", ["mps", "ttn"])
def test_cache_invariants_across_a_sweep(kind, full_batch):
    """After every step of a sweep the cache holds the inner bonds that point
    at the center, and with drawn batches nothing else; a full-batch step
    also keeps leaf messages toward the center. A leaf message, read for
    every row or for some, is those rows of the eager all-rows message, bit
    for bit; and the start leaf's amplitudes give ``nll_loss``."""
    rng = np.random.default_rng(34)
    raw = rng.uniform(size=(300, 9))
    encoder = LegendreFeatureMap(3, fit_rescaler(raw))
    model_cls = MpsModel if kind == "mps" else TtnModel
    model = model_cls.random(9, 3, init_bond=6, seed=35, encoder=encoder)
    encoded = encoder.encode_batch(raw)
    env = model.environment_cache(raw)
    inner = {u for u in range(model.n_nodes) if len(model.neighbors(u)) > 1}
    leaves = sorted(set(range(model.n_nodes)) - inner)
    config = TrainConfig(learning_rate=5e-3, inner_steps=2)
    kept_any = False
    for edge in model.sweep_schedule():
        rows = None if full_batch else rng.choice(300, 16, replace=False)
        assert two_site_step(model, edge, env, rows, 5e-3, config).error is None
        _, toward = model._orientation(model.center)
        inner_bonds = {(u, v) for u, v in toward.items() if u in inner and v in inner}
        kept = set(env._messages) - inner_bonds
        assert inner_bonds <= set(env._messages)
        assert kept <= {(u, v) for u, v in toward.items() if u in leaves} if full_batch else not kept
        kept_any = kept_any or bool(kept)
        for u in leaves:
            if u == model.center:
                continue
            (v,) = model.neighbors(u)
            want, want_log = eager_message(model, encoded, u, v)
            got, got_log = env.message(u, v)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(got_log, want_log)
            for pick in (rng.choice(300, 16, replace=False), rng.choice(300, 2, replace=False),
                         rng.choice(300, 64, replace=False), rng.choice(300, 255, replace=False)):
                got, got_log = env.message(u, v, pick)
                np.testing.assert_array_equal(got, want[pick])
                np.testing.assert_array_equal(got_log, want_log[pick])
    assert kept_any == full_batch
    assert model.center == model.sweep_start() and model.center in leaves
    psi, log_scale = env.amplitudes()
    nll = -2.0 * float(np.mean(np.log(np.abs(psi)) + log_scale))
    assert nll == pytest.approx(nll_loss(model, raw), abs=1e-12, rel=0.0)


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

    def test_fit_on_raw_rows_holds_less_than_an_encoding_and_every_message(self):
        """Training holds neither an encoded copy of its rows nor a message per
        edge: its traced peak stays under the bytes of the encoded batch plus
        one float64 ``(rows, bond)`` message on every edge of the fitted model,
        a fit's live set when it kept both."""
        n_rows, n_features, phys_dim = 2000, 57, 5
        raw = np.random.default_rng(22).normal(size=(n_rows, n_features))
        encoder = LegendreFeatureMap(phys_dim, fit_rescaler(raw))
        model = TtnModel.random(n_features, phys_dim, init_bond=16, seed=23, encoder=encoder)
        assert model.padding == 1
        tracemalloc.start()
        try:
            fit(model, raw, TrainConfig(sweeps=2, max_bond=16, seed=24))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        encoding = n_rows * n_features * phys_dim * 8
        messages = sum(n_rows * bond * 8 for bond in model.bond_profile())
        assert peak < encoding + messages
        # 28 inner nodes: 27 inner bonds of the 56
        assert len(model.bond_profile()) == 56
        assert len(model.environment_cache(raw[:10])._messages) == 27

    def test_mps_fit_holds_a_message_of_every_row_on_few_inner_bonds(self):
        """An MPS fit keeps a message of every row only while a push or the
        sweep's NLL still reads it, and then the rows of the one step left to
        read it: its traced peak stays under a message of a step's rows plus
        half a message of every row on every inner bond. A cache that keeps
        every message whole holds a message of every row on every inner bond
        (20.6 MB here), on top of the rest of the fit."""
        n_rows, n_features, phys_dim, bond, batch_size = 2000, 36, 5, 40, 256
        raw = np.random.default_rng(45).normal(size=(n_rows, n_features))
        encoder = LegendreFeatureMap(phys_dim, fit_rescaler(raw))
        model = MpsModel.random(n_features, phys_dim, init_bond=bond, seed=46, encoder=encoder)
        tracemalloc.start()
        try:
            fit(model, raw, TrainConfig(sweeps=2, max_bond=bond, batch_size=batch_size, seed=47))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        inner = model.bond_profile()[1:-1]  # the bonds between sites 1 to 34
        assert len(inner) == 33 and max(inner) == bond
        every_row = sum(n_rows * b * 8 for b in inner)
        step_rows = sum(batch_size * b * 8 for b in inner)
        assert peak < every_row / 2 + step_rows
