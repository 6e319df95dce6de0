"""Network-level tests: encoder contract, teacher forcing, constrained decoding."""

import gc
import json
import warnings
import weakref

import numpy as np
import pytest
from conftest import per_class_oracle_scores
from hypothesis import given, settings
from hypothesis import strategies as st

from harseq.errors import DimensionError, FormatError, NumericError, ValidationError
from harseq.labelspace import END_ID, START_ID, build_label_space
from harseq.model import (
    CHECKPOINT_NAME,
    MANIFEST_NAME,
    EncoderConfig,
    ShareModel,
    VanillaModel,
    constrained_decode,
    count_parameters,
    load_model,
    save_model,
    snapshot_parameters,
    teacher_forced_loss,
    trie_walk,
    vanilla_forward,
)
from harseq.numkernel import (
    Conv1d,
    Linear,
    finite_difference_grad,
    log_softmax,
    max_relative_error,
    softmax_cross_entropy,
)

TOY_ENC = EncoderConfig(in_channels=2, conv_channels=(3, 4))
WORDS = ("open", "close", "door", "drawer", "walk", "up", "1", "2")


def toy_share(names=("go left", "go right"), seed=0, hidden=5, embed=3):
    space = build_label_space(list(names))
    rng = np.random.default_rng(seed)
    model = ShareModel(space, TOY_ENC, hidden_dim=hidden, embed_dim=embed, rng=rng)
    return model, space


def warm_batchnorm(model, rng, t=8, batch=4):
    x = rng.normal(size=(batch, model.encoder_config.in_channels, t))
    model.encoder.forward(x, "train", cache=False)


def trie_nodes_with_children(space):
    count, stack = 0, [space.root]
    while stack:
        node = stack.pop()
        count += bool(node.children)
        stack.extend(node.children.values())
    return count


def zero_parameters(model):
    for p in model.parameters().values():
        p.data[:] = 0.0


class TestEncode:
    def test_zero_input_zero_features(self):
        model, _ = toy_share()
        x = np.zeros((2, 2, 8))
        model.encoder.forward(x, "train", cache=False)  # populate running stats
        z = model.encoder.forward(x, "eval", cache=False)
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_output_shape_contract(self):
        model, _ = toy_share()
        rng = np.random.default_rng(1)
        warm_batchnorm(model, rng)
        for t in (3, 5, 16, 33):
            z = model.encoder.forward(rng.normal(size=(4, 2, t)), "eval", cache=False)
            assert z.shape == (4, TOY_ENC.feature_dim)

    def test_too_few_timesteps(self):
        model, _ = toy_share()
        with pytest.raises(ValidationError, match="timesteps"):
            model.encoder.forward(np.zeros((1, 2, 2)), "train", cache=False)

    def test_channel_mismatch(self):
        model, _ = toy_share()
        with pytest.raises(DimensionError, match="channel"):
            model.encoder.forward(np.zeros((1, 3, 8)), "train", cache=False)

    def test_repeat_doubling_constant_input(self):
        # with the edge taps zeroed there are no boundary padding effects,
        # so pooled features of a constant series are length-invariant exactly
        model, _ = toy_share(seed=3)
        for conv in (model.encoder.conv1, model.encoder.conv2):
            conv.weight.data[:, :, 0] = 0.0
            conv.weight.data[:, :, 2] = 0.0
        x = np.ones((2, 2, 10)) * np.array([0.7, -1.3])[None, :, None]
        model.encoder.forward(x, "train", cache=False)
        z1 = model.encoder.forward(x, "eval", cache=False)
        z2 = model.encoder.forward(np.repeat(x, 2, axis=2), "eval", cache=False)
        np.testing.assert_array_equal(z1, z2)


class TestTeacherForcedLoss:
    def test_uniform_logits_give_log_vocab(self):
        model, space = toy_share()
        zero_parameters(model)
        x = np.random.default_rng(2).normal(size=(3, 2, 8))
        bodies = [list(space.sequences[i % 2].tokens) for i in range(3)]
        loss = teacher_forced_loss(model, x, bodies, space, mode="train")
        np.testing.assert_allclose(loss, np.log(space.vocab_size), rtol=1e-12)

    def test_batch_one_equals_manual_step_mean(self):
        model, space = toy_share(seed=5)
        rng = np.random.default_rng(6)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(1, 2, 8))
        body = list(space.sequences[1].tokens)
        loss = teacher_forced_loss(model, x, [body], space, mode="eval")

        z = model.encoder.forward(x, "eval", cache=False)
        h = model.init_h.forward(z, "eval", cache=False)
        c = model.init_c.forward(z, "eval", cache=False)
        inputs = [START_ID] + body
        targets = body + [END_ID]
        per_step = []
        for tok_in, tok_tgt in zip(inputs, targets):
            logits, h, c = model.decode_step(np.array([tok_in]), h, c)
            step_loss, _ = softmax_cross_entropy(logits, np.array([tok_tgt]))
            per_step.append(step_loss)
        np.testing.assert_allclose(loss, np.mean(per_step), rtol=1e-12)

    def test_token_out_of_vocabulary(self):
        model, space = toy_share()
        with pytest.raises(IndexError, match="vocabulary"):
            teacher_forced_loss(model, np.zeros((1, 2, 8)), [[space.vocab_size]], space)

    def test_empty_target_body_rejected(self):
        model, space = toy_share()
        with pytest.raises(ValidationError, match="empty"):
            teacher_forced_loss(model, np.zeros((1, 2, 8)), [[]], space)

    def test_full_model_gradients_match_finite_differences(self):
        model, space = toy_share(seed=7)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(2, 2, 8))
        bodies = [list(space.sequences[0].tokens), list(space.sequences[1].tokens)]

        def loss():
            return teacher_forced_loss(model, x, bodies, space, mode="train")

        for p in model.parameters().values():
            p.zero_grad()
        teacher_forced_loss(model, x, bodies, space, mode="train", backward=True)
        for name, p in model.parameters().items():
            numeric = finite_difference_grad(loss, p)
            err = max_relative_error(p.grad, numeric)
            assert err < 1e-3, f"{name}: rel err {err:.3e}"


class TestConstrainedDecode:
    def test_single_class_always_predicted(self):
        model, space = toy_share(names=("walk",), seed=9)
        rng = np.random.default_rng(10)
        warm_batchnorm(model, rng)
        results = constrained_decode(model, rng.normal(size=(3, 2, 8)), space)
        for r in results:
            assert r.class_id == 0
            assert r.class_log_probs.shape == (1,)

    def test_scores_match_per_class_oracle(self):
        names = ("open door", "open fridge", "close door", "walk")
        model, space = toy_share(names=names, seed=11)
        rng = np.random.default_rng(12)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(4, 2, 8))
        results = constrained_decode(model, x, space)
        oracle = per_class_oracle_scores(model, space, x)
        for b, r in enumerate(results):
            np.testing.assert_allclose(r.class_log_probs, oracle[b], atol=1e-12)
            assert r.class_id == int(np.argmax(oracle[b]))

    def test_tie_break_lowest_class_id(self):
        model, space = toy_share(names=("aa bb", "cc dd", "ee ff"), seed=13)
        zero_parameters(model)
        warm_batchnorm(model, np.random.default_rng(0))
        results = constrained_decode(model, np.zeros((2, 2, 8)), space)
        for r in results:
            np.testing.assert_allclose(r.class_log_probs, r.class_log_probs[0])
            assert r.class_id == 0

    def test_predictions_always_valid(self):
        names = ("open door", "open drawer 1", "close drawer 1", "walk")
        model, space = toy_share(names=names, seed=16)
        rng = np.random.default_rng(17)
        warm_batchnorm(model, rng)
        for _ in range(5):
            results = constrained_decode(model, rng.normal(size=(3, 2, 8)), space)
            for r in results:
                assert 0 <= r.class_id < space.num_classes

    def test_decoder_steps_bounded_by_trie_nodes(self, monkeypatch):
        names = ("open door", "open fridge", "close door", "close fridge")
        model, space = toy_share(names=names, seed=18)
        rng = np.random.default_rng(19)
        warm_batchnorm(model, rng)
        calls = {"n": 0}
        original = model.lstm.step

        def counting(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(model.lstm, "step", counting)
        constrained_decode(model, rng.normal(size=(2, 2, 8)), space)
        assert calls["n"] <= space.trie_node_count()
        assert calls["n"] == trie_nodes_with_children(space)

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_uneven_trie_matches_oracle_at_small_batches(self, batch):
        names = ("walk", "open door", "open drawer 1")
        model, space = toy_share(names=names, seed=22)
        rng = np.random.default_rng(23)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(batch, 2, 8))
        results = constrained_decode(model, x, space)
        oracle = per_class_oracle_scores(model, space, x)
        assert len(results) == batch
        for b, r in enumerate(results):
            np.testing.assert_allclose(r.class_log_probs, oracle[b], rtol=0, atol=1e-12)
            assert r.class_id == int(np.argmax(oracle[b]))

    def test_saturated_gates_match_oracle_without_warnings(self):
        """Pre-activations of ±800 saturate every sigmoid: e^800 overflows in
        the sign-folded step, which must give a gate of exactly 0 silently."""
        names = ("open door", "open drawer", "open drawer 1", "walk")
        model, space = toy_share(names=names, seed=25)
        rng = np.random.default_rng(26)
        warm_batchnorm(model, rng)
        model.lstm.w_h.data *= 3e4
        x = rng.normal(size=(6, 2, 8))
        z = model.encoder.forward(x, "eval", cache=False)
        h0 = model.init_h.forward(z, "eval", cache=False)
        lstm = model.lstm
        root = model.embed.weight.data[START_ID] @ lstm.w_x.data.T + h0 @ lstm.w_h.data.T
        assert root.max() > 800 and root.min() < -800
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = trie_walk(model, x, space)
        assert np.isfinite(scores).all()
        np.testing.assert_allclose(scores, per_class_oracle_scores(model, space, x),
                                   rtol=0, atol=1e-12)

    def test_node_with_end_marker_and_children_matches_oracle(self):
        names = ("open drawer", "open drawer 1", "walk")
        model, space = toy_share(names=names, seed=27)
        drawer = space.root.children[space.token_strings.index("open")].children[
            space.token_strings.index("drawer")]
        assert END_ID in drawer.children and len(drawer.children) == 2
        rng = np.random.default_rng(28)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(5, 2, 8))
        np.testing.assert_allclose(trie_walk(model, x, space),
                                   per_class_oracle_scores(model, space, x), rtol=0, atol=1e-12)

    def test_trie_of_end_marker_only_leaf_parents_matches_oracle(self):
        names = ("open door", "open drawer", "close door", "walk up")
        model, space = toy_share(names=names, seed=29)
        stack = [space.root]
        while stack:
            node = stack.pop()
            assert END_ID not in node.children or len(node.children) == 1
            stack.extend(node.children.values())
        rng = np.random.default_rng(30)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(5, 2, 8))
        np.testing.assert_allclose(trie_walk(model, x, space),
                                   per_class_oracle_scores(model, space, x), rtol=0, atol=1e-12)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
                    min_size=1, max_size=8, unique=True),
           st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_label_sets_match_oracle(self, names, hidden, embed, batch, seed):
        model, space = toy_share(names=names, seed=seed, hidden=hidden, embed=embed)
        rng = np.random.default_rng(seed)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(batch, 2, 8))
        oracle = per_class_oracle_scores(model, space, x)
        results = constrained_decode(model, x, space)
        scores = np.stack([r.class_log_probs for r in results])
        np.testing.assert_allclose(scores, oracle, rtol=0, atol=1e-12)
        assert [r.class_id for r in results] == oracle.argmax(axis=1).tolist()
        assert np.array_equal(model.class_log_scores(x, space), scores)

    def test_token_outside_model_vocabulary(self):
        model, _ = toy_share(names=("go left", "go right"))
        warm_batchnorm(model, np.random.default_rng(24))
        wider = build_label_space(["go left", "go right", "turn back", "stop now"])
        with pytest.raises(IndexError, match=f"vocabulary of size {model.space.vocab_size}"):
            constrained_decode(model, np.zeros((1, 2, 8)), wider)

    def test_empty_label_space_rejected(self):
        from harseq.labelspace import LabelSpace, TrieNode

        model, _ = toy_share()
        empty = LabelSpace(class_names=(), token_strings=("<s>", "<e>"),
                           sequences=(), stop_token_ids=frozenset(), root=TrieNode())
        with pytest.raises(ValidationError, match="no classes"):
            constrained_decode(model, np.zeros((1, 2, 8)), empty)

    def test_eval_decode_is_pure(self):
        model, space = toy_share(seed=20)
        rng = np.random.default_rng(21)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(2, 2, 8))
        mean_before = model.encoder.bn1.running_mean.copy()
        first = constrained_decode(model, x, space)
        second = constrained_decode(model, x, space)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.class_log_probs, b.class_log_probs)
            assert a.class_id == b.class_id
        np.testing.assert_array_equal(model.encoder.bn1.running_mean, mean_before)

    def test_walk_leaves_no_reference_cycle(self):
        """Reference counting alone frees the model and its [vocab, 4H] table after a walk."""
        model, space = toy_share(names=("open door", "open fridge", "walk"), seed=25)
        warm_batchnorm(model, np.random.default_rng(26))
        x = np.random.default_rng(27).normal(size=(3, 2, 8))
        gc.disable()
        try:
            ref = weakref.ref(model)
            model.class_log_scores(x)
            constrained_decode(model, x, space)
            del model
            assert ref() is None
        finally:
            gc.enable()


class TestVanillaModel:
    def test_single_class_zero_loss(self):
        rng = np.random.default_rng(22)
        model = VanillaModel(1, TOY_ENC, rng=rng)
        loss, logits = vanilla_forward(model, rng.normal(size=(2, 2, 8)), np.array([0, 0]))
        assert logits.shape == (2, 1)
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_uniform_logits_log_c(self):
        model = VanillaModel(4, TOY_ENC, rng=np.random.default_rng(23))
        model.head.weight.data[:] = 0.0
        model.head.bias.data[:] = 0.0
        loss, _ = vanilla_forward(model, np.random.default_rng(24).normal(size=(3, 2, 8)),
                                  np.array([0, 1, 3]))
        np.testing.assert_allclose(loss, np.log(4.0), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(25)
        model = VanillaModel(3, TOY_ENC, rng=rng)
        x = rng.uniform(-1, 1, size=(2, 2, 8))
        targets = np.array([0, 2])

        def loss():
            return vanilla_forward(model, x, targets, mode="train")[0]

        for p in model.parameters().values():
            p.zero_grad()
        vanilla_forward(model, x, targets, mode="train", backward=True)
        for name, p in model.parameters().items():
            err = max_relative_error(p.grad, finite_difference_grad(loss, p))
            assert err < 1e-3, f"{name}: rel err {err:.3e}"

    def test_class_log_scores_are_log_softmax_of_forward(self):
        rng = np.random.default_rng(26)
        model = VanillaModel(3, TOY_ENC, rng=rng)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(2, 2, 8))
        _, logits = vanilla_forward(model, x, np.array([0, 1]), mode="eval")
        np.testing.assert_array_equal(model.class_log_scores(x), log_softmax(logits))


class TestEveryParameterTrains:
    """Every parameter moves the train-mode loss. A bias ahead of batch norm would
    not: the batch mean subtraction cancels it, so its gradient is zero."""

    @pytest.mark.parametrize("kind", ["share", "vanilla"])
    def test_stepping_each_parameter_moves_the_loss(self, kind):
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, size=(4, 2, 8))
        if kind == "share":
            model, space = toy_share(seed=41)
            bodies = [list(space.sequences[i % 2].tokens) for i in range(4)]

            def loss():
                return teacher_forced_loss(model, x, bodies, space, mode="train")
        else:
            model = VanillaModel(3, TOY_ENC, rng=rng)
            targets = np.array([0, 1, 2, 0])

            def loss():
                return vanilla_forward(model, x, targets, mode="train")[0]

        base = loss()
        for name, p in model.parameters().items():
            original = p.data.copy()
            direction = rng.normal(size=p.data.shape)
            moved = []
            for sign in (1.0, -1.0):
                p.data[...] = original + sign * 1e-3 * direction
                moved.append(abs(loss() - base))
            p.data[...] = original
            assert max(moved) > 1e-10, f"{name} moves the loss by {max(moved):.3g}"


class TestCountParameters:
    def test_linear_2_to_3(self):
        assert sum(p.numel() for p in Linear(2, 3).parameters().values()) == 9

    def test_conv_1_to_1_kernel_3(self):
        assert sum(p.numel() for p in Conv1d(1, 1, 3).parameters().values()) == 3

    def test_share_model_closed_form(self):
        model, space = toy_share()
        v, (w1, w2) = 2, TOY_ENC.conv_channels
        d, h, e, m = TOY_ENC.feature_dim, model.hidden_dim, model.embed_dim, space.vocab_size
        expected = (
            w1 * v * 3 + 2 * w1                 # conv1 + bn1
            + w2 * w1 * 3 + 2 * w2              # conv2 + bn2
            + 2 * (h * d + h)                   # state-init projections
            + m * e                             # embedding table
            + (4 * h * e + 4 * h * h + 4 * h)   # lstm cell
            + (m * h + m)                       # output projection
        )
        assert count_parameters(model) == expected

    def test_vanilla_model_closed_form(self):
        model = VanillaModel(7, TOY_ENC, rng=np.random.default_rng(0))
        v, (w1, w2) = 2, TOY_ENC.conv_channels
        expected = w1 * v * 3 + 2 * w1 + w2 * w1 * 3 + 2 * w2 \
            + (7 * TOY_ENC.feature_dim + 7)
        assert count_parameters(model) == expected


class TestGradientBuffers:
    @pytest.mark.parametrize("build", [
        lambda: toy_share(seed=30)[0],
        lambda: VanillaModel(3, TOY_ENC, rng=np.random.default_rng(30))], ids=["share", "vanilla"])
    def test_fresh_and_loaded_models_hold_zero_gradients(self, tmp_path, build):
        model = build()
        save_model(model, tmp_path / "run")
        for where, m in (("fresh", model), ("loaded", load_model(tmp_path / "run")[0])):
            for name, p in m.parameters().items():
                assert isinstance(p.grad, np.ndarray), f"{where} {name}"
                assert p.grad.shape == p.data.shape and not p.grad.any(), f"{where} {name}"


class TestCheckpointRoundtrip:
    def test_share_roundtrip_preserves_decoding(self, tmp_path):
        model, space = toy_share(seed=27)
        rng = np.random.default_rng(28)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(3, 2, 8))
        before = constrained_decode(model, x, space)
        save_model(model, tmp_path / "run")
        assert (tmp_path / "run" / CHECKPOINT_NAME).exists()
        assert (tmp_path / "run" / MANIFEST_NAME).exists()
        loaded, manifest = load_model(tmp_path / "run")
        after = constrained_decode(loaded, x, loaded.space)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.class_log_probs, b.class_log_probs)
        assert manifest["space_hash"] == space.space_hash()
        assert manifest["vocabulary"] == list(space.token_strings)

    def test_vanilla_roundtrip(self, tmp_path):
        rng = np.random.default_rng(29)
        model = VanillaModel(3, TOY_ENC, rng=rng)
        warm_batchnorm(model, rng)
        x = rng.normal(size=(2, 2, 8))
        before = model.class_log_scores(x)
        save_model(model, tmp_path / "run")
        loaded, manifest = load_model(tmp_path / "run")
        np.testing.assert_array_equal(loaded.class_log_scores(x), before)
        assert manifest["model_kind"] == "vanilla"


class TestDecoderSizes:
    @pytest.mark.parametrize("hidden, embed", [(0, 3), (-1, 3), (5, 0), (5, -2)])
    def test_non_positive_size_is_a_validation_error(self, hidden, embed):
        expected = f"hidden_dim and embed_dim must be positive, got {hidden} and {embed}"
        with pytest.raises(ValidationError, match=expected):
            toy_share(hidden=hidden, embed=embed)


def _rewrite_manifest(run, **fields):
    manifest = json.loads((run / MANIFEST_NAME).read_text())
    manifest.update(fields)
    (run / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestLoadModelChecks:
    """The manifest's sizes are held against the checkpoint before a model is built."""

    @pytest.mark.parametrize("kind, fields, tensor", [
        ("share", {"hidden_dim": 2**40}, "dec.lstm.w_x"),
        ("share", {"embed_dim": 2**40}, "dec.lstm.w_x"),
        ("share", {"encoder": {"in_channels": 2, "conv_channels": [3, 2**40], "kernel_size": 3}},
         "enc.conv2.weight"),
        ("share", {"encoder": {"in_channels": 2**40, "conv_channels": [3, 4], "kernel_size": 3}},
         "enc.conv1.weight"),
        ("share", {"encoder": {"in_channels": 2, "conv_channels": [3, 4], "kernel_size": 5}},
         "enc.conv1.weight"),
        ("vanilla", {"num_classes": 2**40}, "head.weight"),
    ])
    def test_size_mismatch_is_caught_before_any_model_is_built(self, tmp_path, monkeypatch,
                                                               kind, fields, tensor):
        model = toy_share(seed=34)[0] if kind == "share" else VanillaModel(3, TOY_ENC)
        save_model(model, tmp_path / "run")
        _rewrite_manifest(tmp_path / "run", **fields)

        def never(*args, **kwargs):
            raise AssertionError("a model was built from an inconsistent manifest")

        monkeypatch.setattr(ShareModel, "__init__", never)
        monkeypatch.setattr(VanillaModel, "__init__", never)
        with pytest.raises(FormatError, match=f"checkpoint tensor '{tensor}' has shape"):
            load_model(tmp_path / "run")

    @pytest.mark.parametrize("value", [True, False])
    def test_bn_initialized_is_read(self, tmp_path, value):
        save_model(toy_share(seed=35)[0], tmp_path / "run")
        _rewrite_manifest(tmp_path / "run", bn_initialized=value)
        loaded, _ = load_model(tmp_path / "run")
        assert loaded.encoder.bn1.initialized is value

    @pytest.mark.parametrize("value", ["no", 0, None, [True]])
    def test_bn_initialized_must_be_a_bool(self, tmp_path, value):
        save_model(toy_share(seed=36)[0], tmp_path / "run")
        _rewrite_manifest(tmp_path / "run", bn_initialized=value)
        with pytest.raises(FormatError, match="field 'bn_initialized' is not of type bool"):
            load_model(tmp_path / "run")

    def test_manifest_without_bn_initialized_is_a_format_error(self, tmp_path):
        save_model(toy_share(seed=37)[0], tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / MANIFEST_NAME).read_text())
        del manifest["bn_initialized"]
        (tmp_path / "run" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="lacks required field 'bn_initialized'"):
            load_model(tmp_path / "run")


def _bits(arrays):
    return {name: (a.shape, a.tobytes()) for name, a in arrays.items()}


class TestModelState:
    @pytest.mark.parametrize("kind", ["share", "vanilla"])
    def test_snapshot_restore_roundtrips_every_array_bit_for_bit(self, kind):
        rng = np.random.default_rng(30)
        model = toy_share(seed=30)[0] if kind == "share" else VanillaModel(3, TOY_ENC, rng=rng)
        warm_batchnorm(model, rng)
        snap = snapshot_parameters(model)
        assert snap.keys() == model.state().keys()
        assert {"enc.bn1.running_mean", "enc.bn1.running_var",
                "enc.bn2.running_mean", "enc.bn2.running_var"} <= snap.keys()
        expected = _bits(snap)
        for a in model.state().values():  # move every array, then train the statistics
            a += 1.0
        warm_batchnorm(model, rng)
        assert _bits(model.state()) != expected
        model.load_state(snap, bn_initialized=True)
        assert _bits(model.state()) == expected
        assert _bits(snap) == expected  # the snapshot is a copy, not a view
        assert model.encoder.bn1.initialized and model.encoder.bn2.initialized

    def test_state_is_live(self):
        model, _ = toy_share(seed=31)
        model.state()["dec.proj.bias"][0] = 7.0
        assert model.proj.bias.data[0] == 7.0

    def test_load_state_checks_before_copying(self):
        model, _ = toy_share(seed=32)
        before = _bits(model.state())
        arrays = {name: np.zeros_like(a) for name, a in model.state().items()}
        arrays["enc.bn2.running_var"] = np.ones(3)
        with pytest.raises(FormatError, match="'enc.bn2.running_var' has shape"):
            model.load_state(arrays, bn_initialized=True)
        del arrays["enc.bn2.running_var"]
        with pytest.raises(FormatError, match="missing tensor 'enc.bn2.running_var'"):
            model.load_state(arrays, bn_initialized=True)
        arrays["enc.bn2.running_var"] = np.zeros(4)
        arrays["enc.conv1.bias"] = np.zeros(3)
        with pytest.raises(FormatError, match="tensor 'enc.conv1.bias' is not one of the model's"):
            model.load_state(arrays, bn_initialized=True)
        assert _bits(model.state()) == before
        assert not model.encoder.bn1.initialized

    def test_non_finite_model_is_never_saved(self, tmp_path):
        model, _ = toy_share(seed=33)
        model.lstm.w_h.data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite values in 1 of 20 tensors"):
            save_model(model, tmp_path / "run")
        assert not (tmp_path / "run").exists()


def _run_files(run):
    return {p.name: p.read_bytes() for p in run.iterdir()}


class TestAtomicSave:
    """A save that fails before its renames leaves the earlier pair and no temporary files."""

    def _saved_run(self, tmp_path):
        run = tmp_path / "run"
        save_model(toy_share(seed=34)[0], run)
        return run, _run_files(run)

    def test_failed_manifest_write_keeps_earlier_pair(self, tmp_path, monkeypatch):
        run, before = self._saved_run(tmp_path)

        def failing_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("harseq.model.json.dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_model(toy_share(seed=35)[0], run)
        assert _run_files(run) == before

    def test_failed_checkpoint_write_keeps_earlier_pair(self, tmp_path, monkeypatch):
        run, before = self._saved_run(tmp_path)

        def partial_container(path, tensors, metadata=None):
            with open(path, "wb") as f:
                f.write(b"NKTENS01")
            raise OSError("disk full")

        monkeypatch.setattr("harseq.model.save_container", partial_container)
        with pytest.raises(OSError, match="disk full"):
            save_model(toy_share(seed=35)[0], run)
        assert _run_files(run) == before

    def test_overwrite_writes_the_same_bytes_as_a_fresh_save(self, tmp_path):
        run, before = self._saved_run(tmp_path)
        other = toy_share(seed=35)[0]
        save_model(other, run)
        save_model(other, tmp_path / "fresh")
        after = _run_files(run)
        assert after == _run_files(tmp_path / "fresh")
        assert sorted(after) == [CHECKPOINT_NAME, MANIFEST_NAME]
        assert after != before
