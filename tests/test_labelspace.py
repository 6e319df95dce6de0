"""Label space construction, trie structure, and augmentation behavior."""

import numpy as np
import pytest

from harseq.errors import ConflictError, CoverageError, FormatError, ValidationError
from harseq.labelspace import (
    END_ID,
    START_ID,
    LabelMap,
    apply_label_map,
    augment_label,
    build_label_space,
    load_class_names,
    load_embeddings,
    load_label_map,
    shared_token_count,
    tokenize,
)

MHEALTH_MAP = [
    ("standing still", "leg still"),
    ("sitting and relaxing", "buttocks still"),
    ("lying down", "back down"),
    ("walking", "leg walk"),
    ("climbing stairs", "leg up"),
    ("waist bends forward", "back forward"),
    ("frontals elevation of arms", "arm up"),
    ("knees bending (crouching)", "leg forward"),
    ("cycling", "leg cycle"),
    ("jogging", "leg jog"),
    ("running", "leg jog fast"),
    ("jump front and back", "leg jump"),
]


class TestBuildLabelSpace:
    def test_shared_token_vocabulary(self):
        space = build_label_space(["open door", "open fridge"])
        # <s>, <e>, open, door, fridge
        assert space.vocab_size == 5
        assert space.token_strings[:2] == ("<s>", "<e>")
        open_id = space.token_id("open")
        assert all(open_id in seq.tokens for seq in space.sequences)

    def test_single_class_trie_path(self):
        space = build_label_space(["walk"])
        assert space.num_classes == 1
        walk = space.token_id("walk")
        node = space.root.children[walk]
        leaf = node.children[END_ID]
        assert leaf.class_id == 0
        assert not leaf.children

    def test_prefix_branching(self):
        space = build_label_space(["walk upstairs", "walk downstairs", "walk"])
        walk_node = space.root.children[space.token_id("walk")]
        expected = {space.token_id("upstairs"), space.token_id("downstairs"), END_ID}
        assert set(walk_node.children) == expected

    def test_duplicate_sequences_conflict(self):
        with pytest.raises(ConflictError, match="Open Door.*open door|open door.*Open Door"):
            build_label_space(["Open Door", "open door"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            build_label_space(["walk", "  !!  "])

    def test_rebuild_is_deterministic(self):
        names = ["eat soup", "eat pasta", "kick ball"]
        a = build_label_space(names)
        b = build_label_space(names)
        assert a.token_strings == b.token_strings
        assert [s.tokens for s in a.sequences] == [s.tokens for s in b.sequences]
        assert a.space_hash() == b.space_hash()

    def test_leaf_count_equals_class_count(self):
        names = ["open door", "open drawer", "close drawer", "open fridge", "walk"]
        space = build_label_space(names)
        leaves = 0
        stack = [space.root]
        while stack:
            node = stack.pop()
            if node.class_id is not None:
                assert not node.children
                leaves += 1
            stack.extend(node.children.values())
        assert leaves == space.num_classes

    def test_walking_full_sequence_reaches_class_leaf(self):
        names = ["open door", "open drawer", "close drawer", "open fridge"]
        space = build_label_space(names)
        for seq in space.sequences:
            node = space.root
            for tok in seq.tokens + (END_ID,):
                node = node.children[tok]
            assert node.class_id == seq.class_id

    def test_markers_never_inside_bodies(self):
        space = build_label_space(["walk upstairs", "run"])
        for seq in space.sequences:
            assert START_ID not in seq.tokens
            assert END_ID not in seq.tokens


class TestMeaningfulTokens:
    def test_numbers_filtered(self):
        space = build_label_space(["open door 1"])
        toks = space.sequences[0].meaningful
        assert [space.token_strings[t] for t in toks] == ["open", "door"]

    def test_single_word(self):
        space = build_label_space(["walk"])
        assert list(space.sequences[0].meaningful) == [space.token_id("walk")]

    def test_two_words_kept(self):
        space = build_label_space(["ascending stairs"])
        toks = space.sequences[0].meaningful
        assert [space.token_strings[t] for t in toks] == ["ascending", "stairs"]

    def test_explicit_stop_words(self):
        space = build_label_space(["sitting and relaxing"], stop_tokens=["and"])
        toks = space.sequences[0].meaningful
        assert [space.token_strings[t] for t in toks] == ["sitting", "relaxing"]


class TestAugmentLabel:
    def test_p_zero_always_full(self):
        space = build_label_space(["ascending stairs"])
        rng = np.random.default_rng(0)
        seq = space.sequences[0]
        for _ in range(50):
            assert augment_label(seq, 0.0, rng) == list(seq.tokens)

    def test_outputs_full_or_single_meaningful(self):
        space = build_label_space(["open door 1"])
        seq = space.sequences[0]
        rng = np.random.default_rng(1)
        allowed = {tuple(seq.tokens)} | {(t,) for t in seq.meaningful}
        for _ in range(500):
            out = tuple(augment_label(seq, 0.7, rng))
            assert out in allowed

    def test_no_meaningful_tokens_falls_back_to_full(self):
        space = build_label_space(["1 2"])
        seq = space.sequences[0]
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert augment_label(seq, 1.0, rng) == list(seq.tokens)

    def test_monte_carlo_frequencies(self):
        # p=0.5 on a 2-meaningful-token label: (full, tok1, tok2) = (.5, .25, .25)
        space = build_label_space(["ascending stairs"])
        seq = space.sequences[0]
        rng = np.random.default_rng(12345)
        n = 100_000
        counts = {tuple(seq.tokens): 0, (seq.meaningful[0],): 0, (seq.meaningful[1],): 0}
        for _ in range(n):
            counts[tuple(augment_label(seq, 0.5, rng))] += 1
        assert abs(counts[tuple(seq.tokens)] / n - 0.50) < 0.01
        assert abs(counts[(seq.meaningful[0],)] / n - 0.25) < 0.01
        assert abs(counts[(seq.meaningful[1],)] / n - 0.25) < 0.01

    def test_invalid_probability(self):
        space = build_label_space(["walk"])
        with pytest.raises(ValidationError, match="p_aug"):
            augment_label(space.sequences[0], 1.5, np.random.default_rng(0))


class TestLabelMap:
    def test_mhealth_rows(self):
        mapping = LabelMap(pairs=tuple(MHEALTH_MAP))
        originals = [o for o, _ in MHEALTH_MAP]
        renamed = apply_label_map(originals, mapping)
        assert renamed[originals.index("climbing stairs")] == "leg up"
        assert renamed[originals.index("running")] == "leg jog fast"
        assert len(renamed) == len(originals)

    def test_identity_map(self):
        names = ["walk", "run"]
        mapping = LabelMap(pairs=(("walk", "walk"), ("run", "run")))
        assert apply_label_map(names, mapping) == names

    def test_missing_entry(self):
        mapping = LabelMap(pairs=(("walk", "leg walk"),))
        with pytest.raises(CoverageError, match="run"):
            apply_label_map(["walk", "run"], mapping)

    def test_extra_entry(self):
        mapping = LabelMap(pairs=(("walk", "leg walk"), ("fly", "arm flap")))
        with pytest.raises(CoverageError, match="fly"):
            apply_label_map(["walk"], mapping)

    def test_order_and_count_preserved(self):
        originals = [o for o, _ in MHEALTH_MAP]
        renamed = apply_label_map(originals, LabelMap(pairs=tuple(MHEALTH_MAP)))
        assert len(renamed) == len(originals)
        assert renamed == [dict(MHEALTH_MAP)[o] for o in originals]

    def test_tsv_roundtrip(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("".join(f"{a}\t{b}\n" for a, b in MHEALTH_MAP))
        mapping = load_label_map(path)
        assert mapping.pairs == tuple(MHEALTH_MAP)

    def test_malformed_tsv(self, tmp_path):
        path = tmp_path / "map.tsv"
        path.write_text("walk leg walk\n")
        with pytest.raises(FormatError, match="TAB"):
            load_label_map(path)


class TestSharedTokenCount:
    def test_generated_names_share_strictly_more(self):
        originals = [o for o, _ in MHEALTH_MAP]
        generated = apply_label_map(originals, LabelMap(pairs=tuple(MHEALTH_MAP)))
        before = shared_token_count(build_label_space(originals))
        after = shared_token_count(build_label_space(generated))
        assert after > before

    def test_no_sharing(self):
        assert shared_token_count(build_label_space(["walk", "run"])) == 0

    def test_simple_sharing(self):
        assert shared_token_count(build_label_space(["open door", "open fridge"])) == 1


class TestLoadEmbeddings:
    def test_file_vectors_used_exactly(self, tmp_path):
        space = build_label_space(["walk"])
        path = tmp_path / "vecs.txt"
        path.write_text("walk 0.1 0.2\n")
        rng = np.random.default_rng(0)
        table = load_embeddings(path, space, fallback_dim=8, rng=rng)
        assert table.dim == 2
        np.testing.assert_array_equal(table.vectors[space.token_id("walk")], [0.1, 0.2])
        # start/end rows are random but present
        assert table.vectors.shape == (space.vocab_size, 2)

    def test_header_line_skipped(self, tmp_path):
        space = build_label_space(["walk run"])
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nwalk 1 2 3\nrun 4 5 6\n")
        table = load_embeddings(path, space, fallback_dim=8, rng=np.random.default_rng(0))
        assert table.dim == 3
        np.testing.assert_array_equal(table.vectors[space.token_id("run")], [4.0, 5.0, 6.0])

    def test_uncovered_rows_random_and_deterministic(self, tmp_path):
        space = build_label_space(["walk", "run"])
        path = tmp_path / "vecs.txt"
        path.write_text("jump 1 2 3\n")
        a = load_embeddings(path, space, fallback_dim=8, rng=np.random.default_rng(9))
        b = load_embeddings(path, space, fallback_dim=8, rng=np.random.default_rng(9))
        assert a.dim == 3 and a.source == str(path)
        assert a.vectors.shape == (space.vocab_size, 3)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert len({row.tobytes() for row in a.vectors}) == space.vocab_size

    def test_duplicate_token_last_wins_with_warning(self, tmp_path):
        space = build_label_space(["walk"])
        path = tmp_path / "vecs.txt"
        path.write_text("walk 1 1\nwalk 2 2\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_embeddings(path, space, fallback_dim=2, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(table.vectors[space.token_id("walk")], [2.0, 2.0])

    def test_inconsistent_length_reports_line(self, tmp_path):
        space = build_label_space(["walk run"])
        path = tmp_path / "vecs.txt"
        path.write_text("walk 1 2\nrun 3\n")
        with pytest.raises(FormatError, match=":2"):
            load_embeddings(path, space, fallback_dim=2, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_reports_line(self, tmp_path, entry):
        space = build_label_space(["walk run"])
        path = tmp_path / "vecs.txt"
        path.write_text(f"walk 1 2\nrun {entry} 3\n")
        with pytest.raises(FormatError, match=":2: non-finite vector entry"):
            load_embeddings(path, space, fallback_dim=2, rng=np.random.default_rng(0))

    def test_full_coverage_all_bits_exact(self, tmp_path):
        space = build_label_space(["walk up", "walk down"])
        lines = []
        expected = {}
        rng = np.random.default_rng(3)
        for tok in space.token_strings:
            vec = rng.normal(size=4)
            expected[tok] = vec
            lines.append(tok + " " + " ".join(repr(float(v)) for v in vec))
        path = tmp_path / "vecs.txt"
        path.write_text("\n".join(lines) + "\n")
        table = load_embeddings(path, space, fallback_dim=4, rng=np.random.default_rng(0))
        for tid, tok in enumerate(space.token_strings):
            np.testing.assert_array_equal(table.vectors[tid], expected[tok])


class TestFileHelpers:
    def test_load_class_names(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("open door\nopen fridge\n\n")
        assert load_class_names(path) == ["open door", "open fridge"]

    def test_tokenize_strips_punctuation(self):
        assert tokenize("Knees bending (crouching)") == ["knees", "bending", "crouching"]
