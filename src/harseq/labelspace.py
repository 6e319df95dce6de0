"""Activity labels as token sequences with shared structure.

Class names are tokenized into word sequences, assembled into a shared
vocabulary bracketed by start/end markers, and arranged in a prefix trie
so the decoder can score every valid label. The three label augmentation
mechanisms live here as well: token-level (random replacement by a single
meaningful token during training), embedding-level (pretrained word-vector
initialization loaded from a text file), and sequence-level (renaming the
class set through an externally supplied map).
"""

import hashlib
import json
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConflictError, CoverageError, FormatError, ValidationError

START_TOKEN = "<s>"
END_TOKEN = "<e>"
START_ID = 0
END_ID = 1

_WORD_RE = re.compile(r"[^a-z0-9]+")
_NUMBER_RE = re.compile(r"^\d+$")


def tokenize(name: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return [t for t in _WORD_RE.split(name.lower()) if t]


@dataclass(frozen=True)
class LabelSequence:
    """One class as an ordered token-id sequence (start/end excluded)."""

    class_id: int
    tokens: tuple
    meaningful: tuple  # token ids kept by the augmentation filter

    def __len__(self):
        return len(self.tokens)


class TrieNode:
    __slots__ = ("children", "class_id")

    def __init__(self):
        self.children: dict[int, "TrieNode"] = {}
        self.class_id: int | None = None


@dataclass(frozen=True)
class LabelSpace:
    """Token vocabulary, per-class sequences, and the prefix trie.

    The trie root represents the consumed start token; each root-to-leaf
    path spells one class's token sequence terminated by the end token,
    and the leaf (end-token node) carries the class id.
    """

    class_names: tuple
    token_strings: tuple  # index = token id; [0]=<s>, [1]=<e>
    sequences: tuple  # one LabelSequence per class, in class-id order
    stop_token_ids: frozenset
    root: TrieNode = field(repr=False, compare=False)

    @property
    def num_classes(self) -> int:
        return len(self.sequences)

    @property
    def vocab_size(self) -> int:
        return len(self.token_strings)

    def token_id(self, token: str) -> int:
        return self.token_strings.index(token)

    def trie_node_count(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def space_hash(self) -> str:
        payload = json.dumps(
            {
                "classes": list(self.class_names),
                "tokens": list(self.token_strings),
                "sequences": [list(s.tokens) for s in self.sequences],
            },
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_label_space(class_names, stop_tokens=()) -> LabelSpace:
    """Tokenize class names, assign token ids by first appearance, build the trie.

    Raises ConflictError when two classes tokenize to the same sequence and
    ValidationError for names that are empty after tokenization.
    """
    class_names = list(class_names)
    if not class_names:
        raise ValidationError("class name list is empty")
    token_strings = [START_TOKEN, END_TOKEN]
    ids: dict[str, int] = {START_TOKEN: START_ID, END_TOKEN: END_ID}
    token_lists = []
    for name in class_names:
        words = tokenize(name)
        if not words:
            raise ValidationError(f"class name {name!r} is empty after tokenization")
        for w in words:
            if w not in ids:
                ids[w] = len(token_strings)
                token_strings.append(w)
        token_lists.append(tuple(ids[w] for w in words))

    seen: dict[tuple, str] = {}
    for name, toks in zip(class_names, token_lists):
        if toks in seen:
            raise ConflictError(
                f"classes {seen[toks]!r} and {name!r} tokenize to the same sequence")
        seen[toks] = name

    stop_ids = {ids[w] for w in (tokenize(" ".join(stop_tokens)) if stop_tokens else []) if w in ids}
    for tok, tid in ids.items():
        if _NUMBER_RE.match(tok):
            stop_ids.add(tid)

    sequences = []
    for class_id, toks in enumerate(token_lists):
        meaningful = tuple(t for t in toks if t not in stop_ids)
        sequences.append(LabelSequence(class_id=class_id, tokens=toks, meaningful=meaningful))

    root = TrieNode()
    for seq in sequences:
        node = root
        for tok in seq.tokens + (END_ID,):
            node = node.children.setdefault(tok, TrieNode())
        node.class_id = seq.class_id

    return LabelSpace(
        class_names=tuple(class_names),
        token_strings=tuple(token_strings),
        sequences=tuple(sequences),
        stop_token_ids=frozenset(stop_ids),
        root=root,
    )


def augment_label(seq: LabelSequence, p_aug: float, rng: np.random.Generator) -> list[int]:
    """Token-level augmentation: the full sequence or one meaningful token.

    With probability 1 - p_aug the full sequence is returned unchanged;
    otherwise a single meaningful token is drawn uniformly. Labels with no
    meaningful tokens always come back whole.
    """
    if not 0.0 <= p_aug <= 1.0:
        raise ValidationError(f"p_aug must lie in [0, 1], got {p_aug}")
    if rng.random() >= p_aug or not seq.meaningful:
        return list(seq.tokens)
    return [seq.meaningful[int(rng.integers(len(seq.meaningful)))]]


@dataclass(frozen=True)
class LabelMap:
    """Ordered (original name -> generated name) pairs, bijective."""

    pairs: tuple

    def __post_init__(self):
        originals = [a for a, _ in self.pairs]
        generated = [b for _, b in self.pairs]
        if len(set(originals)) != len(originals):
            raise ValidationError("label map repeats an original name")
        if len(set(generated)) != len(generated):
            raise ValidationError("label map repeats a generated name")
        for _, gen in self.pairs:
            if not tokenize(gen):
                raise ValidationError(f"generated name {gen!r} has no meaningful tokens")

    def as_dict(self) -> dict:
        return dict(self.pairs)


def apply_label_map(class_names, label_map: LabelMap) -> list[str]:
    """Rename every class, preserving order; coverage must be exact."""
    mapping = label_map.as_dict()
    missing = [n for n in class_names if n not in mapping]
    extra = [o for o, _ in label_map.pairs if o not in set(class_names)]
    if missing or extra:
        raise CoverageError(
            f"label map coverage mismatch: missing={missing!r} extra={extra!r}")
    return [mapping[n] for n in class_names]


def read_text_lines(path, newline=None):
    """The lines of a UTF-8 text file, read lazily; bytes that are not UTF-8
    are a FormatError naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as f:
        try:
            yield from f
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_label_map(path) -> LabelMap:
    """Tab-separated `original<TAB>generated`, one class per line. A repeated
    name, or a generated name without tokens, is a FormatError at `path:line`."""
    pairs, first_line = [], {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected `original<TAB>generated`")
        original, generated = parts[0].strip(), parts[1].strip()
        for side, name in (("original", original), ("generated", generated)):
            if (side, name) in first_line:
                raise FormatError(f"{path}:{lineno}: label map repeats the {side} name "
                                  f"{name!r} of line {first_line[side, name]}")
            first_line[side, name] = lineno
        if not tokenize(generated):
            raise FormatError(f"{path}:{lineno}: generated name {generated!r} "
                              "has no meaningful tokens")
        pairs.append((original, generated))
    return LabelMap(pairs=tuple(pairs))


def load_class_names(path) -> list[str]:
    """One class name per line; line order defines class ids. A repeated name
    is a FormatError at `path:line`."""
    first_line = {}
    for lineno, line in enumerate(read_text_lines(path), start=1):
        name = line.strip()
        if name in first_line:
            raise FormatError(f"{path}:{lineno}: class name {name!r} repeats line "
                              f"{first_line[name]}")
        if name:
            first_line[name] = lineno
    if not first_line:
        raise ValidationError(f"{path}: no class names found")
    return list(first_line)


def load_stop_tokens(path) -> list[str]:
    return [line.strip() for line in read_text_lines(path) if line.strip()]


@dataclass(frozen=True)
class EmbeddingTable:
    """One vector per vocabulary token, all of equal dimension."""

    vectors: np.ndarray  # [vocab_size, dim]
    source: str  # the file path

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def load_embeddings(path, space: LabelSpace, fallback_dim: int,
                    rng: np.random.Generator) -> EmbeddingTable:
    """Build the decoder embedding table from a text word-vector file.

    File format: optionally a `count dim` header line, then one line per
    token: the token followed by its finite floats, space separated. Tokens
    found in the file keep the file's bits; everything else (including the
    start/end markers) gets a seeded random vector of the same dimension,
    which is fallback_dim only if the file holds no vectors at all.
    """
    file_vectors: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(read_text_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
            continue  # header line
        token, values = parts[0], parts[1:]
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: non-numeric vector entry") from exc
        if not np.isfinite(vec).all():
            raise FormatError(f"{path}:{lineno}: non-finite vector entry")
        if dim is None:
            if vec.size == 0:
                raise FormatError(f"{path}:{lineno}: token {token!r} has no vector")
            dim = vec.size
        elif vec.size != dim:
            raise FormatError(
                f"{path}:{lineno}: vector length {vec.size} differs from {dim}")
        if token in file_vectors:
            warnings.warn(f"{path}:{lineno}: duplicate vector for {token!r}, "
                          "last occurrence wins")
        file_vectors[token] = vec
    if dim is None:
        dim = fallback_dim

    limit = 1.0 / np.sqrt(max(1, dim))
    vectors = np.empty((space.vocab_size, dim), dtype=np.float64)
    for tid, token in enumerate(space.token_strings):
        if token in file_vectors:
            vectors[tid] = file_vectors[token]
        else:
            vectors[tid] = rng.uniform(-limit, limit, size=dim)
    return EmbeddingTable(vectors=vectors, source=str(path))


def shared_token_count(space: LabelSpace) -> int:
    """Number of distinct body tokens appearing in two or more classes."""
    counts: dict[int, int] = {}
    for seq in space.sequences:
        for tok in set(seq.tokens):
            counts[tok] = counts.get(tok, 0) + 1
    return sum(1 for c in counts.values() if c >= 2)
