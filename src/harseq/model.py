"""Encoder/decoder network for label-sequence prediction, plus the baseline.

The encoder is a two-layer 1D CNN (kernel 3, batch norm, ReLU) whose output
is averaged over time into a fixed-width feature vector. The sequence model
feeds that vector through two linear maps to initialize an LSTM cell's
hidden and cell states, then decodes label-name tokens; training uses
teacher forcing and inference walks the label trie so only valid sequences
are ever scored. The baseline shares the encoder and replaces the decoder
with a single linear softmax head over class ids. Both models offer
`batch_loss`, `class_log_scores` and `steps_per_class` (the number of
predictions summed into each class's log-score), so one loop trains both.
Snapshots, restores and checkpoints all go through the models' `state()`,
whose names are a `layers()` prefix plus the layer's own name.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    NumericError,
    ValidationError,
    check_json,
    check_shapes,
)
from .labelspace import (
    END_ID,
    START_ID,
    EmbeddingTable,
    LabelSpace,
    augment_label,
    build_label_space,
)
from .numkernel import (
    BatchNorm1d,
    Conv1d,
    Embedding,
    Linear,
    LSTMCell,
    ReLU,
    load_container,
    log_softmax,
    save_container,
    softmax_cross_entropy,
)

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.nkc"
# the one run-directory layout save_model writes and load_model reads: format 2 has
# no conv biases and always records bn_initialized (and a share run's embedding_source)
FORMAT_VERSION = 2
# An eval-mode encoder pass runs over blocks of at most this many time steps
# (whole windows, at least one), so it holds about one block of activations.
EVAL_BLOCK_STEPS = 4096


@dataclass(frozen=True)
class EncoderConfig:
    in_channels: int
    conv_channels: tuple = (64, 128)
    kernel_size: int = 3

    def __post_init__(self):
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        if len(self.conv_channels) != 2 or any(c <= 0 for c in self.conv_channels):
            raise ValidationError(f"conv_channels must be two positive widths, got {self.conv_channels}")
        if self.in_channels <= 0:
            raise ValidationError("in_channels must be positive")

    @property
    def feature_dim(self) -> int:
        return self.conv_channels[1]


class _Module:
    """Derives every named array of a model from the `{prefix: layer}` of its `layers()`."""

    def parameters(self) -> dict:
        """The trainable tensors."""
        return {f"{prefix}.{name}": p for prefix, layer in self.layers().items()
                for name, p in layer.parameters().items()}

    def state(self) -> dict:
        """Every checkpointed array, live: the parameters' data and the layers' buffers."""
        state = {name: p.data for name, p in self.parameters().items()}
        state.update({f"{prefix}.{name}": a for prefix, layer in self.layers().items()
                      for name, a in layer.buffers().items()})
        return state

    def load_state(self, arrays: dict, bn_initialized: bool) -> None:
        """Copy `arrays` into `state()` in place. `arrays` must hold exactly the
        names of `state()`; every name, shape and value is checked first, so a
        missing, extra or non-finite tensor is a FormatError naming it."""
        live = self.state()
        extra = sorted(arrays.keys() - live.keys())
        if extra:
            raise FormatError(f"checkpoint tensor '{extra[0]}' is not one of the model's")
        check_shapes(arrays, {name: a.shape for name, a in live.items()}, "checkpoint")
        bad = next((name for name in live if not np.isfinite(arrays[name]).all()), None)
        if bad is not None:
            raise FormatError(f"checkpoint tensor '{bad}' holds non-finite values")
        for name, a in live.items():
            a[...] = arrays[name]
        for layer in self.layers().values():
            if isinstance(layer, BatchNorm1d):
                layer.initialized = bn_initialized


class ConvEncoder:
    """conv -> batchnorm -> relu, twice, then global average over time.

    Each stage runs batch norm and ReLU in place on its convolution's fresh
    channel-major output, and backward in place on the channel-major pooled
    gradient or the convolution's fresh channel-major input gradient, so
    every elementwise operation meets one layout and nothing outlives the
    call but the returned features or the parameter gradients.
    An eval pass runs the stages over blocks of ⌊EVAL_BLOCK_STEPS / time⌋
    windows (at least one), so while it runs it holds about one block of
    activations; a train pass is one whole-batch block, because batch norm
    needs the batch statistics and backward every im2col column.
    """

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        w1, w2 = config.conv_channels
        self.config = config
        self.conv1 = Conv1d(config.in_channels, w1, config.kernel_size, rng=rng)
        self.conv1._input_grad = False  # the encoder's input is data: nothing reads its gradient
        self.bn1 = BatchNorm1d(w1)
        self.relu1 = ReLU()
        self.conv2 = Conv1d(w1, w2, config.kernel_size, rng=rng)
        self.bn2 = BatchNorm1d(w2)
        self.relu2 = ReLU()
        self._stages = ((self.conv1, self.bn1, self.relu1), (self.conv2, self.bn2, self.relu2))
        self._pool_time = None

    def layers(self) -> dict:
        return {"enc.conv1": self.conv1, "enc.bn1": self.bn1,
                "enc.conv2": self.conv2, "enc.bn2": self.bn2}

    def forward(self, x: np.ndarray, mode: str, cache: bool) -> np.ndarray:
        if x.ndim != 3:
            raise DimensionError(f"encoder expects [batch, channels, time], got {x.ndim} axes")
        if x.shape[1] != self.config.in_channels:
            raise DimensionError(
                f"encoder channel axis mismatch: input has {x.shape[1]} channels, "
                f"configured for {self.config.in_channels}")
        if x.shape[2] < 3:
            raise ValidationError(f"encoder needs at least 3 timesteps, got {x.shape[2]}")
        b, _, t = x.shape
        block = max(b, 1) if mode == "train" else max(EVAL_BLOCK_STEPS // t, 1)
        # feature-major, the memory order h.mean(axis=2) returns: the head
        # GEMMs round by layout, so a C-ordered array would move their bits
        z = np.empty((self.config.feature_dim, b)).T
        for lo in range(0, max(b, 1), block):  # an empty batch still runs the checks
            h = x[lo:lo + block]
            for conv, bn, relu in self._stages:
                h = conv.forward(h, mode, cache)
                bn.forward(h, mode, cache, out=h)
                relu.forward(h, mode, cache, out=h)
            z[lo:lo + h.shape[0]] = h.mean(axis=2)
        if cache:
            self._pool_time = t
        return z

    def backward(self, grad_z: np.ndarray) -> None:
        """Add the gradient of every encoder parameter; return nothing, because
        the encoder's input is data and `conv1` computes no input gradient."""
        t = self._pool_time
        # channel-major, the layout of every activation and cache it meets
        g = np.empty((grad_z.shape[1], grad_z.shape[0], t)).transpose(1, 0, 2)
        g[...] = (grad_z / t)[:, :, None]
        for conv, bn, relu in reversed(self._stages):
            relu.backward(g, out=g)
            bn.backward(g, out=g)
            g = conv.backward(g)


class ShareModel(_Module):
    """Encoder plus label-sequence decoder.

    Decoder parts: a token embedding table, one LSTM cell, an output
    projection to vocabulary logits, and two linear layers that map the
    encoder feature vector to the initial hidden and cell states.
    """

    kind = "share"

    def __init__(self, space: LabelSpace, encoder_config: EncoderConfig,
                 hidden_dim: int = 128, embed_dim: int = 64,
                 embedding_table: EmbeddingTable | None = None,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if embedding_table is not None:
            # the file's dimension wins over the configured width
            embed_dim = embedding_table.dim
        if hidden_dim < 1 or embed_dim < 1:
            raise ValidationError(f"hidden_dim and embed_dim must be positive, "
                                  f"got {hidden_dim} and {embed_dim}")
        self.space = space
        self.encoder_config = encoder_config
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        self.encoder = ConvEncoder(encoder_config, rng)
        d = encoder_config.feature_dim
        self.init_h = Linear(d, hidden_dim, rng=rng)
        self.init_c = Linear(d, hidden_dim, rng=rng)
        self.embed = Embedding(space.vocab_size, embed_dim, rng=rng)
        self.lstm = LSTMCell(embed_dim, hidden_dim, rng=rng)
        self.proj = Linear(hidden_dim, space.vocab_size, rng=rng)
        self.embedding_source = "random"
        if embedding_table is not None:
            self.embed.weight.data[:] = embedding_table.vectors
            self.embedding_source = embedding_table.source
        # a class is scored by its tokens plus the end marker
        self.steps_per_class = np.array([len(seq.tokens) + 1 for seq in space.sequences])

    def layers(self) -> dict:
        return {**self.encoder.layers(), "dec.init_h": self.init_h, "dec.init_c": self.init_c,
                "dec.embed": self.embed, "dec.lstm": self.lstm, "dec.proj": self.proj}

    def decode_step(self, token_ids: np.ndarray, h: np.ndarray, c: np.ndarray,
                    mode: str = "eval", cache: bool = False):
        """One decoder step: embed the tokens, advance the cell, project logits."""
        e = self.embed.forward(token_ids, mode, cache)
        h2, c2 = self.lstm.forward(e, h, c, mode, cache)
        logits = self.proj.forward(h2, mode, cache)
        return logits, h2, c2

    def batch_loss(self, x, y, rng, p_aug) -> float:
        """Teacher-forced training loss; one augmented body per window is drawn from rng."""
        bodies = [augment_label(self.space.sequences[int(c)], p_aug, rng) for c in y]
        return teacher_forced_loss(self, x, bodies, self.space, mode="train", backward=True)

    def class_log_scores(self, x, space=None) -> np.ndarray:
        """[batch, classes] summed token log-probs over `space` (default: the model's)."""
        return trie_walk(self, x, self.space if space is None else space)


class VanillaModel(_Module):
    """The same encoder with a plain linear softmax head over class ids."""

    kind = "vanilla"

    def __init__(self, num_classes: int, encoder_config: EncoderConfig,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        if num_classes < 1:
            raise ValidationError("num_classes must be at least 1")
        self.num_classes = num_classes
        self.encoder_config = encoder_config
        self.encoder = ConvEncoder(encoder_config, rng)
        self.head = Linear(encoder_config.feature_dim, num_classes, rng=rng)
        self.steps_per_class = np.ones(num_classes, dtype=np.int64)

    def layers(self) -> dict:
        return {**self.encoder.layers(), "head": self.head}

    def batch_loss(self, x, y, rng, p_aug) -> float:
        """Cross entropy over class ids; labels are never augmented, so rng is not drawn."""
        loss, _ = vanilla_forward(self, x, y, mode="train", backward=True)
        return loss

    def class_log_scores(self, x, space=None) -> np.ndarray:
        """[batch, classes] log-softmax of the head; `space` is unused (the head scores ids)."""
        z = self.encoder.forward(x, "eval", cache=False)
        return log_softmax(self.head.forward(z, "eval", cache=False))


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of constrained decoding for one input window: the argmax class
    and the window's row of `trie_walk` scores. One path's per-step log
    probs come from teacher-forcing it with `ShareModel.decode_step`."""

    class_id: int
    class_log_probs: np.ndarray  # [num_classes] summed token log probs

    def __post_init__(self):
        best = int(np.argmax(self.class_log_probs))  # argmax takes the lowest index on ties
        if best != self.class_id:
            raise ValidationError("DecodeResult class_id is not the score argmax")


def teacher_forced_loss(model: ShareModel, x: np.ndarray, target_tokens,
                        space: LabelSpace, mode: str = "train",
                        backward: bool = False) -> float:
    """Average per-token cross entropy under teacher forcing.

    target_tokens holds one (possibly augmented) token-id body per sample.
    Each sample contributes the mean cross entropy over its k+1 prediction
    steps (its tokens plus the end marker); the batch loss is the mean of
    those. With backward=True gradients are accumulated into every encoder
    and decoder parameter.
    """
    batch = x.shape[0]
    if len(target_tokens) != batch:
        raise DimensionError(
            f"target batch axis mismatch: {len(target_tokens)} target sequences "
            f"for {batch} inputs")
    bodies = [list(t) for t in target_tokens]
    for body in bodies:
        if not body:
            raise ValidationError("target token sequence is empty")
        for tok in body:
            if not 0 <= tok < space.vocab_size:
                raise IndexError(f"token id {tok} outside vocabulary of size {space.vocab_size}")
    lengths = np.array([len(b) + 1 for b in bodies])  # +1 for the end marker
    max_len = int(lengths.max())

    tok_in = np.full((batch, max_len), END_ID, dtype=np.int64)
    tok_tgt = np.full((batch, max_len), END_ID, dtype=np.int64)
    weights = np.zeros((batch, max_len))
    tok_in[:, 0] = START_ID
    for i, body in enumerate(bodies):
        k = len(body)
        tok_in[i, 1:k + 1] = body
        tok_tgt[i, :k] = body
        tok_tgt[i, k] = END_ID
        weights[i, :k + 1] = 1.0 / (batch * (k + 1))

    z = model.encoder.forward(x, mode, cache=backward)
    h = model.init_h.forward(z, mode, cache=backward)
    c = model.init_c.forward(z, mode, cache=backward)

    loss = 0.0
    step_grads = []
    for t in range(max_len):
        logits, h, c = model.decode_step(tok_in[:, t], h, c, mode, cache=backward)
        step_loss, dlogits = softmax_cross_entropy(logits, tok_tgt[:, t], weights=weights[:, t])
        loss += step_loss
        if backward:
            step_grads.append(dlogits)

    if backward:
        dh_next = np.zeros((batch, model.hidden_dim))
        dc_next = np.zeros((batch, model.hidden_dim))
        for t in reversed(range(max_len)):
            dh = model.proj.backward(step_grads[t]) + dh_next
            de, dh_next, dc_next = model.lstm.backward(dh, dc_next)
            model.embed.backward(de)
        dz = model.init_h.backward(dh_next) + model.init_c.backward(dc_next)
        model.encoder.backward(dz)
    return float(loss)


def trie_walk(model: ShareModel, x: np.ndarray, space: LabelSpace) -> np.ndarray:
    """Score every valid label sequence by walking the trie; returns the
    [batch, classes] array of summed token log probs, end marker included.

    Shared prefixes are decoded once: the walk makes one `LSTMCell.step` per
    trie node with children, popped from an explicit stack of (node, token,
    recurrent term, cell state, prefix score) entries. States are gate-major,
    [H, batch], so every gate, logit and log-prob row is one contiguous slab.
    Shared work inside a step is done once as well: the sign-folded tables
    of `LSTMCell.step_tables` are built once per call, so a child's
    pre-activation is its node's recurrent term (S·W_h)·h, computed once for
    all children, plus its token's column of S·(W_x·Eᵀ + b). A node whose
    only child is the end marker takes that one log-prob row,
    lg[END] − log Σ exp(lg) on the max-shifted logits, the same expression
    as the full log-softmax's END row. A pending node keeps one [batch]
    prefix score. A score sums its path's steps from the root down, as
    teacher-forcing its class alone does, so the order nodes are visited in
    does not enter it.
    """
    if space.num_classes < 1:
        raise ValidationError("label space has no classes")
    vocab = model.embed.num_tokens
    top = max(max(seq.tokens, default=END_ID) for seq in space.sequences)
    if top >= vocab:
        raise IndexError(f"token id {top} outside vocabulary of size {vocab}")
    lstm = model.lstm
    tokens, w_h = lstm.step_tables(model.embed.weight.data)  # [4H, vocab], [4H, H]
    proj_w, proj_b = model.proj.weight.data, model.proj.bias.data[:, None]
    z = model.encoder.forward(x, "eval", cache=False)
    h0 = model.init_h.forward(z, "eval", cache=False)
    c0 = model.init_c.forward(z, "eval", cache=False)

    scores = np.full((x.shape[0], space.num_classes), -np.inf)
    stack = [(space.root, START_ID, w_h @ h0.T, c0.T, np.zeros(x.shape[0]))]
    while stack:
        node, token_id, h_term, c, acc = stack.pop()
        h, c = lstm.step(h_term + tokens[:, token_id, None], c)
        logits = proj_w @ h  # [vocab, batch]
        logits += proj_b
        logits -= logits.max(axis=0)
        log_norm = np.log(np.exp(logits).sum(axis=0))
        if node.children.keys() == {END_ID}:
            scores[:, node.children[END_ID].class_id] = acc + (logits[END_ID] - log_norm)
            continue
        logits -= log_norm
        h_term = w_h @ h  # one recurrent term for all children
        for tok, child in node.children.items():
            if tok == END_ID:
                scores[:, child.class_id] = acc + logits[tok]
            else:
                stack.append((child, tok, h_term, c, acc + logits[tok]))
    return scores


def constrained_decode(model: ShareModel, x: np.ndarray, space: LabelSpace):
    """One DecodeResult per input window from `trie_walk`; ties resolve to
    the lowest class id."""
    return [DecodeResult(class_id=int(np.argmax(row)), class_log_probs=row.copy())
            for row in trie_walk(model, x, space)]


def vanilla_forward(model: VanillaModel, x: np.ndarray, targets,
                    mode: str = "train", backward: bool = False):
    """Encoder, linear head, softmax cross entropy. Returns (loss, logits)."""
    z = model.encoder.forward(x, mode, cache=backward)
    logits = model.head.forward(z, mode, cache=backward)
    loss, dlogits = softmax_cross_entropy(logits, targets)
    if backward:
        dz = model.head.backward(dlogits)
        model.encoder.backward(dz)
    return loss, logits


def count_parameters(model) -> int:
    """Trainable parameter count; batch-norm running stats excluded."""
    return sum(p.numel() for p in model.parameters().values())


def snapshot_parameters(model) -> dict:
    """A copy of `model.state()`."""
    return {name: a.copy() for name, a in model.state().items()}


def save_model(model, out_dir, normalization=None, extra=None) -> None:
    """Write the parameter container and a manifest into a run directory.

    The manifest records the encoder configuration, the label-space hash and
    vocabulary, and the embedding provenance so a vocabulary mismatch can be
    detected before any inference happens. A model with a non-finite value
    is a NumericError, raised before anything is written.
    """
    arrays = model.state()
    bad = [name for name, a in arrays.items() if not np.isfinite(a).all()]
    if bad:
        raise NumericError(f"model has non-finite values in {len(bad)} of {len(arrays)} "
                           f"tensors (first: '{bad[0]}'); nothing was saved")
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind,
        "encoder": asdict(model.encoder_config),
        "bn_initialized": bool(model.encoder.bn1.initialized),
    }
    if model.kind == "share":
        manifest.update({
            "hidden_dim": model.hidden_dim,
            "embed_dim": model.embed_dim,
            "class_names": list(model.space.class_names),
            "vocabulary": list(model.space.token_strings),
            "space_hash": model.space.space_hash(),
            "embedding_source": model.embedding_source,
        })
    else:
        manifest["num_classes"] = model.num_classes
    if normalization is not None:
        manifest["normalization"] = {
            "mean": [float(v) for v in normalization.mean],
            "std": [float(v) for v in normalization.std],
        }
    if extra:
        manifest["extra"] = extra
    # Both files are written beside their targets and then renamed over them,
    # so a save that fails before the renames leaves any earlier pair intact.
    final = [os.path.join(out_dir, name) for name in (CHECKPOINT_NAME, MANIFEST_NAME)]
    temp = [os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
            for name in (CHECKPOINT_NAME, MANIFEST_NAME)]
    try:
        save_container(temp[0], arrays, metadata={"model_kind": model.kind})
        with open(temp[1], "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")
        for src, dst in zip(temp, final):
            os.replace(src, dst)
    finally:
        for path in temp:
            if os.path.exists(path):
                os.remove(path)


# the manifest fields load_model reads, with their JSON types
_MANIFEST_FIELDS = {"model_kind": str, "bn_initialized": bool,
                    "encoder": {"in_channels": int, "conv_channels": [int], "kernel_size": int}}
_KIND_FIELDS = {
    "share": {"hidden_dim": int, "embed_dim": int, "class_names": [str],
              "vocabulary": [str], "space_hash": str, "embedding_source": str},
    "vanilla": {"num_classes": int},
}


def check_manifest(manifest, schema: dict, run_dir) -> None:
    """`check_json` worded for the manifest of the run in `run_dir`."""
    check_json(manifest, schema, f"{os.path.join(run_dir, MANIFEST_NAME)}: manifest",
               missing="lacks required field '{}'")


def load_model(run_dir):
    """Rebuild a model from a run directory. Returns (model, manifest)."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FormatError(f"{run_dir}: no {MANIFEST_NAME} found")
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        json.dumps(manifest, ensure_ascii=False).encode("utf-8")  # a lone "\ud800" is not text
    except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeError
        raise FormatError(f"{manifest_path}: not a JSON manifest ({exc})") from None
    check_manifest(manifest, {}, run_dir)
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not True, not 2.0
        found = (f"format_version {json.dumps(version)}" if "format_version" in manifest
                 else "no format_version")
        raise FormatError(f"{manifest_path}: run directory has {found}, but this harseq reads "
                          f"format_version {FORMAT_VERSION} only; retrain the run")
    check_manifest(manifest, _MANIFEST_FIELDS, run_dir)
    kind = manifest["model_kind"]
    if kind not in _KIND_FIELDS:
        raise FormatError(f"{run_dir}: unknown model kind {kind!r}")
    check_manifest(manifest, _KIND_FIELDS[kind], run_dir)
    arrays, _ = load_container(os.path.join(run_dir, CHECKPOINT_NAME))
    enc = EncoderConfig(**{key: manifest["encoder"][key] for key in _MANIFEST_FIELDS["encoder"]})
    w1, w2 = enc.conv_channels
    head = ({"dec.lstm.w_x": (4 * manifest["hidden_dim"], manifest["embed_dim"])}
            if kind == "share" else {"head.weight": (manifest["num_classes"], w2)})
    # the manifest's sizes must match the checkpoint before any array is allocated from them
    check_shapes(arrays, {"enc.conv1.weight": (w1, enc.in_channels, enc.kernel_size),
                          "enc.conv2.weight": (w2, w1, enc.kernel_size), **head},
                 f"{run_dir}: checkpoint")
    if kind == "share":
        space = build_label_space(manifest["class_names"])
        if space.space_hash() != manifest["space_hash"]:
            raise FormatError(f"{run_dir}: label space hash mismatch; manifest is inconsistent")
        if list(space.token_strings) != manifest["vocabulary"]:
            raise FormatError(f"{run_dir}: vocabulary mismatch; manifest is inconsistent")
        model = ShareModel(space, enc, hidden_dim=manifest["hidden_dim"],
                           embed_dim=manifest["embed_dim"])
        model.embedding_source = manifest["embedding_source"]
    else:
        model = VanillaModel(manifest["num_classes"], enc)
    model.load_state(arrays, bn_initialized=manifest["bn_initialized"])
    return model, manifest
