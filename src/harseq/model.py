"""Encoder/decoder network for label-sequence prediction, plus the baseline.

The encoder is a two-layer 1D CNN (kernel 3, batch norm, ReLU) whose output
is averaged over time into a fixed-width feature vector. The sequence model
feeds that vector through two linear maps to initialize an LSTM cell's
hidden and cell states, then decodes label-name tokens; training uses
teacher forcing and inference walks the label trie so only valid sequences
are ever scored. The baseline shares the encoder and replaces the decoder
with a single linear softmax head over class ids.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError, ValidationError
from .labelspace import (
    END_ID,
    START_ID,
    EmbeddingTable,
    LabelSpace,
    build_label_space,
)
from .numkernel import (
    BatchNorm1d,
    Conv1d,
    Embedding,
    Linear,
    LSTMCell,
    ReLU,
    Tensor,
    load_container,
    log_softmax,
    save_container,
    softmax_cross_entropy,
)

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "checkpoint.nkc"


@dataclass(frozen=True)
class EncoderConfig:
    in_channels: int
    conv_channels: tuple = (64, 128)
    kernel_size: int = 3

    def __post_init__(self):
        if len(self.conv_channels) != 2 or any(c <= 0 for c in self.conv_channels):
            raise ValidationError(f"conv_channels must be two positive widths, got {self.conv_channels}")
        if self.in_channels <= 0:
            raise ValidationError("in_channels must be positive")

    @property
    def feature_dim(self) -> int:
        return self.conv_channels[1]


class ConvEncoder:
    """conv -> batchnorm -> relu, twice, then global average over time."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        w1, w2 = config.conv_channels
        self.config = config
        self.conv1 = Conv1d(config.in_channels, w1, config.kernel_size, rng=rng)
        self.bn1 = BatchNorm1d(w1)
        self.relu1 = ReLU()
        self.conv2 = Conv1d(w1, w2, config.kernel_size, rng=rng)
        self.bn2 = BatchNorm1d(w2)
        self.relu2 = ReLU()
        self._pool_time = None

    def parameters(self) -> dict:
        params = {}
        for name, layer in (("conv1", self.conv1), ("bn1", self.bn1),
                            ("conv2", self.conv2), ("bn2", self.bn2)):
            for pname, p in layer.parameters().items():
                params[f"enc.{name}.{pname}"] = p
        return params

    def forward(self, x: np.ndarray, mode: str, cache: bool) -> np.ndarray:
        if x.ndim != 3:
            raise DimensionError(f"encoder expects [batch, channels, time], got {x.ndim} axes")
        if x.shape[1] != self.config.in_channels:
            raise DimensionError(
                f"encoder channel axis mismatch: input has {x.shape[1]} channels, "
                f"configured for {self.config.in_channels}")
        if x.shape[2] < 3:
            raise ValidationError(f"encoder needs at least 3 timesteps, got {x.shape[2]}")
        h = self.conv1.forward(x, mode, cache)
        h = self.bn1.forward(h, mode, cache)
        h = self.relu1.forward(h, mode, cache)
        h = self.conv2.forward(h, mode, cache)
        h = self.bn2.forward(h, mode, cache)
        h = self.relu2.forward(h, mode, cache)
        if cache:
            self._pool_time = h.shape[2]
        return h.mean(axis=2)

    def backward(self, grad_z: np.ndarray) -> np.ndarray:
        t = self._pool_time
        grad = np.repeat(grad_z[:, :, None], t, axis=2) / t
        grad = self.relu2.backward(grad)
        grad = self.bn2.backward(grad)
        grad = self.conv2.backward(grad)
        grad = self.relu1.backward(grad)
        grad = self.bn1.backward(grad)
        return self.conv1.backward(grad)

    def bn_state(self) -> dict:
        return {
            "enc.bn1.running_mean": self.bn1.running_mean,
            "enc.bn1.running_var": self.bn1.running_var,
            "enc.bn2.running_mean": self.bn2.running_mean,
            "enc.bn2.running_var": self.bn2.running_var,
        }

    def load_bn_state(self, arrays: dict, initialized: bool) -> None:
        self.bn1.running_mean = arrays["enc.bn1.running_mean"].copy()
        self.bn1.running_var = arrays["enc.bn1.running_var"].copy()
        self.bn2.running_mean = arrays["enc.bn2.running_mean"].copy()
        self.bn2.running_var = arrays["enc.bn2.running_var"].copy()
        self.bn1.initialized = initialized
        self.bn2.initialized = initialized


class ShareModel:
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

    def parameters(self) -> dict:
        params = dict(self.encoder.parameters())
        for name, layer in (("init_h", self.init_h), ("init_c", self.init_c),
                            ("embed", self.embed), ("lstm", self.lstm),
                            ("proj", self.proj)):
            for pname, p in layer.parameters().items():
                params[f"dec.{name}.{pname}"] = p
        return params

    def decode_step(self, token_ids: np.ndarray, h: np.ndarray, c: np.ndarray,
                    mode: str = "eval", cache: bool = False):
        """One decoder step: embed the tokens, advance the cell, project logits."""
        e = self.embed.forward(token_ids, mode, cache)
        h2, c2 = self.lstm.forward(e, h, c, mode, cache)
        logits = self.proj.forward(h2, mode, cache)
        return logits, h2, c2


class VanillaModel:
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

    def parameters(self) -> dict:
        params = dict(self.encoder.parameters())
        for pname, p in self.head.parameters().items():
            params[f"head.{pname}"] = p
        return params


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of constrained decoding for one input window."""

    class_id: int
    class_log_probs: np.ndarray  # [num_classes]
    step_log_probs: tuple  # per-token log probs along the winning path

    def __post_init__(self):
        best = int(np.argmax(self.class_log_probs))  # argmax takes the lowest index on ties
        if best != self.class_id:
            raise ValidationError("DecodeResult class_id is not the score argmax")


def encode(model, x: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Feature vectors [batch, d] for either model type."""
    return model.encoder.forward(x, mode, cache=False)


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


def constrained_decode(model: ShareModel, x: np.ndarray, space: LabelSpace):
    """Score every valid label sequence by walking the trie; argmax wins.

    Shared prefixes are decoded once, so the number of decoder steps is
    bounded by the trie's internal node count. Per-class scores are the
    summed token log probabilities including the end marker, identical to
    teacher-forcing each class independently. Ties resolve to the lowest
    class id. Returns one DecodeResult per input window.
    """
    if space.num_classes < 1:
        raise ValidationError("label space has no classes")
    batch = x.shape[0]
    z = model.encoder.forward(x, "eval", cache=False)
    h0 = model.init_h.forward(z, "eval", cache=False)
    c0 = model.init_c.forward(z, "eval", cache=False)

    scores = np.full((batch, space.num_classes), -np.inf)
    path_logps: list = [None] * space.num_classes

    def visit(node, token_id, h, c, acc, steps):
        logits, h2, c2 = model.decode_step(np.full(batch, token_id, dtype=np.int64), h, c)
        logp = log_softmax(logits)
        for tok in sorted(node.children):
            child = node.children[tok]
            child_acc = acc + logp[:, tok]
            child_steps = steps + [logp[:, tok]]
            if tok == END_ID:
                scores[:, child.class_id] = child_acc
                path_logps[child.class_id] = child_steps
            else:
                visit(child, tok, h2, c2, child_acc, child_steps)

    visit(space.root, START_ID, h0, c0, np.zeros(batch), [])

    results = []
    for b in range(batch):
        class_scores = scores[b].copy()
        best = int(np.argmax(class_scores))
        steps = tuple(float(step[b]) for step in path_logps[best])
        results.append(DecodeResult(class_id=best, class_log_probs=class_scores,
                                    step_log_probs=steps))
    return results


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


def vanilla_logits(model: VanillaModel, x: np.ndarray) -> np.ndarray:
    z = model.encoder.forward(x, "eval", cache=False)
    return model.head.forward(z, "eval", cache=False)


def count_parameters(model) -> int:
    """Trainable parameter count; batch-norm running stats excluded."""
    return sum(p.numel() for p in model.parameters().values())


def snapshot_parameters(model) -> dict:
    state = {name: p.data.copy() for name, p in model.parameters().items()}
    for name, arr in model.encoder.bn_state().items():
        state[name] = arr.copy()
    return state


def restore_parameters(model, state: dict) -> None:
    for name, p in model.parameters().items():
        p.data[:] = state[name]
    model.encoder.load_bn_state(state, initialized=True)


def save_model(model, out_dir, normalization=None, extra=None) -> None:
    """Write the parameter container and a manifest into a run directory.

    The manifest records the encoder configuration, the label-space hash and
    vocabulary, and the embedding provenance so a vocabulary mismatch can be
    detected before any inference happens.
    """
    os.makedirs(out_dir, exist_ok=True)
    arrays = {name: p.data for name, p in model.parameters().items()}
    arrays.update(model.encoder.bn_state())
    manifest = {
        "format_version": 1,
        "model_kind": model.kind,
        "encoder": {
            "in_channels": model.encoder_config.in_channels,
            "conv_channels": list(model.encoder_config.conv_channels),
            "kernel_size": model.encoder_config.kernel_size,
        },
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
    save_container(os.path.join(out_dir, CHECKPOINT_NAME), arrays,
                   metadata={"model_kind": model.kind})
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_model(run_dir, rng: np.random.Generator | None = None):
    """Rebuild a model from a run directory. Returns (model, manifest)."""
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise FormatError(f"{run_dir}: no {MANIFEST_NAME} found")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    arrays, _ = load_container(os.path.join(run_dir, CHECKPOINT_NAME))
    enc = EncoderConfig(
        in_channels=manifest["encoder"]["in_channels"],
        conv_channels=tuple(manifest["encoder"]["conv_channels"]),
        kernel_size=manifest["encoder"]["kernel_size"],
    )
    rng = rng if rng is not None else np.random.default_rng(0)
    if manifest["model_kind"] == "share":
        space = build_label_space(manifest["class_names"])
        if space.space_hash() != manifest["space_hash"]:
            raise FormatError(f"{run_dir}: label space hash mismatch; manifest is inconsistent")
        if list(space.token_strings) != manifest["vocabulary"]:
            raise FormatError(f"{run_dir}: vocabulary mismatch; manifest is inconsistent")
        model = ShareModel(space, enc, hidden_dim=manifest["hidden_dim"],
                           embed_dim=manifest["embed_dim"], rng=rng)
        model.embedding_source = manifest.get("embedding_source", "random")
    elif manifest["model_kind"] == "vanilla":
        model = VanillaModel(manifest["num_classes"], enc, rng=rng)
    else:
        raise FormatError(f"{run_dir}: unknown model kind {manifest['model_kind']!r}")
    for name, p in model.parameters().items():
        if name not in arrays:
            raise FormatError(f"{run_dir}: checkpoint missing tensor '{name}'")
        if arrays[name].shape != p.data.shape:
            raise FormatError(
                f"{run_dir}: tensor '{name}' has shape {arrays[name].shape}, "
                f"expected {p.data.shape}")
        p.data[:] = arrays[name]
    model.encoder.load_bn_state(arrays, initialized=manifest.get("bn_initialized", False))
    return model, manifest
