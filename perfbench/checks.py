"""Output checks. Each returns error strings; no errors means correct.

The oracle scorer is the benchmark's own: it teacher-forces every class
sequence on its own, with no trie sharing, using only the model's public
layers, so the decoder under test is never used to check itself.
"""

import math

import numpy as np

from harseq.labelspace import END_ID, START_ID
from harseq.numkernel import log_softmax

ORACLE_CHUNK = 256  # same chunking as the program's evaluation, so bits agree


def oracle_predictions(model, space, x) -> np.ndarray:
    """Argmax over per-class teacher-forced log-likelihoods (lowest id on ties).

    Only the first step, from the start token, is shared by all classes and
    computed once; every later step is run per class.
    """
    preds = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], ORACLE_CHUNK):
        chunk = x[lo:lo + ORACLE_CHUNK]
        n = chunk.shape[0]
        z = model.encoder.forward(chunk, "eval", cache=False)
        h0 = model.init_h.forward(z, "eval", cache=False)
        c0 = model.init_c.forward(z, "eval", cache=False)
        logits, h1, c1 = model.decode_step(np.full(n, START_ID, dtype=np.int64), h0, c0)
        first = log_softmax(logits)
        scores = np.empty((n, space.num_classes))
        for seq in space.sequences:
            h, c = h1, c1
            total = np.zeros(n) + first[:, seq.tokens[0]]
            for tok_in, tok_out in zip(seq.tokens, seq.tokens[1:] + (END_ID,)):
                logits, h, c = model.decode_step(np.full(n, tok_in, dtype=np.int64), h, c)
                total += log_softmax(logits)[:, tok_out]
            scores[:, seq.class_id] = total
        preds[lo:lo + n] = scores.argmax(axis=1)
    return preds


def confusion(y_true, y_pred, num_classes) -> list:
    conf = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(conf, (np.asarray(y_true), np.asarray(y_pred)), 1)
    return conf.tolist()


def check_eval(exit_code: int, metrics: dict, expected_confusion: list) -> list:
    """The eval command exited 0 and its confusion equals the oracle's."""
    if exit_code != 0:
        return [f"eval exited with code {exit_code}"]
    got = metrics.get("confusion")
    if got != expected_confusion:
        return ["eval confusion matrix differs from the oracle's"]
    return []


def check_record(record, test_size: int) -> list:
    """Finite losses in every epoch and a final test over the whole test set."""
    errors = []
    for e in record.epochs:
        for name in ("train_loss", "val_loss", "val_macro_f1"):
            value = getattr(e, name)
            if not math.isfinite(value):
                errors.append(f"{record.model_kind} epoch {e.epoch}: {name} is {value}")
    if record.final_test is None:
        errors.append(f"{record.model_kind}: no final_test")
    else:
        total = sum(sum(row) for row in record.final_test.confusion)
        if total != test_size:
            errors.append(f"{record.model_kind}: final_test confusion sums to {total}, "
                          f"test size is {test_size}")
    return errors


def check_repeats_agree(qualities: list) -> list:
    """Every repeat of one seed gives the first repeat's quality metrics, exactly.

    Returns one error list per repeat.
    """
    return [[] if q == qualities[0] else [f"quality {q} differs from the first repeat's "
                                          f"{qualities[0]}"] for q in qualities]
