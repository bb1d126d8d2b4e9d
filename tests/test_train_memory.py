"""Peak-memory contracts of the training step, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so these peaks are exact
byte counts and do not depend on the machine. The shapes are those of the
worst batching-study batch: 16 utterances of 128 frames over 40 tokens.
"""

import math
from dataclasses import fields, replace

import numpy as np

from tinytts.curation import BUCKETED
from tinytts.toytrain import ToyExample, ToyModel, backward, forward, make_batch
from tinytts.toytrain.data import SyntheticCorpus
from tinytts.toytrain.model import ForwardResult
from tinytts.toytrain.study import BATCHING_PARAMS
from tinytts.toytrain.train import Adam, clip_global_norm, mean_corpus_loss, train

from conftest import traced_peak

CFG = BATCHING_PARAMS.config
N_TOKENS, N_FRAMES = 40, 128


def equal_shape_examples(count: int, seed: int = 0) -> list[ToyExample]:
    rng = np.random.default_rng(seed)
    return [
        ToyExample(
            [int(t) for t in rng.integers(1, CFG.vocab_size + 1, N_TOKENS)],
            0,
            rng.normal(size=(N_FRAMES, CFG.feat_dim)),
        )
        for _ in range(count)
    ]


def _kept_arrays(result: ForwardResult) -> dict[str, np.ndarray]:
    return {
        f.name: getattr(result, f.name)
        for f in fields(ForwardResult)
        if isinstance(getattr(result, f.name), np.ndarray)
    }


def test_forward_keeps_one_tape_and_no_decoder_inputs():
    model = ToyModel(CFG)
    batch = make_batch(equal_shape_examples(CFG.batch_size), CFG)
    b, t, n, mem = CFG.batch_size, N_FRAMES, N_TOKENS, CFG.memory_dim
    tape = {
        "head_in": (b, t, CFG.dec_hidden + mem),
        "scores": (b, t, n, CFG.attn_dim),
        "attention": (b, t, n),
        "predicted": (b, t, CFG.feat_dim),
        "gate_logits": (b, t),
        "memory": (b, n, mem),
    }
    tape_bytes = sum(8 * math.prod(shape) for shape in tape.values())
    # 9,609,216 bytes of tape, and about 0.62 MB of step rows and loss
    # temporaries; a (B, T, M + mem) decoder-input tape would add 557,056 more
    assert traced_peak(lambda: forward(model, batch)) < 1.1 * tape_bytes
    kept = _kept_arrays(forward(model, batch))
    assert {name: a.shape for name, a in kept.items()} == tape


def test_backward_keeps_no_second_copy_of_the_activations():
    model = ToyModel(CFG)
    result = forward(model, make_batch(equal_shape_examples(CFG.batch_size), CFG))
    b, t = CFG.batch_size, N_FRAMES
    # the per-frame gradient rows backward keeps: the head gradient, whose two
    # halves the time loop overwrites with the pre-activation and context
    # gradients, and the energy and query gradients
    rows = {
        "d_head": (b, t, CFG.dec_hidden + CFG.memory_dim),
        "d_energies": (b, t, N_TOKENS),
        "d_queries": (b, t, CFG.attn_dim),
    }
    row_bytes = sum(8 * math.prod(shape) for shape in rows.values())
    # 1,638,400 bytes of rows; backward peaks near 1.99 MB. Separate
    # pre-activation and context rows, or a buffer kept past its last read,
    # took it to 2.78 MB.
    assert traced_peak(lambda: backward(model, result)) < 1.3 * row_bytes


def test_train_step_frees_the_previous_step():
    examples = equal_shape_examples(CFG.batch_size)

    def one_step():
        model = ToyModel(CFG)
        grads = backward(model, forward(model, make_batch(examples, CFG)))
        clip_global_norm(grads, CFG.grad_clip_norm)
        Adam(model, CFG.learning_rate).step(model, grads)

    corpus = SyntheticCorpus(examples, np.zeros(0), np.zeros(0), [], 0)
    model = ToyModel(replace(CFG, steps=2))
    two_steps = traced_peak(lambda: train(model, corpus, BUCKETED))
    assert two_steps <= 1.3 * traced_peak(one_step)


def test_corpus_loss_holds_one_forward_at_a_time():
    model = ToyModel(CFG)
    examples = equal_shape_examples(2 * CFG.batch_size)
    batch = make_batch(examples[: CFG.batch_size], CFG)
    one = traced_peak(lambda: forward(model, batch))
    assert traced_peak(lambda: mean_corpus_loss(model, examples)) <= 1.3 * one


def test_backward_leaves_the_forward_activations_untouched():
    cfg = replace(CFG, aug_embed_dim=2, n_aug_ids=2)
    examples = equal_shape_examples(4)
    examples[1].aug_id = 1
    examples[2] = replace(examples[2], tokens=examples[2].tokens[:7],
                          target_frames=examples[2].target_frames[:30])
    model = ToyModel(cfg)
    batch = make_batch(examples, cfg)
    runs = []
    for _ in range(2):
        result = forward(model, batch)
        kept = _kept_arrays(result)
        before = {name: a.tobytes() for name, a in kept.items()}
        grads = backward(model, result)
        for name, a in kept.items():
            assert not a.flags.writeable, name
            assert a.tobytes() == before[name], name
        runs.append((before, {k: g.tobytes() for k, g in grads.items()}, result.loss))
    assert runs[0] == runs[1]
