"""Byte-mutation property tests of every file reader but WAV's (test_wav.py
has those): a valid file with one byte flipped, its tail cut off, or one byte
inserted either loads or raises a TinyTtsError subclass, never anything else.
The JSON-lines readers also read a file alike whatever its line ends."""

import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinytts.audio import read_melb, write_melb
from tinytts.augment import AugManifestEntry, read_aug_manifest
from tinytts.config import load_config_file
from tinytts.curation import (
    CorpusEntry,
    Subset,
    read_subset_manifest,
    write_json_rows,
    write_subset_manifest,
)
from tinytts.errors import TinyTtsError
from tinytts.evalkit import AttentionMatrix, read_attention, write_attention
from tinytts.noisegen import read_psd_table_csv
from tinytts.toytrain import (
    ToyConfig,
    ToyModel,
    gen_synthetic_corpus,
    load_corpus,
    load_model,
    save_corpus,
    save_model,
)

TINY_MODEL = ToyConfig(
    vocab_size=3, feat_dim=2, embed_dim=2, enc_hidden=2, aug_embed_dim=1,
    dec_hidden=2, attn_dim=2, n_aug_ids=2, max_decode_frames=4,
)


def _subset(path):
    wavs = path.parent / "wavs"
    entries = [CorpusEntry("u0", wavs / "u0.wav", "one", 1.0),
               CorpusEntry("u1", wavs / "u1.wav", "two words", 1.5)]
    write_subset_manifest(Subset(entries), path)


def _aug_manifest(path):
    rows = [
        AugManifestEntry("u__aug0", "u", str(path.parent / "a0.wav"), "t", 1.0, 0,
                         "clean", None, 1.0, 5),
        AugManifestEntry("u__aug1", "u", str(path.parent / "a1.wav"), "t", 1.0, 1,
                         "white", 20.0, 0.98, 6),
    ]
    write_json_rows(path, [asdict(r) for r in rows], "audio_path")


def _text(content: str):
    return lambda path: path.write_text(content, encoding="utf-8")


# name -> (write a valid file at a path, the reader under test)
FORMATS = {
    "melb": (lambda p: write_melb(np.arange(12.0).reshape(3, 4), p), read_melb),
    "attn1": (
        lambda p: write_attention(
            AttentionMatrix(np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0]])), p
        ),
        read_attention,
    ),
    "toym": (lambda p: save_model(ToyModel(TINY_MODEL), p), load_model),
    "toy-corpus": (
        lambda p: save_corpus(gen_synthetic_corpus(3, 2, 2, (2, 3), [(0.1, 0.05)], 0), p),
        load_corpus,
    ),
    "subset-manifest": (_subset, read_subset_manifest),
    "aug-manifest": (_aug_manifest, read_aug_manifest),
    "psd-csv": (_text("freq_hz,power_db\n100,6\n1000,0\n4000,-3\n"), read_psd_table_csv),
    "config": (
        _text("# run\nbudget_s = 60\nselection_mode = random\ntoy.seed = 3\n"
              "noise_specs = white:25:1\nmel.n_mels = 40\n"),
        load_config_file,
    ),
}


@st.composite
def mutations(draw, raw: bytes) -> bytes:
    """raw with one byte flipped, its tail cut off, or one byte inserted."""
    pos = draw(st.integers(0, len(raw) - 1))
    kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if kind == "truncate":
        return raw[:pos]
    if kind == "flip":
        return raw[:pos] + bytes([raw[pos] ^ draw(st.integers(1, 255))]) + raw[pos + 1:]
    return raw[:pos] + bytes([draw(st.integers(0, 255))]) + raw[pos:]


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_a_typed_error(tmp_path_factory, name, data):
    write, read = FORMATS[name]
    base = tmp_path_factory.getbasetemp()
    valid = base / f"valid-{name}" / "file"
    if not valid.exists():
        valid.parent.mkdir()
        write(valid)
    # its own directory: a subset manifest's summary sidecar stays behind
    mutated = base / f"mutated-{name}" / "file"
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(data.draw(mutations(valid.read_bytes())))
    try:
        read(mutated)
    except TinyTtsError:
        pass


# the JSON-lines formats -> what of their reader's result == compares
JSON_LINES = {
    "toy-corpus": lambda c: (
        c.templates.tolist(),
        [(e.tokens, e.aug_id, e.target_frames.tolist()) for e in c.examples],
    ),
    "subset-manifest": lambda subset: subset,
    "aug-manifest": lambda rows: rows,
}


@pytest.mark.parametrize("name", JSON_LINES)
def test_json_lines_read_alike_with_any_line_end(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "file"
    write(path)
    lf = path.read_bytes()
    expected = JSON_LINES[name](read(path))
    for end in (b"\r\n", b"\r"):  # each ends a line, as in text mode
        path.write_bytes(lf.replace(b"\n", end))
        assert JSON_LINES[name](read(path)) == expected


@pytest.mark.parametrize("name", JSON_LINES)
def test_json_lines_bad_utf8_names_the_line(tmp_path, name):
    write, read = FORMATS[name]
    path = tmp_path / "file"
    write(path)
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff" + rest)
    with pytest.raises(TinyTtsError, match=re.escape(f"{path}:2: not UTF-8 text")):
        read(path)
