"""Golden SHA-256 pins of small output artefacts.

The determinism tests elsewhere compare two runs of the same code, so a change
that moves output bytes the same way on every run passes them. These pins
compare against digests recorded once, so any moved byte shows here.

The pins were recorded with numpy 2.4.6 on x86-64, whose runtime SIMD
extensions were X86_V3, X86_V4, AVX512_ICL and AVX512_SPR, with one OpenBLAS
thread on two cores. Another numpy build or SIMD path may round some float
results differently, and so may another BLAS thread count: OpenBLAS splits
long weight-gradient reductions across its threads. tinytts sets one thread
when it loads before numpy, and conftest sets the same before numpy loads
here. The mismatch message names all of these, so that case can be told
from a code change. A change that moves a pin on purpose
updates it here and says in CHANGES.md which artefact moved and why.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tinytts.audio import MelConfig, mel_spectrogram, write_melb, write_wav
from tinytts.augment import CLEAN_AUG_ID, build_augmented_dataset, verify_augmented_dataset
from tinytts.cli import main
from tinytts.curation import CorpusEntry, Subset
from tinytts.noisegen import default_noise_specs
from tinytts.toytrain import AUG_EMBEDDING, BATCHING, ToyConfig, run_study
from tinytts.toytrain.study import AUGEMB_PARAMS, BATCHING_PARAMS

from conftest import BLAS_THREAD_VARS, speech_like, tree_sha256
from test_study import MINI_AUGEMB, MINI_BATCHING

RECORDED_WITH = (
    "numpy 2.4.6, SIMD X86_V3, X86_V4, AVX512_ICL, AVX512_SPR, "
    "OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, os.cpu_count() 2"
)

PINS = {
    "augment_tree": "39f22f69de2a10c4c656228238d75721a7c9165e4cc5dbcf8b278875ef5ae4af",
    "verify_deviations": "e30098a2978adcb9228f9e9dd7bd8ec6e667e5742c973c28916e6a0f997a6df1",
    "melb": "cf0b84ed7a6bd336600318cb0bda5cb1cc84bc739a5160d779e3a494827d9e4a",
    "toy_train_batching/model.toym": "f20953bf0d5ecb8c91b26451ad77e622f64bab03dbea6364088742bf1237b959",
    "toy_train_batching/train_report.json": "83802b8927e035a88e03484c9462af26970fa8902b3f716301568faf35e7f881",
    "toy_train_augemb/model.toym": "25bb1ee8a258f55c9acbf8228f996c37d1fd04687f21ecee6480f32a6403e4e8",
    "toy_train_augemb/train_report.json": "e69ea479ef3f6713e4a983300907968e42296601f93ef280928ee12878163a67",
    "toy_infer/frames.melb": "1e5fd67603546b91e24e16049e3977ef07835d1473a3b1691f403f910625cdf5",
    "toy_infer/attn.attn": "af21f6975ffa682a65e15ec81e93edad7e3eaa8db29c66d3ead2a2026c6010d3",
    "study_batching_tree": "0b21b3b307ec7d13dcb0a98fc15037dde7477ccc140ab5d3a655aee9814ffab9",
    "study_augemb_tree": "25951fa9900836c13325bb79c7b7703f08c2e2517c2523c81b5845ebac574113",
}

# toy-train at each study's model shape and corpus lengths, on a small corpus
# and a few steps: (study params, utterances)
TOY_SHAPES = {"batching": (BATCHING_PARAMS, 24), "augemb": (AUGEMB_PARAMS, 8)}
TOY_STEPS = 6


def _simd_found() -> str:
    """The 'found' SIMD extensions np.show_runtime() prints, else its output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        np.show_runtime()
    found = re.search(r"'found': \[([^\]]*)\]", out.getvalue())
    return found.group(1).replace("'", "") if found else out.getvalue()


def _blas_threads() -> str:
    """The BLAS thread settings (fixed by conftest) and the core count."""
    settings = [f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS]
    return ", ".join([*settings, f"os.cpu_count() {os.cpu_count()}"])


def check_pin(name: str, digest: str) -> None:
    if digest != PINS[name]:
        pytest.fail(
            f"{name}: sha256 {digest} does not match its pin {PINS[name]!r}; "
            f"here numpy {np.__version__}, SIMD {_simd_found()}, {_blas_threads()}; "
            f"pins recorded with {RECORDED_WITH}"
        )


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def augment_tree(tmp_path_factory):
    """(output directory, manifest) of criterion 11's fixture: three
    speech-like sources, default specs."""
    root = tmp_path_factory.mktemp("augment")
    (root / "clean").mkdir()
    entries = []
    for i in range(3):
        clip = speech_like(700 + i, duration_s=1.1)
        path = root / "clean" / f"utt{i}.wav"
        write_wav(clip, path)
        entries.append(CorpusEntry(f"utt{i}", path, f"t{i}", clip.duration_s))
    subset = Subset(entries)
    out = root / "aug"
    manifest = build_augmented_dataset(subset, default_noise_specs(), out, master_seed=77)
    return out, manifest


def test_augment_tree_pin(augment_tree):
    check_pin("augment_tree", tree_sha256(augment_tree[0]))


def test_verify_deviations_pin(augment_tree):
    # one noisy copy per verify call, so each report's maximum is that copy's
    # deviation; the float64 bytes of all of them in manifest order are pinned
    manifest = augment_tree[1]
    clean = {m.source_id: m for m in manifest if m.aug_id == CLEAN_AUG_ID}
    deviations = [
        verify_augmented_dataset([clean[m.source_id], m]).max_deviation_db
        for m in manifest
        if m.aug_id != CLEAN_AUG_ID
    ]
    assert len(deviations) == 9
    assert verify_augmented_dataset(manifest).max_deviation_db == max(deviations)
    check_pin("verify_deviations", hashlib.sha256(np.array(deviations).tobytes()).hexdigest())


def test_melb_pin(tmp_path):
    path = tmp_path / "clip.melb"
    write_melb(mel_spectrogram(speech_like(5, duration_s=1.5), MelConfig()), path)
    check_pin("melb", sha256_file(path))


def _toy_train_argv(root, shape: str) -> list[str]:
    """toy-train's arguments at a shape, its config and corpus written under
    root and its output going to root / "run"."""
    params, n_utts = TOY_SHAPES[shape]
    cfg = params.config
    profiles = ",".join(f"{shift:g}:{std:g}" for shift, std in params.aug_profiles)
    lines = [
        f"toy.{f.name} = {getattr(cfg, f.name)}"
        for f in dataclasses.fields(ToyConfig)
        if f.name not in ("steps", "seed")
    ]
    lines += [
        f"toy.n_utts = {n_utts}",
        f"toy.len_min = {params.len_range[0]}",
        f"toy.len_max = {params.len_range[1]}",
        f"toy.aug_profiles = {profiles}",
    ]
    config = root / "toy.cfg"
    config.write_text("\n".join(lines) + "\n")
    corpus = root / "corpus.jsonl"
    assert main(["--config", str(config), "toy-gen", "--out", str(corpus),
                 "--seed", "3"]) == 0
    return ["--config", str(config), "toy-train", "--corpus", str(corpus),
            "--out-dir", str(root / "run"), "--seed", "1", "--steps", str(TOY_STEPS)]


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """shape -> toy-train output directory, each run through the CLI."""
    runs = {}
    for shape in TOY_SHAPES:
        root = tmp_path_factory.mktemp(shape)
        assert main(_toy_train_argv(root, shape)) == 0
        runs[shape] = root / "run"
    return runs


@pytest.mark.parametrize("shape", sorted(TOY_SHAPES))
def test_toy_train_pins(toy_runs, shape):
    run = toy_runs[shape]
    check_pin(f"toy_train_{shape}/model.toym", sha256_file(run / "model.toym"))
    report = json.loads((run / "train_report.json").read_text())
    digest = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    check_pin(f"toy_train_{shape}/train_report.json", digest)


def test_toy_train_bytes_do_not_follow_the_blas_thread_setting(tmp_path):
    # a fresh process that loads tinytts before numpy runs one BLAS thread,
    # whatever its environment asks for
    src = Path(__file__).resolve().parents[1] / "src"
    models = []
    for threads in ("2", "1"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        argv = _toy_train_argv(root, "batching")
        env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(BLAS_THREAD_VARS, threads)}
        proc = subprocess.run([sys.executable, "-m", "tinytts.cli", *argv],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        models.append(sha256_file(root / "run" / "model.toym"))
    assert models[0] == models[1]


def test_toy_infer_pins(toy_runs, tmp_path):
    frames, attn = tmp_path / "frames.melb", tmp_path / "attn.attn"
    assert main(["toy-infer", "--model", str(toy_runs["augemb"] / "model.toym"),
                 "--tokens", "3,1,4,1,5", "--aug-id", "2",
                 "--out-frames", str(frames), "--out-attn", str(attn)]) == 0
    check_pin("toy_infer/frames.melb", sha256_file(frames))
    check_pin("toy_infer/attn.attn", sha256_file(attn))


@pytest.mark.parametrize("name", ["batching", "augemb"])
def test_study_tree_pins(tmp_path, name):
    study, params = {
        "batching": (BATCHING, MINI_BATCHING), "augemb": (AUG_EMBEDDING, MINI_AUGEMB)
    }[name]
    run_study(study, [1, 2, 3], tmp_path, params=params)
    check_pin(f"study_{name}_tree", tree_sha256(tmp_path))
