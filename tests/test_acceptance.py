"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report. The two study criteria train
real models and dominate the runtime (minutes on one core); everything else
finishes in seconds.
"""

import itertools
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from tinytts.audio import AudioClip, active_speech_level_p56, write_wav
from tinytts.augment import build_augmented_dataset
from tinytts.curation import (
    BUCKETED,
    RANDOM_SHUFFLE,
    CorpusEntry,
    Subset,
    load_ljspeech_manifest,
    measure_durations,
    padding_stats,
    plan_batches,
    select_informed_subset,
)
from tinytts.errors import BadConfig
from tinytts.evalkit import AttentionMatrix, sharpness_score, wer
from tinytts.noisegen import (
    SpectrumSpec,
    USASI,
    default_noise_specs,
    mix_at_snr,
    shaped_noise,
    usasi_magnitude,
)
from tinytts.toytrain import ToyConfig, ToyModel, gen_synthetic_corpus, run_study
from tinytts.toytrain.study import AUG_EMBEDDING, BATCHING, StudyParams

from conftest import gated_noise, grad_check, scaled, speech_like, tone, tree_sha256

# criterion 11 shows that study outputs do not depend on jobs
STUDY_JOBS = min(2, os.cpu_count() or 1)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_01_p56_correctness():
    started = time.perf_counter()
    # constant-envelope tone: active level equals long-term level (sine RMS)
    for amp in (0.5, 0.25):
        r = active_speech_level_p56(tone(1000.0, amp, 2.0))
        expected = 20 * np.log10(amp) - 3.0103
        assert r.active_level_db == pytest.approx(expected, abs=0.2)
        assert abs(r.active_level_db - r.long_term_level_db) <= 0.2
    # 50%-duty gated noise, gaps (4 s) far beyond the 0.2 s hangover
    clip = gated_noise(4.0, 4.0, 3, seed=3)
    r = active_speech_level_p56(clip)
    assert r.active_level_db - r.long_term_level_db == pytest.approx(3.01, abs=0.5)
    assert r.activity_factor == pytest.approx(0.5, abs=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("1 (P.56 correctness)", f"{elapsed:.2f} s")


def test_criterion_02_snr_exactness():
    started = time.perf_counter()
    specs = default_noise_specs()
    assert [s.snr_db for s in specs] == [25.0, 15.0, 20.0]
    worst = 0.0
    n_rescued = 0
    for i in range(20):
        # two of the fixtures run hot to force the overflow rescue
        gain = 1.9 if i % 10 == 9 else 1.0
        speech = scaled(speech_like(300 + i, duration_s=1.2), gain)
        spec = specs[i % 3]
        snr = 0.0 if gain > 1.0 else spec.snr_db  # low SNR guarantees overflow
        res = mix_at_snr(speech, spec.spectrum, snr, seed=1000 + i)
        if res.mixture_gain < 1.0:
            n_rescued += 1
        clean = speech.samples * res.mixture_gain
        noise = res.clip.samples - clean
        active = active_speech_level_p56(
            AudioClip(clean, speech.sample_rate_hz)
        ).active_level_db
        achieved = active - 10 * np.log10(np.mean(noise**2))
        worst = max(worst, abs(achieved - snr))
    assert worst <= 0.3
    assert n_rescued >= 1  # rescue path exercised and still within tolerance
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("2 (SNR exactness)", f"max dev {worst:.3f} dB, {n_rescued} rescued, {elapsed:.1f} s")


def test_criterion_03_usasi_spectrum():
    started = time.perf_counter()
    from scipy.signal import welch

    fs = 22050
    x = shaped_noise(60 * fs, SpectrumSpec(USASI), fs, seed=42)
    f, pxx = welch(x, fs=fs, nperseg=4096)
    band = (f >= 50) & (f <= 5000)
    measured = 10 * np.log10(pxx[band])
    analytic = 20 * np.log10(usasi_magnitude(f[band]))
    i200 = np.argmin(np.abs(f[band] - 200.0))
    offset = measured[i200] - analytic[i200]
    worst = float(np.max(np.abs(measured - analytic - offset)))
    assert worst <= 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("3 (USASI spectrum)", f"max dev {worst:.2f} dB, {elapsed:.1f} s")


def test_criterion_04_informed_set_property():
    started = time.perf_counter()
    rng = np.random.default_rng(40)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 80))
        corpus = [
            CorpusEntry(f"u{j:03d}", "", "", float(d))
            for j, d in enumerate(rng.uniform(0.4, 12.0, n))
        ]
        budget = float(rng.uniform(0.8, 40.0))
        try:
            subset = select_informed_subset(corpus, budget)
        except BadConfig as exc:
            assert "below the first" in str(exc)
            assert budget < min(e.duration_s for e in corpus)
            continue
        checked += 1
        selected = {e.id for e in subset.entries}
        excluded = [e for e in corpus if e.id not in selected]
        assert subset.total_duration_s <= budget  # budget safety
        if excluded:
            min_excluded = min(e.duration_s for e in excluded)
            assert max(e.duration_s for e in subset.entries) <= min_excluded  # prefix
            assert subset.total_duration_s + min_excluded > budget  # maximality
    assert checked >= 80
    detail = f"{checked} synthetic corpora"
    ljspeech = os.environ.get("LJSPEECH_ROOT")
    if ljspeech and Path(ljspeech, "metadata.csv").exists():
        entries = measure_durations(load_ljspeech_manifest(ljspeech))
        subset = select_informed_subset(entries, 7200.0)
        assert 7190.0 < subset.total_duration_s <= 7200.0
        detail += f"; LJSpeech 2 h subset total {subset.total_duration_s:.1f} s"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("4 (informed-set property)", f"{detail}, {elapsed:.1f} s")


def test_criterion_05_padding_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(50)
    for trial in range(20):
        n = int(rng.integers(6, 90))
        corpus = [
            CorpusEntry(f"u{j:03d}", "", "", float(d))
            for j, d in enumerate(rng.uniform(0.4, 9.0, n))
        ]
        subset = Subset(corpus)
        seed = int(rng.integers(0, 2**31))
        batch_size = int(rng.integers(2, 10))
        bucketed = padding_stats(
            plan_batches(subset, batch_size, BUCKETED, seed), corpus
        ).mean_padding_ratio
        shuffled = padding_stats(
            plan_batches(subset, batch_size, RANDOM_SHUFFLE, seed), corpus
        ).mean_padding_ratio
        assert bucketed <= shuffled + 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("5 (padding monotonicity)", f"20 corpora, {elapsed:.2f} s")


def test_criterion_06_sharpness_metric():
    import math

    started = time.perf_counter()
    # uniform = 1/N: exact for dyadic 1/N, one ulp otherwise (0.2 is not dyadic)
    assert sharpness_score(AttentionMatrix(np.full((7, 4), 0.25))) == 0.25
    assert math.isclose(
        sharpness_score(AttentionMatrix(np.full((7, 5), 0.2))), 0.2, rel_tol=1e-15
    )
    one_hot = np.zeros((6, 4))
    one_hot[np.arange(6), [1, 3, 0, 2, 2, 1]] = 1.0
    assert sharpness_score(AttentionMatrix(one_hot)) == 1.0
    rng = np.random.default_rng(60)
    for _ in range(1000):
        t = int(rng.integers(1, 8))
        n = int(rng.integers(2, 7))
        raw = rng.exponential(1.0, size=(t, n))
        w = raw / raw.sum(axis=1, keepdims=True)
        s = sharpness_score(AttentionMatrix(w))
        assert 1.0 / n - 1e-12 <= s <= 1.0 + 1e-12
        perm = rng.permutation(n)
        s_perm = sharpness_score(AttentionMatrix(w[:, perm]))
        assert s_perm == pytest.approx(s, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("6 (sharpness metric)", f"1000 random matrices, {elapsed:.1f} s")


def test_criterion_07_wer_oracle_equivalence():
    started = time.perf_counter()

    def oracle_cost(ref: tuple, hyp: tuple) -> int:
        @lru_cache(maxsize=None)
        def go(i: int, j: int) -> int:
            if i == len(ref):
                return len(hyp) - j
            if j == len(hyp):
                return len(ref) - i
            return min(
                go(i + 1, j + 1) + (ref[i] != hyp[j]),
                go(i + 1, j) + 1,
                go(i, j + 1) + 1,
            )

        return go(0, 0)

    vocab = ("a", "b", "c")
    seqs = [s for k in range(6) for s in itertools.product(vocab, repeat=k)]
    n_checked = 0
    seen_above_100 = False
    for ref in seqs:
        if not ref:
            continue
        for hyp in seqs:
            b = wer(list(ref), list(hyp))
            assert b.errors == oracle_cost(ref, hyp), (ref, hyp)
            if b.wer_percent > 100.0:
                seen_above_100 = True
            n_checked += 1
    assert seen_above_100  # >100% WER cases exist and are handled
    b = wer(["x", "y"], ["p", "q", "r", "s", "t"])
    assert b.wer_percent == pytest.approx(250.0)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("7 (WER oracle equivalence)", f"{n_checked} pairs, {elapsed:.1f} s")


def test_criterion_08_gradient_check():
    started = time.perf_counter()
    tiny = ToyConfig(
        vocab_size=4,
        feat_dim=3,
        embed_dim=4,
        enc_hidden=5,
        aug_embed_dim=2,
        dec_hidden=5,
        attn_dim=4,
        n_aug_ids=3,
        max_decode_frames=30,
        batch_size=3,
        steps=0,
        seed=1,
    )
    corpus = gen_synthetic_corpus(4, 3, 3, (2, 4), [(0.1, 0.05)], seed=7)
    model = ToyModel(tiny)
    # generic parameter point: no gradient component sits between the formula's
    # 1e-8 floor and the resolution of eps=1e-5 central differences
    rng = np.random.default_rng(0)
    for p in model.params.values():
        p[...] = rng.uniform(-0.7, 0.7, size=p.shape)
    worst = grad_check(model, corpus.examples[:3], eps=1e-5)
    assert worst < 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        "8 (gradient check)",
        f"max rel err {worst:.2e} over {model.parameter_count()} params, {elapsed:.1f} s",
    )


@pytest.mark.study
def test_criterion_09_batching_study(tmp_path):
    started = time.perf_counter()
    summary = run_study(
        BATCHING, [1, 2, 3, 4, 5], tmp_path / "batching", jobs=STUDY_JOBS
    )
    b = summary["medians"][BUCKETED]["median_sharpness"]
    r = summary["medians"][RANDOM_SHUFFLE]["median_sharpness"]
    csv_path = tmp_path / "batching" / "study.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "study,arm,seed,metric,value"
    assert len(lines) == 1 + 2 * 5 * 2  # two metrics per (arm, seed)
    elapsed = time.perf_counter() - started
    # Known limitation: with padded tokens hard-masked out of the attention
    # softmax and the loss, padding is inert and bucketing carries no reliable
    # advantage at this scale (extensive A/B sweeps put the win rate near 50%).
    # The expected direction is asserted as stated; a failure here reports the
    # measured medians rather than hiding them.
    assert b > r, (
        f"bucketed median sharpness {b:.4f} does not exceed shuffled {r:.4f}; "
        "masked attention removes the padding pathology bucketing guards against"
    )
    assert summary["bucketed_sharper"] is True
    report(
        "9 (batching study)",
        f"bucketed {b:.3f} > shuffled {r:.3f} over 5 seeds, {elapsed/60:.1f} min",
    )


@pytest.mark.study
def test_criterion_10_aug_embedding_study(tmp_path):
    started = time.perf_counter()
    summary = run_study(
        AUG_EMBEDDING, [1, 2, 3, 4, 5], tmp_path / "augemb", jobs=STUDY_JOBS
    )
    embed = summary["medians"]["embed"]
    assert summary["clean_id_beats_noisy_ids"] is True
    for key in ("rmse_aug1", "rmse_aug2", "rmse_aug3"):
        assert embed["rmse_aug0"] < embed[key]
    assert summary["embedding_beats_no_embedding"] is True
    assert embed["rmse_aug0"] < summary["medians"]["noembed"]["rmse_aug0"]
    elapsed = time.perf_counter() - started
    report(
        "10 (aug-embedding study)",
        f"clean {embed['rmse_aug0']:.4f} < noisy "
        f"{min(embed['rmse_aug1'], embed['rmse_aug2'], embed['rmse_aug3']):.4f} "
        f"and < no-embed {summary['medians']['noembed']['rmse_aug0']:.4f}, "
        f"{elapsed/60:.1f} min",
    )


def test_criterion_11_reproducibility(tmp_path):
    started = time.perf_counter()
    # fixture corpus of real WAVs
    (tmp_path / "clean").mkdir()
    entries = []
    for i in range(3):
        clip = speech_like(700 + i, duration_s=1.1)
        path = tmp_path / "clean" / f"utt{i}.wav"
        write_wav(clip, path)
        entries.append(CorpusEntry(f"utt{i}", path, f"t{i}", clip.duration_s))
    subset = Subset(entries)
    specs = default_noise_specs()
    checksums = []
    for variant, jobs in (("serial", 1), ("rerun", 1), ("parallel", 2)):
        out = tmp_path / f"aug_{variant}"
        build_augmented_dataset(subset, specs, out, master_seed=77, jobs=jobs)
        checksums.append(tree_sha256(out))
    assert checksums[0] == checksums[1] == checksums[2]

    # scaled-down study, rerun serial and parallel: byte-identical outputs
    mini = StudyParams(
        config=ToyConfig(
            vocab_size=5,
            feat_dim=4,
            embed_dim=5,
            enc_hidden=6,
            aug_embed_dim=0,
            dec_hidden=6,
            attn_dim=5,
            n_aug_ids=1,
            max_decode_frames=30,
            batch_size=4,
            steps=30,
        ),
        n_utts=16,
        n_heldout_utts=4,
        len_range=(2, 5),
    )
    study_sums = []
    for variant, jobs in (("serial", 1), ("rerun", 1), ("parallel", 2)):
        out = tmp_path / f"study_{variant}"
        run_study(BATCHING, [1, 2, 3], out, jobs=jobs, params=mini)
        study_sums.append(tree_sha256(out))
    assert study_sums[0] == study_sums[1] == study_sums[2]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report("11 (reproducibility)", f"dataset + study serial/parallel identical, {elapsed:.1f} s")
