"""The benchmark workloads: set-up, one closed-loop job, output checks.

A job is the whole workload once, from the same inputs every time, so each
job of a run must reproduce the first job's outputs exactly. `setup`
builds what a job needs and is timed separately (setup_s); `job` returns its
phase timings, work counts and output fingerprints; `check` compares a job's
outputs with the first job of the run and with the reference recorded for
the seed in reference/<workload>.json.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from inputs import tree_digest

import tinytts.cli
from tinytts import audio, augment, curation, evalkit, noisegen, toytrain
from tinytts.toytrain.study import AUGEMB_PARAMS, BATCHING_PARAMS, StudyParams
from tinytts.toytrain import infer as untraced_infer  # output checks only
from tinytts.toytrain.train import mean_corpus_loss  # bound here, so never traced

# Informed-curate budget: below the 92 s corpus total, so curate must choose.
CURATE_BUDGET_S = 70.0
CURATE_DIAG_BATCH = 16
# The train workload: the corpus (seed * 1000 + salt) and the batch order
# (ToyConfig.seed) of the studies' first seed, fixed so every --seed trains
# on the same batches in the same order: with the order drawn from --seed,
# peak memory ranged over 184-231 MB from seed to seed. --seed sets the model
# initialisation only.
STUDY_SEED = 1
BATCHING_CORPUS_SEED = STUDY_SEED * 1000 + 17
AUGEMB_CORPUS_SEED = STUDY_SEED * 1000 + 29
BATCHING_EPOCHS = 4
AUGEMB_EPOCHS = 20
# Each held-out utterance is decoded this many times per job, so the
# evaluation phase is long enough to time steadily.
BATCHING_EVAL_PASSES = 3
AUGEMB_EVAL_PASSES = 8
# Rounding differences grow through training. Harmless changes of rounding (a
# softmax backward summed in another order, Adam's update regrouped) left the
# 24-step batching arms' losses and infer outputs within 4e-15 of the record,
# but moved the 280-step augemb arm's final loss by up to 3e-3 (seeds 0 and
# 2-10); its loss curve was unchanged up to step 112 and drifted from step 140
# on. So a training loss must match the record within LOSS_RTOL up to the last
# step that stays steady (every step for batching, step 112 for augemb);
# augemb's final loss only within CHAOTIC_FINAL_RTOL, and augemb's infer is
# checked on the untrained model.
LOSS_RTOL = 1e-9
CHAOTIC_FINAL_RTOL = 0.05
INFER_RTOL = 1e-9
# A fingerprint sum of MELB outputs may differ from the recorded one by this
# share of the recorded sum of absolute values.
MEL_RTOL = 1e-4
# verify-aug's largest SNR deviation (about 1e-4 dB, from 16-bit rounding) may
# differ from the recorded one by this share; a verify that skips or
# re-measures nothing reports another figure.
VERIFY_RTOL = 0.05
MOMENTS = ("sum", "row_moment", "col_moment", "item_moment")

AUG_TREE_PATTERNS = ("wavs/*.wav", "manifest.jsonl")


@dataclass
class Job:
    wall_s: float
    phases_s: dict[str, float]
    work: dict[str, float]
    outputs: dict[str, object]  # fingerprints compared across jobs and seeds
    attempted: int = 0
    failed: int = 0


def _cli(argv: list[str]) -> tuple[int, dict]:
    """Run `tinytts --json <argv>` in-process; (exit code, JSON summary)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tinytts.cli.main(["--json", *[str(a) for a in argv]])
    try:
        return code, json.loads(out.getvalue())
    except json.JSONDecodeError:
        return code, {}


def fingerprint(arrays: list[np.ndarray]) -> dict:
    """Order-sensitive summary of a list of 2-D arrays that tolerates rounding.

    `shapes` is exact. The moments weight each value by its row, its column
    and its array's place in the list, centred on 0, so reordered, reversed,
    transposed or swapped data moves them, while a new rounding barely does.
    """
    f = dict.fromkeys(("abs_sum", *MOMENTS), 0.0)
    for i, a in enumerate(arrays):
        a = np.asarray(a, dtype=np.float64)
        total = float(a.sum())
        f["abs_sum"] += float(np.abs(a).sum())
        f["sum"] += total
        f["row_moment"] += float(np.linspace(-0.5, 0.5, a.shape[0]) @ a.sum(axis=1))
        f["col_moment"] += float(a.sum(axis=0) @ np.linspace(-0.5, 0.5, a.shape[1]))
        f["item_moment"] += (i / max(len(arrays) - 1, 1) - 0.5) * total
    shapes = json.dumps([list(a.shape) for a in arrays]).encode()
    return {"shapes": hashlib.sha256(shapes).hexdigest(), **f}


def fingerprint_problems(what: str, got: dict, ref: dict, rtol: float) -> list[str]:
    if got["shapes"] != ref["shapes"]:
        return [f"{what}: array shapes differ from the recorded ones"]
    tol = rtol * ref["abs_sum"]
    return [f"{what}: {k} {got[k]!r} != recorded {ref[k]!r} (tolerance {tol:.3g})"
            for k in ("abs_sum", *MOMENTS) if abs(got[k] - ref[k]) > tol]


def _read_melb_frames(path: Path) -> np.ndarray | None:
    """A MELB file's T x n_mels values, parsed here rather than by tinytts."""
    raw = path.read_bytes()
    t, n_mels = struct.unpack("<II", raw[4:12])
    values = np.frombuffer(raw[16:], dtype="<f4")
    return values.reshape(t, n_mels) if values.size == t * n_mels else None


def _corpus_digest(corpus) -> str:
    h = hashlib.sha256(corpus.templates.tobytes() + corpus.emission_counts.tobytes())
    for e in corpus.examples:
        h.update(np.asarray(e.tokens, dtype=np.int64).tobytes())
        h.update(bytes([e.aug_id]) + e.target_frames.tobytes())
    return h.hexdigest()


# --- augment-ljs -----------------------------------------------------------


class AugmentLjs:
    name = "augment-ljs"

    def __init__(self, seed: int, inputs: Path, work: Path):
        self.seed = seed
        self.inputs = inputs
        self.work = work

    def setup(self) -> None:
        """Nothing beyond importing tinytts.cli: the corpus is a cached input."""

    def job(self, tracer=None) -> Job:
        out = self.work / "job"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        (out / "mel").mkdir()
        ok = 0
        t = [time.perf_counter()]
        code_c, cur = _cli(["curate", "--corpus-root", self.inputs, "--mode", "informed",
                            "--budget-s", CURATE_BUDGET_S, "--out-dir", out / "subset"])
        ok += code_c == 0
        t.append(time.perf_counter())
        # curate diagnostics the CLI does not report yet
        subset = curation.read_subset_manifest(out / "subset" / "subset.jsonl")
        plan = curation.plan_batches(subset, CURATE_DIAG_BATCH, curation.BUCKETED, self.seed)
        padding = curation.padding_stats(plan, subset.entries)
        coverage = curation.symbol_histogram(
            subset, curation.load_ljspeech_manifest(self.inputs)
        )["coverage"]
        t.append(time.perf_counter())
        code_a, _ = _cli(["augment", "--manifest", out / "subset" / "subset.jsonl",
                          "--out-dir", out / "aug", "--master-seed", self.seed,
                          "--jobs", 1])
        ok += code_a == 0
        t.append(time.perf_counter())
        code_v, ver = _cli(["verify-aug", "--manifest", out / "aug" / "manifest.jsonl"])
        ok += code_v == 0
        t.append(time.perf_counter())
        rows = augment.read_aug_manifest(out / "aug" / "manifest.jsonl")
        mel_audio_s = 0.0
        for row in rows:
            clip = audio.read_wav(row.audio_path)
            audio.write_melb(audio.mel_spectrogram(clip), out / "mel" / f"{row.id}.melb")
            mel_audio_s += clip.duration_s
        t.append(time.perf_counter())

        mels = [_read_melb_frames(p) for p in sorted((out / "mel").glob("*.melb"))]
        mels = [m for m in mels if m is not None]

        n_sources = len(subset.entries)
        n_outputs = n_sources * (len(noisegen.default_noise_specs()) + 1)
        noisy = [r for r in rows if r.aug_id != augment.CLEAN_AUG_ID]
        # the audio verify-aug reports having re-measured, not what the manifest lists
        n_verified = int(ver.get("n_noisy", 0))
        verified_s = sum(r.duration_s for r in noisy) * n_verified / max(len(noisy), 1)
        job = Job(
            wall_s=t[-1] - t[0],
            phases_s={"curate": t[1] - t[0], "curate_diag": t[2] - t[1],
                      "augment": t[3] - t[2], "verify": t[4] - t[3], "mel": t[5] - t[4]},
            work={
                "n_sources": n_sources,
                "augment_audio_s": sum(r.duration_s for r in rows),
                "verify_audio_s": verified_s,
                "mel_audio_s": mel_audio_s,
                "padding_ratio": padding.mean_padding_ratio,
                "symbol_coverage": coverage,
            },
            outputs={
                "augment_tree": tree_digest(out / "aug", AUG_TREE_PATTERNS),
                "mel_tree": tree_digest(out / "mel", ("*.melb",)),
                "mel": fingerprint(mels),
                "prefix_property": bool(cur.get("prefix_property")),
                "n_flagged": int(ver.get("n_flagged", -1)),
                "n_verified": n_verified,
                "n_noisy_expected": n_outputs - n_sources,
                "max_deviation_db": float(ver.get("max_deviation_db", math.nan)),
            },
        )
        # operations: 3 CLI commands, one render per output, one verify per
        # noisy output, one mel per output
        job.attempted = 3 + n_outputs + (n_outputs - n_sources) + n_outputs
        job.failed = (3 - ok) + (n_outputs - len(rows)) + max(ver.get("n_flagged", 0), 0)
        job.failed += n_outputs - len(mels)
        return job

    def check(self, job: Job, first: Job, ref: dict | None) -> list[str]:
        o = job.outputs
        bad = []
        if not o["prefix_property"]:
            bad.append("curate: informed prefix property violated")
        if o["n_flagged"] != 0:
            bad.append(f"verify-aug: {o['n_flagged']} files over 0.5 dB")
        if o["n_verified"] != o["n_noisy_expected"]:
            bad.append(f"verify-aug: re-measured {o['n_verified']} noisy files,"
                       f" expected {o['n_noisy_expected']}")
        for key in ("augment_tree", "mel_tree"):
            if o[key] != first.outputs[key]:
                bad.append(f"{key}: differs from the first job of the run")
        if ref is not None:
            if o["augment_tree"] != ref["augment_tree"]:
                bad.append("augment tree: SHA-256 differs from the recorded digest")
            bad += fingerprint_problems("mel", o["mel"], ref["mel"], MEL_RTOL)
            if not math.isclose(o["max_deviation_db"], ref["max_deviation_db"],
                                rel_tol=VERIFY_RTOL):
                bad.append(f"verify-aug: max deviation {o['max_deviation_db']!r} dB"
                           f" != recorded {ref['max_deviation_db']!r}")
        return bad

    @staticmethod
    def rates(jobs: list[Job]) -> dict[str, list[float]]:
        return {
            "augment_audio_s_per_s": [j.work["augment_audio_s"] / j.phases_s["augment"] for j in jobs],
            "verify_audio_s_per_s": [j.work["verify_audio_s"] / j.phases_s["verify"] for j in jobs],
            "mel_audio_s_per_s": [j.work["mel_audio_s"] / j.phases_s["mel"] for j in jobs],
        }


# --- train ------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """One study geometry the train workload trains and decodes."""

    label: str
    params: StudyParams
    corpus_seed: int
    epochs: int
    eval_passes: int
    arms: dict[str, str]  # span tag -> batch plan mode
    sharpness: bool
    steady_steps: int | None = None  # last step checked tightly; None: all


BATCHING = Shape("batching", BATCHING_PARAMS, BATCHING_CORPUS_SEED, BATCHING_EPOCHS,
                 BATCHING_EVAL_PASSES,
                 {"bucketed": curation.BUCKETED, "random_shuffle": curation.RANDOM_SHUFFLE},
                 sharpness=True)
AUGEMB = Shape("augemb", AUGEMB_PARAMS, AUGEMB_CORPUS_SEED, AUGEMB_EPOCHS,
               AUGEMB_EVAL_PASSES, {"augemb": curation.BUCKETED}, sharpness=False,
               steady_steps=112)


class Train:
    """Both study shapes: long sequences (batching) and short ones (augemb)."""

    name = "train"
    shapes = (BATCHING, AUGEMB)

    def __init__(self, seed: int, inputs: Path | None, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        self.parts = {}
        for shape in self.shapes:
            p = shape.params
            corpus = toytrain.gen_synthetic_corpus(
                p.config.vocab_size, p.config.feat_dim, p.n_utts, p.len_range,
                list(p.aug_profiles), seed=shape.corpus_seed,
            )
            # the last n_heldout_utts utterances, all their copies, are held out
            cut = len(corpus.examples) - p.n_heldout_utts * p.copies_per_utt
            heldout = [e for e in corpus.examples[cut:] if e.aug_id == 0]
            corpus.examples = corpus.examples[:cut]
            batches = math.ceil(len(corpus.examples) / p.config.batch_size)
            cfg = replace(p.config, seed=STUDY_SEED, steps=shape.epochs * batches)
            model = toytrain.ToyModel(cfg, init_seed=self.seed)
            self.parts[shape.label] = (corpus, heldout, model)

    def inputs_digest(self) -> str:
        return hashlib.sha256(
            "".join(_corpus_digest(c) for c, _, _ in self.parts.values()).encode()
        ).hexdigest()

    def job(self, tracer=None) -> Job:
        phases, work, losses, steady_loss, trained, infer_fp = {}, {}, {}, {}, {}, {}
        n_steps = n_infer = 0
        infer_errors = []
        roundtrip = True
        h = hashlib.sha256()
        t_start = time.perf_counter()
        for shape in self.shapes:
            corpus, heldout, model0 = self.parts[shape.label]
            models = {}
            # train() spends two of these corpus-loss passes per arm beside its
            # steps; timed once here so the step rates can leave them out
            start = time.perf_counter()
            mean_corpus_loss(model0, corpus.examples)
            phases[f"loss_pass_{shape.label}"] = time.perf_counter() - start
            t0 = time.perf_counter()
            for tag, mode in shape.arms.items():
                model = copy.deepcopy(model0)
                if tracer is not None:
                    tracer.tag = tag
                report = toytrain.train(model, corpus, batch_plan_mode=mode)
                losses[tag] = report.loss_curve + [report.final_loss]
                if shape.steady_steps is not None:
                    steady_loss[tag] = report.loss_curve[shape.steady_steps - 1]
                models[tag] = model
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.tag = ""
            infer_s = 0.0
            frames = 0
            first_pass = []
            for eval_pass in range(shape.eval_passes):
                for model in models.values():
                    for example in heldout:
                        for aug_id in range(model.config.n_aug_ids):
                            n_infer += 1
                            start = time.perf_counter()
                            try:
                                out, _gates, attn = toytrain.infer(model, example.tokens, aug_id)
                            except Exception as exc:  # a failed operation, reported
                                infer_errors.append(repr(exc))
                                continue
                            infer_s += time.perf_counter() - start
                            frames += out.shape[0]
                            h.update(out.tobytes())
                            if eval_pass == 0:
                                first_pass.append(out)
                            if shape.sharpness and out.shape[0] > 0:
                                evalkit.sharpness_score(evalkit.AttentionMatrix(attn))
            t2 = time.perf_counter()
            if shape.steady_steps is None:
                infer_fp[shape.label] = fingerprint(first_pass)
            phases[f"train_{shape.label}"] = t1 - t0
            phases[f"eval_{shape.label}"] = t2 - t1
            phases[f"infer_{shape.label}"] = infer_s
            steps = sum(len(losses[tag]) - 1 for tag in shape.arms)
            epoch_frames = sum(e.target_frames.shape[0] for e in corpus.examples)
            work[f"steps_{shape.label}"] = steps
            work[f"frames_{shape.label}"] = shape.epochs * epoch_frames * len(shape.arms)
            work[f"infer_frames_{shape.label}"] = frames
            n_steps += steps
            trained.update(models)
        wall_s = time.perf_counter() - t_start

        for shape in self.shapes:
            if shape.steady_steps is not None:  # trained outputs are chaotic
                _, heldout, model0 = self.parts[shape.label]
                try:
                    infer_fp[shape.label] = fingerprint([
                        untraced_infer(model0, e.tokens, aug_id)[0]
                        for e in heldout for aug_id in range(model0.config.n_aug_ids)])
                except Exception as exc:  # reported by check()
                    infer_errors.append(repr(exc))

        for tag, model in trained.items():
            path = self.work / f"{tag}.toym"
            toytrain.save_model(model, path)
            loaded = toytrain.load_model(path)
            roundtrip &= loaded.config == model.config and all(
                np.array_equal(loaded.params[k].data, p.data) for k, p in model.params.items()
            )
        bad_steps = sum(not math.isfinite(x) for c in losses.values() for x in c[:-1])
        job = Job(
            wall_s=wall_s,
            phases_s=phases,
            work=work,
            outputs={
                "final_loss": {tag: c[-1] for tag, c in losses.items()},
                "steady_loss": steady_loss,
                "infer": h.hexdigest(),
                "infer_fingerprint": infer_fp,
                "roundtrip": roundtrip,
                "infer_errors": infer_errors,
            },
        )
        job.attempted = n_steps + n_infer
        job.failed = bad_steps  # infer errors count through check()
        return job

    def check(self, job: Job, first: Job, ref: dict | None) -> list[str]:
        o = job.outputs
        bad = []
        for tag, loss in o["final_loss"].items():
            if not math.isfinite(loss):
                bad.append(f"{tag}: final loss {loss} is not finite")
        if ref is not None:
            checks = [("steady_loss", tag, LOSS_RTOL) for tag in o["steady_loss"]] + [
                ("final_loss", tag, CHAOTIC_FINAL_RTOL if tag in o["steady_loss"] else LOSS_RTOL)
                for tag in o["final_loss"]]
            for key, tag, rtol in checks:
                if not math.isclose(o[key][tag], ref[key][tag], rel_tol=rtol):
                    bad.append(f"{tag}: {key} {o[key][tag]!r} != recorded {ref[key][tag]!r}")
            for label, fp in ref["infer"].items():
                if label not in o["infer_fingerprint"]:
                    bad.append(f"infer {label}: no outputs to check")
                    continue
                bad += fingerprint_problems(
                    f"infer {label}", o["infer_fingerprint"][label], fp, INFER_RTOL)
        for key in ("final_loss", "infer"):
            if o[key] != first.outputs[key]:
                bad.append(f"{key}: differs from the first job of the run")
        if not o["roundtrip"]:
            bad.append("save_model/load_model round trip changed the parameters")
        bad += [f"infer raised {e}" for e in o["infer_errors"]]
        return bad

    @classmethod
    def rates(cls, jobs: list[Job]) -> dict[str, list[float]]:
        out = {}
        for shape in cls.shapes:
            label = shape.label
            # steps only: each arm's train() also makes two corpus-loss passes
            train = [j.phases_s[f"train_{label}"]
                     - 2 * len(shape.arms) * j.phases_s[f"loss_pass_{label}"] for j in jobs]
            infer = [j.phases_s[f"infer_{label}"] for j in jobs]
            out[f"train_steps_per_s.{label}"] = [
                j.work[f"steps_{label}"] / t for j, t in zip(jobs, train)]
            out[f"train_frames_per_s.{label}"] = [
                j.work[f"frames_{label}"] / t for j, t in zip(jobs, train)]
            out[f"infer_frames_per_s.{label}"] = [
                j.work[f"infer_frames_{label}"] / t for j, t in zip(jobs, infer)]
        return out


WORKLOADS = {w.name: w for w in (AugmentLjs, Train)}
