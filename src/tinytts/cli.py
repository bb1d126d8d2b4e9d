"""Command-line interface: one subcommand per pipeline operation.

Flag precedence: explicit flags > --config file > built-in defaults. `main`
parses --config once, sets each given flag whose dest is a config key through
that key's rule, refuses a non-empty --out-dir without --force, and echoes the
resolved configuration into it once the command returns; commands create the
directory when they first write there. Each command returns its result as one
payload, which `main` prints once: as JSON under --json, else as sorted
`key: value` lines. A command whose output is a CSV document prints only that.
Exit codes: 0 success, 1 validation/usage error, 2 I/O error.

At module level this imports only the standard library, config and errors,
so parsing flags and config costs no numpy; each command imports the
pipeline modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .config import (
    AUG_EMBEDDING,
    BATCHING,
    BUCKETED,
    DEFAULTS,
    INFORMED,
    RANDOM_SHUFFLE,
    RunConfig,
    finite_snr_db,
    load_config_file,
    parse_aug_profiles,
    parse_noise_specs,
    parse_spectrum,
    seed_int,
)
from .errors import TinyTtsError, read_fields, read_utf8

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _jobs(cfg: RunConfig) -> int:
    """The jobs key (--jobs or config); at most one worker process per core."""
    jobs = cfg.get("jobs")
    cores = os.cpu_count() or 1
    if not 1 <= jobs <= cores:
        raise TinyTtsError(f"jobs {jobs} outside [1, {cores}] (the CPU count)")
    return jobs


def _int_list(flag: str, text: str, rule=int) -> list[int]:
    """Comma-separated integers of a flag, each parsed by rule (int or a
    config rule such as seed_int); blank fields are skipped."""
    try:
        return [rule(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise TinyTtsError(f"{flag} {text!r}: {exc}") from exc


def build_augmented_dataset(*args, **kwargs):
    """augment.build_augmented_dataset, loaded on the first call. It keeps a
    name here because the benchmark's span recorder wraps it here."""
    from . import augment

    return augment.build_augmented_dataset(*args, **kwargs)


def verify_augmented_dataset(*args, **kwargs):
    """augment.verify_augmented_dataset, loaded on the first call, as above."""
    from . import augment

    return augment.verify_augmented_dataset(*args, **kwargs)


# --- subcommand implementations ---

# (exit code, payload): main prints the payload, the one statement of a
# command's result; a command whose output is a CSV document returns None
Result = tuple[int, dict | None]


def cmd_curate(args, cfg: RunConfig) -> Result:
    from . import curation

    root = cfg.get("corpus_root")
    if not root:
        raise TinyTtsError("no corpus root given (--corpus-root or config)")
    mode, budget = cfg.get("selection_mode"), cfg.get("budget_s")

    entries = curation.load_ljspeech_manifest(root)
    curation.measure_durations(entries)
    if mode == INFORMED:
        subset = curation.select_informed_subset(entries, budget)
    else:
        subset = curation.select_random_subset(entries, budget, cfg.get("seed"))

    selected = {e.id for e in subset.entries}
    prefix_ok = True
    if mode == INFORMED:
        excluded = [e for e in entries if e.id not in selected]
        if excluded:
            prefix_ok = max(e.duration_s for e in subset.entries) <= min(
                e.duration_s for e in excluded
            )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curation.write_subset_manifest(subset, out / "subset.jsonl")
    return EXIT_OK if prefix_ok else EXIT_VALIDATION, {
        "n_selected": len(subset.entries),
        "n_corpus": len(entries),
        "total_s": subset.total_duration_s,
        "budget_s": budget,
        "mode": mode,
        "prefix_property": prefix_ok,
    }


def cmd_augment(args, cfg: RunConfig) -> Result:
    from .curation import read_subset_manifest

    specs = parse_noise_specs(cfg.get("noise_specs"))
    jobs = _jobs(cfg)
    subset = read_subset_manifest(args.manifest)
    manifest = build_augmented_dataset(
        subset, specs, args.out_dir, cfg.get("master_seed"), jobs=jobs
    )
    return EXIT_OK, {
        "n_outputs": len(manifest),
        "n_sources": len(subset.entries),
        "aug_ids": sorted({m.aug_id for m in manifest}),
    }


def cmd_verify_aug(args, cfg: RunConfig) -> Result:
    from .augment import read_aug_manifest

    jobs = _jobs(cfg)
    report = verify_augmented_dataset(read_aug_manifest(args.manifest), jobs=jobs)
    max_dev = report.max_deviation_db
    return EXIT_VALIDATION if report.flagged_ids else EXIT_OK, {
        "n_noisy": report.n_noisy,
        "n_clean": report.n_clean,
        # null, as JSON has no inf, when a flagged copy's noise rounded away
        "max_deviation_db": max_dev if math.isfinite(max_dev) else None,
        "n_flagged": len(report.flagged_ids),
        "flagged_ids": report.flagged_ids,
    }


def cmd_p56(args, cfg: RunConfig) -> Result:
    from .audio import active_speech_level_p56, read_wav

    result = active_speech_level_p56(read_wav(args.infile))
    return EXIT_OK, {
        "active_level_db": result.active_level_db,
        "long_term_level_db": result.long_term_level_db,
        "activity_factor": result.activity_factor,
    }


def cmd_mix(args, cfg: RunConfig) -> Result:
    from .audio import read_wav, write_wav
    from .noisegen import mix_at_snr

    clip = read_wav(args.infile)
    result = mix_at_snr(clip, parse_spectrum(args.noise), args.snr_db, args.noise_seed)
    write_wav(result.clip, args.outfile)
    return EXIT_OK, {
        "noise_gain": result.noise_gain,
        "mixture_gain": result.mixture_gain,
        "out": str(args.outfile),
    }


def cmd_mel(args, cfg: RunConfig) -> Result:
    from .audio import mel_spectrogram, read_wav, write_melb

    clip = read_wav(args.infile)
    mel = mel_spectrogram(clip, cfg.build("mel"))
    write_melb(mel, args.outfile)
    return EXIT_OK, {"frames": mel.shape[0], "n_mels": mel.shape[1]}


def _write_csv(out, csv: str) -> None:
    """A CSV document to the --out file, else to stdout."""
    if out:
        Path(out).write_text(csv, encoding="utf-8")
    else:
        sys.stdout.write(csv)


def cmd_sharpness(args, cfg: RunConfig) -> Result:
    from .evalkit import read_attention, sharpness_report

    if len(args.attn_dir) != len(args.label):
        raise TinyTtsError("need one --label per --attn-dir")
    by_label: dict[str, list] = {}  # label -> its AttentionMatrix dumps
    for directory, label in zip(args.attn_dir, args.label):
        files = sorted(Path(directory).glob("*.attn"))
        if not files:
            raise TinyTtsError(f"no .attn files under {directory}")
        by_label.setdefault(label, []).extend(read_attention(f) for f in files)
    _write_csv(args.out, sharpness_report(by_label))
    return EXIT_OK, None


def _sentences(path) -> list[str]:
    """A --ref or --hyp file's lines (ended by LF, CR LF or CR), blank ones kept."""
    lines = read_utf8(path, TinyTtsError).split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _sentence_pairs(args) -> list[tuple[str, str]]:
    if args.tsv:
        rows = read_fields(args.tsv, "\t", 2, TinyTtsError)
        return [(ref, hyp) for _, (ref, hyp) in rows]
    if not (args.ref and args.hyp):
        raise TinyTtsError("give --tsv, or both --ref and --hyp")
    refs, hyps = _sentences(args.ref), _sentences(args.hyp)
    if len(refs) != len(hyps):
        raise TinyTtsError(
            f"line count mismatch: {len(refs)} references vs {len(hyps)} hypotheses"
        )
    return list(zip(refs, hyps))


def cmd_wer(args, cfg: RunConfig) -> Result:
    from .evalkit import sus_report

    agg = sus_report(_sentence_pairs(args))
    return EXIT_OK, {
        "pooled_wer_percent": agg.pooled_wer_percent,
        "errors": agg.total_errors,
        "ref_words": agg.total_ref_words,
    }


def cmd_sus(args, cfg: RunConfig) -> Result:
    from .evalkit import sus_csv, sus_report

    agg = sus_report(_sentence_pairs(args))
    _write_csv(args.out, sus_csv(agg))
    if not args.out:  # stdout holds the CSV alone
        return EXIT_OK, None
    return EXIT_OK, {
        "pooled_wer_percent": agg.pooled_wer_percent,
        "n_sentences": len(agg.per_sentence),
    }


def cmd_toy_gen(args, cfg: RunConfig) -> Result:
    from .toytrain import gen_synthetic_corpus, save_corpus

    corpus = gen_synthetic_corpus(
        cfg.get("toy.vocab_size"),
        cfg.get("toy.feat_dim"),
        cfg.get("toy.n_utts"),
        (cfg.get("toy.len_min"), cfg.get("toy.len_max")),
        parse_aug_profiles(cfg.get("toy.aug_profiles")),
        seed=cfg.get("toy.seed"),
    )
    save_corpus(corpus, args.out)
    return EXIT_OK, {"n_examples": len(corpus.examples), "n_utts": cfg.get("toy.n_utts")}


def cmd_toy_train(args, cfg: RunConfig) -> Result:
    from .toytrain import ToyModel, load_corpus, save_model, train
    from .toytrain.model import check_example
    from .toytrain.train import clipped, mean_corpus_loss

    toy_cfg = cfg.build("toy")
    corpus = load_corpus(args.corpus)
    for i, example in enumerate(corpus.examples):  # an error names its corpus index
        check_example(example, toy_cfg, f"example {i}: ")
    model = ToyModel(toy_cfg)
    initial_loss = mean_corpus_loss(model, corpus.examples)
    report = train(model, corpus, batch_plan_mode=args.batch_mode)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.toym")
    norms = report.grad_norms
    report_payload = {
        "initial_loss": initial_loss,
        "final_loss": report.final_loss,
        "steps": len(report.loss_curve),
        "seed": toy_cfg.seed,
        "wall_clock_s": report.wall_clock_s,
        "clipped_steps": sum(clipped(n, toy_cfg.grad_clip_norm) for n in norms),
        "loss_curve": report.loss_curve,
        "grad_norms": norms,
    }
    report_text = json.dumps(report_payload, indent=2) + "\n"
    (out / "train_report.json").write_text(report_text, encoding="utf-8")
    return EXIT_OK, {k: v for k, v in report_payload.items() if not isinstance(v, list)}


def cmd_toy_infer(args, cfg: RunConfig) -> Result:
    from .audio import write_melb
    from .evalkit import AttentionMatrix, write_attention
    from .toytrain import infer, load_model

    tokens = _int_list("--tokens", args.tokens)
    model = load_model(args.model)
    frames, gates, attn = infer(model, tokens, args.aug_id)
    if args.out_frames:
        write_melb(frames, args.out_frames)
    if args.out_attn:
        write_attention(AttentionMatrix(attn), args.out_attn)
    return EXIT_OK, {"n_frames": int(frames.shape[0]), "gate_max": float(gates.max())}


def cmd_study(args, cfg: RunConfig) -> Result:
    from .toytrain import run_study

    jobs = _jobs(cfg)
    seeds = _int_list("--seeds", args.seeds, seed_int)
    return EXIT_OK, run_study(args.study, seeds, args.out_dir, jobs=jobs)


# --- argument parser ---

def _flag_type(rule):
    """rule as an argparse type=, whose ValueError argparse prints with its
    reason rather than as "invalid <rule name> value"."""

    def parse(text: str):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinytts",
        description="Low-resource TTS data tooling and toy attention trainer",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--json", action="store_true", help="print the result as one JSON object"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag whose dest is a config.DEFAULTS key is parsed by that key's rule in
    # main, so it carries no type= or choices= of its own

    p = sub.add_parser("curate", help="select a training subset from a corpus")
    p.add_argument("--corpus-root", dest="corpus_root")
    p.add_argument("--mode", dest="selection_mode", help="informed|random")
    p.add_argument("--budget-s", dest="budget_s")
    p.add_argument("--seed", dest="seed")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("augment", help="build the noise-augmented dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--master-seed", dest="master_seed")
    p.add_argument("--noise-specs", dest="noise_specs")
    p.add_argument("--jobs", dest="jobs")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("verify-aug", help="re-measure achieved SNRs of a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--jobs", dest="jobs")
    p.set_defaults(func=cmd_verify_aug)

    p = sub.add_parser("p56", help="active speech level of one WAV")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_p56)

    p = sub.add_parser("mix", help="add noise to one WAV at an exact SNR")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--noise", default="white", help="white|usasi|sensor|<table.csv>")
    p.add_argument("--snr-db", type=_flag_type(finite_snr_db), required=True)
    # seeds the noise only; not the config's seed key
    p.add_argument("--seed", dest="noise_seed", type=_flag_type(seed_int), default=0)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("mel", help="extract a MELB mel spectrogram")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_mel)

    p = sub.add_parser("sharpness", help="sharpness statistics of ATTN1 files")
    p.add_argument("--attn-dir", action="append", required=True)
    p.add_argument("--label", action="append", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sharpness)

    for name, fn in (("wer", cmd_wer), ("sus", cmd_sus)):
        p = sub.add_parser(name, help=f"{name} over reference/hypothesis sentences")
        p.add_argument("--ref")
        p.add_argument("--hyp")
        p.add_argument("--tsv", help="2-column TSV alternative to --ref/--hyp")
        if name == "sus":
            p.add_argument("--out", help="per-sentence CSV path (default stdout)")
        p.set_defaults(func=fn)

    p = sub.add_parser("toy-gen", help="generate a synthetic toy corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", dest="toy.seed")
    p.add_argument(
        "--aug-profiles", dest="toy.aug_profiles", help='e.g. "0:0.1,0.2:0.05,-0.15:0.08"'
    )
    p.set_defaults(func=cmd_toy_gen)

    p = sub.add_parser("toy-train", help="train the toy model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", dest="toy.seed")
    p.add_argument("--steps", dest="toy.steps")
    p.add_argument(
        "--batch-mode",
        choices=[BUCKETED, RANDOM_SHUFFLE],
        default=BUCKETED,
    )
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_toy_train)

    p = sub.add_parser("toy-infer", help="run inference with a trained toy model")
    p.add_argument("--model", required=True)
    p.add_argument("--tokens", required=True, help="comma-separated token ids")
    p.add_argument("--aug-id", type=_flag_type(int), default=0)
    p.add_argument("--out-frames", help="MELB output path")
    p.add_argument("--out-attn", help="ATTN1 output path")
    p.set_defaults(func=cmd_toy_infer)

    p = sub.add_parser("study", help="run a batching or augmentation-embedding study")
    p.add_argument("--study", choices=[BATCHING, AUG_EMBEDDING], required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", dest="jobs")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        # parsed once, so unknown keys are rejected before any work
        cfg = load_config_file(args.config) if args.config else RunConfig()
        for key, value in vars(args).items():
            if key in DEFAULTS and value is not None:
                cfg.set(key, value)
        out = Path(args.out_dir) if "out_dir" in vars(args) else None
        if out is not None and out.exists() and any(out.iterdir()) and not args.force:
            raise TinyTtsError(
                f"output directory {out} is not empty (use --force to reuse)"
            )
        code, payload = args.func(args, cfg)
        if out is not None:
            (out / "resolved_config.txt").write_text(cfg.snapshot(), encoding="utf-8")
    except (OSError, TinyTtsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION
    if args.json and payload is not None:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        # one line per key, each value in its JSON form
        for key in sorted(payload or {}):
            print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
