"""Span recorder that wraps tinytts' public functions where callers look them up.

Each target is a (span name, module, attribute path) triple naming the
binding a caller actually resolves at call time: `tinytts.augment` imported
`read_wav` into its own namespace, so the wrapper goes on
`tinytts.augment.read_wav`, not on `tinytts.audio.wav.read_wav`. Spans are
kept in memory; a span's self time is its duration minus the time covered by
its child spans. A target whose module or attribute no longer exists is
recorded as absent and every metric fed by it reads -1.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

# (span name, module, attribute path)
TARGETS = (
    ("cli.curate", "tinytts.cli", "cmd_curate"),
    ("cli.augment", "tinytts.cli", "cmd_augment"),
    ("cli.verify-aug", "tinytts.cli", "cmd_verify_aug"),
    ("augment.build", "tinytts.cli", "build_augmented_dataset"),
    ("augment.verify", "tinytts.cli", "verify_augmented_dataset"),
    ("audio.read_wav", "tinytts.augment", "read_wav"),
    ("audio.read_wav", "tinytts.audio", "read_wav"),
    ("audio.write_wav", "tinytts.augment", "write_wav"),
    ("audio.read_wav_info", "tinytts.curation", "read_wav_info"),
    ("audio.p56", "tinytts.noisegen", "active_speech_level_p56"),
    ("audio.p56", "tinytts.augment", "active_speech_level_p56"),
    ("audio.mel", "tinytts.audio", "mel_spectrogram"),
    ("audio.write_melb", "tinytts.audio", "write_melb"),
    ("noisegen.shaped_noise", "tinytts.noisegen", "shaped_noise"),
    ("noisegen.mix_at_snr", "tinytts.augment", "mix_at_snr"),
    ("curation.measure_durations", "tinytts.curation", "measure_durations"),
    ("curation.select_subset", "tinytts.curation", "select_informed_subset"),
    ("curation.padding_stats", "tinytts.curation", "padding_stats"),
    ("curation.symbol_histogram", "tinytts.curation", "symbol_histogram"),
    ("curation.plan_batches", "tinytts.curation", "plan_batches"),
    ("curation.plan_batches", "tinytts.toytrain.train", "plan_batches"),
    ("toytrain.train", "tinytts.toytrain", "train"),
    ("toytrain.make_batch", "tinytts.toytrain.train", "make_batch"),
    ("toytrain.forward", "tinytts.toytrain.train", "forward"),
    ("toytrain.backward", "tinytts.toytrain.train", "backward"),
    ("toytrain.clip", "tinytts.toytrain.train", "clip_global_norm"),
    ("toytrain.adam", "tinytts.toytrain.train", "Adam.step"),
    ("toytrain.mean_corpus_loss", "tinytts.toytrain.train", "mean_corpus_loss"),
    ("toytrain.infer", "tinytts.toytrain", "infer"),
    ("evalkit.sharpness_score", "tinytts.evalkit", "sharpness_score"),
)

# span tags of the train workload: the two batching-shape arms, the augemb arm
TRAIN_TAGS = {"bucketed": "batching", "random_shuffle": "batching", "augemb": "augemb"}
TRAIN_OPS = ("make_batch", "forward", "backward", "clip", "adam")
SPECTRA = ("white", "usasi", "psd_table")
ABSENT = -1.0


@dataclass
class Span:
    name: str
    path: tuple[str, ...]  # names of the enclosing spans, outermost first
    tag: str
    ms: float
    self_ms: float
    error: bool
    attrs: dict = field(default_factory=dict)


def _tape_nodes(loss) -> int | None:
    """Tensors reachable from the loss through the autodiff tape, if one exists."""
    if not hasattr(loss, "_parents"):
        return None
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _attrs(name: str, args, result) -> dict:
    """Work counts recorded at the span boundary, outside the timed interval."""
    if name == "audio.read_wav":
        return {"mb": os.path.getsize(args[0]) / 1e6}
    if name in ("audio.p56", "audio.mel"):
        return {"audio_s": args[0].duration_s}
    if name == "noisegen.shaped_noise":
        n, spectrum, rate = args[0], args[1], args[2]
        return {"kind": spectrum.kind, "audio_s": n / rate}
    if name == "noisegen.mix_at_snr":
        return {"rescued": result.mixture_gain < 1.0}
    if name == "toytrain.make_batch":
        mask = result.frame_mask
        return {"padded": int(mask.size - mask.sum()), "frames": int(mask.size)}
    if name == "toytrain.forward":
        return {"nodes": _tape_nodes(result.loss)}
    if name == "toytrain.infer":
        return {"frames": int(result[0].shape[0])}
    return {}


class Tracer:
    """Installs wrappers on TARGETS, records spans, removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag = ""
        self.absent: list[str] = []  # "module.attribute" of each missing target
        self.absent_spans: set[str] = set()
        self._stack: list[list] = []  # [name, child_ms] per open span
        self._installed: list[tuple[object, str, object]] = []
        self._resolved = []
        for name, module, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, leaf = attr.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                self.absent_spans.add(name)
                continue
            self._resolved.append((name, owner, leaf, fn))

    def _wrap(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stack.append([name, 0.0])
            error = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                ms = (time.perf_counter() - start) * 1e3
                _, child_ms = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += ms
                attrs = {} if error else _attrs(name, args, result)
                path = tuple(frame[0] for frame in tracer._stack)
                tracer.spans.append(
                    Span(name, path, tracer.tag, ms, ms - child_ms, error, attrs)
                )

        return wrapper

    def install(self) -> None:
        for name, owner, leaf, fn in self._resolved:
            setattr(owner, leaf, self._wrap(name, fn))
            self._installed.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, fn = self._installed.pop()
            setattr(owner, leaf, fn)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_sources: int, absent: set[str]) -> dict[str, float]:
    """Per-layer figures of one traced job; ABSENT where a feeding span is absent."""

    def pick(name, under=None, direct=None, tag=None):
        return [
            s
            for s in spans
            if s.name == name
            and (under is None or under in s.path)
            and (direct is None or (s.path and s.path[-1] == direct))
            and (tag is None or s.tag == tag)
        ]

    def ms(items, key="ms"):
        return sum(getattr(s, key) for s in items)

    def attr(items, key):
        return sum(s.attrs.get(key, 0) for s in items)

    m: dict[str, float] = {}

    def put(metric, value, *feeds):
        m[metric] = ABSENT if absent.intersection(feeds) else value

    reads = pick("audio.read_wav")
    put("audio.read_wav.calls", len(reads), "audio.read_wav")
    put("audio.read_wav.ms", ms(reads), "audio.read_wav")
    put("audio.read_wav.mb", attr(reads, "mb"), "audio.read_wav")
    writes = pick("audio.write_wav")
    put("audio.write_wav.calls", len(writes), "audio.write_wav")
    put("audio.write_wav.ms", ms(writes), "audio.write_wav")
    put("audio.read_wav_info.ms", ms(pick("audio.read_wav_info")), "audio.read_wav_info")
    p56 = pick("audio.p56")
    put("audio.p56.calls", len(p56), "audio.p56")
    put("audio.p56.ms_per_audio_s", _ratio(ms(p56), attr(p56, "audio_s")), "audio.p56")
    mel = pick("audio.mel")
    put("audio.mel.ms_per_audio_s", _ratio(ms(mel), attr(mel, "audio_s")), "audio.mel")
    put("audio.write_melb.ms", ms(pick("audio.write_melb")), "audio.write_melb")

    shaped = pick("noisegen.shaped_noise")
    for kind in SPECTRA:
        items = [s for s in shaped if s.attrs.get("kind") == kind]
        put(f"noisegen.shaped_noise.{kind}.ms_per_audio_s",
            _ratio(ms(items), attr(items, "audio_s")), "noisegen.shaped_noise")
    mixes = pick("noisegen.mix_at_snr")
    put("noisegen.mix_at_snr.self_ms", ms(mixes, "self_ms"),
        "noisegen.mix_at_snr", "audio.p56", "noisegen.shaped_noise")
    put("noisegen.clip_rescues", attr(mixes, "rescued"), "noisegen.mix_at_snr")

    build = ("augment.build", "audio.read_wav", "audio.write_wav", "noisegen.mix_at_snr")
    put("augment.build.self_ms", ms(pick("augment.build"), "self_ms"), *build)
    put("augment.verify.self_ms", ms(pick("augment.verify"), "self_ms"),
        "augment.verify", "audio.read_wav", "audio.p56")
    put("augment.wav_reads_per_source",
        _ratio(len(pick("audio.read_wav", under="augment.build")), n_sources), *build)
    for phase in ("build", "verify"):
        put(f"augment.p56_calls_per_source.{phase}",
            _ratio(len(pick("audio.p56", under=f"augment.{phase}")), n_sources),
            f"augment.{phase}", "audio.p56")
    put("augment.outputs", len(pick("audio.write_wav", under="augment.build")), *build)
    failures = [s for s in mixes + pick("audio.read_wav", under="augment.build") if s.error]
    put("augment.failures", len(failures), *build)

    for op in ("measure_durations", "select_subset", "padding_stats", "symbol_histogram"):
        put(f"curation.{op}.ms", ms(pick(f"curation.{op}")), f"curation.{op}")
    plans = pick("curation.plan_batches")
    put("curation.plan_batches.calls", len(plans), "curation.plan_batches")
    put("curation.plan_batches.ms", ms(plans), "curation.plan_batches")

    for arm in TRAIN_TAGS:
        batches = pick("toytrain.make_batch", direct="toytrain.train", tag=arm)
        put(f"curation.padded_frame_fraction.{arm}",
            _ratio(attr(batches, "padded"), attr(batches, "frames")),
            "toytrain.train", "toytrain.make_batch")
        steps = len(pick("toytrain.adam", direct="toytrain.train", tag=arm))
        for op in TRAIN_OPS:
            items = pick(f"toytrain.{op}", direct="toytrain.train", tag=arm)
            put(f"toytrain.{op}.ms_per_step.{arm}", _ratio(ms(items), steps),
                f"toytrain.{op}", "toytrain.train", "toytrain.adam")
    for shape in ("batching", "augemb"):
        nodes = [
            s.attrs.get("nodes")
            for s in pick("toytrain.forward", direct="toytrain.train")
            if TRAIN_TAGS.get(s.tag) == shape
        ]
        put(f"toytrain.tape_nodes_per_forward.{shape}",
            ABSENT if None in nodes else _ratio(sum(nodes), len(nodes)),
            "toytrain.forward", "toytrain.train")
    put("toytrain.mean_corpus_loss.ms", ms(pick("toytrain.mean_corpus_loss")),
        "toytrain.mean_corpus_loss")
    infers = pick("toytrain.infer")
    put("toytrain.infer.calls", len(infers), "toytrain.infer")
    put("toytrain.infer.ms_per_frame", _ratio(ms(infers), attr(infers, "frames")),
        "toytrain.infer")

    sharp = pick("evalkit.sharpness_score")
    put("evalkit.sharpness_score.calls", len(sharp), "evalkit.sharpness_score")
    put("evalkit.sharpness_score.ms", ms(sharp), "evalkit.sharpness_score")

    for cmd, children in (
        ("curate", ("curation.measure_durations", "curation.select_subset")),
        ("augment", ("augment.build",)),
        ("verify-aug", ("augment.verify",)),
    ):
        put(f"cli.{cmd}.self_ms", ms(pick(f"cli.{cmd}"), "self_ms"), f"cli.{cmd}", *children)
    return m
