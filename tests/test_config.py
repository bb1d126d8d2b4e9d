import hashlib
import re

import pytest

from tinytts.audio import MelConfig
from tinytts.config import (
    DEFAULTS,
    RunConfig,
    finite_snr_db,
    load_config_file,
    parse_aug_profiles,
    parse_noise_specs,
    parse_spectrum,
    seed_int,
    selection_mode,
)
from tinytts.errors import ConfigFileError
from tinytts.noisegen import MAX_ABS_DB, PSD_TABLE, USASI, WHITE
from tinytts.toytrain import ToyConfig

# SHA-256 of RunConfig().snapshot() when the mel/toy defaults stopped being
# restated in DEFAULTS: a default that drifts in a dataclass changes it
SNAPSHOT_SHA256 = "f0887b8b70a150d43450816cd7a91ae5fc15cec4bcc606878582f693392b256f"


def test_defaults_and_overrides(tmp_path):
    cfg = RunConfig()
    assert cfg.get("budget_s") == 7200.0
    assert cfg.get("mel.n_fft") == 1024
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\nbudget_s = 600\nmel.n_mels=40\n\ntoy.steps = 10\n",
        encoding="utf-8",
    )
    cfg = load_config_file(path)
    assert cfg.get("budget_s") == 600.0
    assert cfg.get("mel.n_mels") == 40
    assert cfg.get("toy.steps") == 10
    assert cfg.get("mel.n_fft") == 1024  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("budgets = 600\n", encoding="utf-8")
    with pytest.raises(ConfigFileError, match=re.escape(f"{path}:1: ")):
        load_config_file(path)
    cfg = RunConfig()
    with pytest.raises(ConfigFileError):
        cfg.set("mel.nfft", "512")
    with pytest.raises(ConfigFileError):
        cfg.get("nope")


def test_unparseable_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("budget_s = soon\n", encoding="utf-8")
    with pytest.raises(ConfigFileError, match="budget_s"):
        load_config_file(path)


def test_snapshot_is_stable_and_excludes_jobs():
    cfg = RunConfig()
    cfg.set("jobs", "4")
    snap = cfg.snapshot()
    assert "jobs" not in snap
    # job count is an execution detail: snapshots match the defaults exactly
    assert snap == RunConfig().snapshot()
    assert "budget_s = 7200.0" in snap


# RunConfig().snapshot(), the resolved_config.txt of a run on the defaults, line
# by line: a default that moves between modules must keep these bytes
DEFAULT_SNAPSHOT_LINES = [
    "budget_s = 7200.0",
    "corpus_root = ",
    "master_seed = 0",
    "mel.fmax_hz = 8000.0",
    "mel.fmin_hz = 0.0",
    "mel.hop_length = 256",
    "mel.log_floor = 1e-05",
    "mel.n_fft = 1024",
    "mel.n_mels = 80",
    "mel.win_length = 1024",
    "noise_specs = white:25:1,usasi:15:2,sensor:20:3",
    "seed = 0",
    "selection_mode = informed",
    "toy.attn_dim = 16",
    "toy.aug_embed_dim = 4",
    "toy.aug_profiles = 0:0.1,0.2:0.05,-0.15:0.08",
    "toy.batch_size = 16",
    "toy.dec_hidden = 32",
    "toy.embed_dim = 16",
    "toy.enc_hidden = 32",
    "toy.feat_dim = 16",
    "toy.gate_loss_weight = 1.0",
    "toy.grad_clip_norm = 1.0",
    "toy.learning_rate = 0.001",
    "toy.len_max = 8",
    "toy.len_min = 3",
    "toy.max_decode_frames = 200",
    "toy.n_aug_ids = 4",
    "toy.n_utts = 200",
    "toy.seed = 0",
    "toy.steps = 2000",
    "toy.vocab_size = 12",
]

# the parser of every key, jobs included
DEFAULT_PARSERS = {
    "budget_s": float,
    "corpus_root": str,
    "jobs": int,
    "master_seed": seed_int,
    "noise_specs": str,
    "seed": seed_int,
    "selection_mode": selection_mode,
    **{f"mel.{name}": float for name in ("fmax_hz", "fmin_hz", "log_floor")},
    **{f"mel.{name}": int for name in ("hop_length", "n_fft", "n_mels", "win_length")},
    **{
        f"toy.{name}": int
        for name in (
            "attn_dim", "aug_embed_dim", "batch_size", "dec_hidden", "embed_dim",
            "enc_hidden", "feat_dim", "len_max", "len_min", "max_decode_frames",
            "n_aug_ids", "n_utts", "steps", "vocab_size",
        )
    },
    **{
        f"toy.{name}": float
        for name in ("gate_loss_weight", "grad_clip_norm", "learning_rate")
    },
    "toy.aug_profiles": str,
    "toy.seed": seed_int,
}


def test_default_snapshot_and_parsers_are_pinned_key_by_key():
    assert RunConfig().snapshot() == "\n".join(DEFAULT_SNAPSHOT_LINES) + "\n"
    assert {key: parser for key, (_, parser) in DEFAULTS.items()} == DEFAULT_PARSERS


def test_pipeline_modules_reexport_the_settings():
    import tinytts.config as config
    from tinytts import audio, curation, noisegen, toytrain
    from tinytts.toytrain import model, study

    assert audio.MelConfig is config.MelConfig
    assert toytrain.ToyConfig is model.ToyConfig is config.ToyConfig
    assert (curation.INFORMED, curation.RANDOM) == (config.INFORMED, config.RANDOM)
    assert (curation.BUCKETED, curation.RANDOM_SHUFFLE) == (
        config.BUCKETED, config.RANDOM_SHUFFLE
    )
    assert noisegen.MAX_ABS_DB == config.MAX_ABS_DB
    assert [(s.name, s.snr_db, s.aug_id) for s in noisegen.DEFAULT_NOISE_SPECS] == list(
        config.DEFAULT_NOISE_TRIPLES
    )
    assert study.DEFAULT_AUG_PROFILES == config.DEFAULT_AUG_PROFILES
    # the order of the CLI's --study choices
    assert list(study.STUDIES) == [config.BATCHING, config.AUG_EMBEDDING]
    assert (toytrain.BATCHING, toytrain.AUG_EMBEDDING) == (
        config.BATCHING, config.AUG_EMBEDDING
    )


def test_default_snapshot_bytes_are_pinned():
    snap = RunConfig().snapshot().encode("utf-8")
    assert hashlib.sha256(snap).hexdigest() == SNAPSHOT_SHA256
    assert len(DEFAULTS) == 33


@pytest.mark.parametrize(
    "prefix, cls, name", [("mel", MelConfig, "n_mels"), ("toy", ToyConfig, "seed")]
)
def test_build_uses_dataclass_defaults_and_set_values(prefix, cls, name):
    assert RunConfig().build(prefix) == cls()
    cfg = RunConfig()
    cfg.set(f"{prefix}.{name}", "7")
    assert getattr(cfg.build(prefix), name) == 7


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_float_rejected(tmp_path, raw):
    path = tmp_path / "bad.cfg"
    path.write_text(f"toy.learning_rate = {raw}\n", encoding="utf-8")
    with pytest.raises(ConfigFileError, match=re.escape(f"{path}:1: toy.learning_rate")):
        load_config_file(path)
    with pytest.raises(ConfigFileError, match="finite"):
        RunConfig().set("budget_s", float(raw))
    with pytest.raises(ConfigFileError):
        parse_noise_specs(f"white:{raw}:1")
    with pytest.raises(ConfigFileError):
        parse_aug_profiles(f"0:{raw}")


def test_snr_db_bounded():
    for value in (MAX_ABS_DB, -MAX_ABS_DB, 0.0):
        assert finite_snr_db(str(value)) == value
        assert parse_noise_specs(f"white:{value}:1")[0].snr_db == value
    # 10 ** (snr_db / 10) overflows at 4000 dB and underflows to 0 at -4000 dB
    for raw in ("300.5", "-300.5", "4000", "-4000", "1e309"):
        with pytest.raises(ValueError):
            finite_snr_db(raw)
        with pytest.raises(ConfigFileError, match="noise spec"):
            parse_noise_specs(f"white:{raw}:1")


def test_parse_noise_specs_named():
    specs = parse_noise_specs("white:25:1,usasi:15:2,sensor:20:3")
    assert [s.name for s in specs] == ["white", "usasi", "sensor"]
    assert [s.snr_db for s in specs] == [25.0, 15.0, 20.0]
    assert [s.aug_id for s in specs] == [1, 2, 3]
    assert specs[0].spectrum.kind == WHITE
    assert specs[1].spectrum.kind == USASI
    assert specs[2].spectrum.kind == PSD_TABLE
    assert parse_noise_specs("") == []


def test_parse_noise_specs_csv(tmp_path):
    table = tmp_path / "mic.csv"
    table.write_text("freq_hz,power_db\n100,6\n4000,-3\n", encoding="utf-8")
    specs = parse_noise_specs(f"{table}:18:1")
    assert specs[0].name == "mic"
    assert specs[0].spectrum.psd_points == ((100.0, 6.0), (4000.0, -3.0))


def test_parse_noise_specs_errors():
    with pytest.raises(ConfigFileError):
        parse_noise_specs("white:25")
    with pytest.raises(ConfigFileError):
        parse_noise_specs("pink:25:1")
    with pytest.raises(ConfigFileError):
        parse_spectrum("brown")


def test_parse_aug_profiles():
    assert parse_aug_profiles("0:0.1,0.2:0.05,-0.15:0.08") == [
        (0.0, 0.1),
        (0.2, 0.05),
        (-0.15, 0.08),
    ]
    assert parse_aug_profiles("") == []
    with pytest.raises(ConfigFileError):
        parse_aug_profiles("0.1")
