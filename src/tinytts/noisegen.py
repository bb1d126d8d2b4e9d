"""Stationary augmentation noises and exact active-speech-SNR mixing.

Noise is generated from a Philox counter-based PRNG (keyed by the seed, one
stream per call) with Gaussian draws via numpy's ziggurat, so datasets are
bit-reproducible across platforms and build orders. Spectrum shaping happens
in the frequency domain: the white sequence's real FFT is multiplied by the
target magnitude response and inverted, then normalized to unit RMS.

SNR is defined against the ITU-T P.56 active speech power of the clean
utterance, per utterance: (active speech power) / (noise mean power)
= 10**(snr_db/10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import ActiveLevelResult, AudioClip, active_speech_level_p56
from .config import DEFAULT_NOISE_TRIPLES, MAX_ABS_DB
from .errors import BadConfig, MalformedFile, UnusableSignal, read_fields

USASI_HIGHPASS_HZ = 100.0
USASI_LOWPASS_HZ = 320.0

WHITE = "white"
USASI = "usasi"
PSD_TABLE = "psd_table"

# Electret capsule noise floor approximation: ~10 dB/decade rise below 1 kHz,
# flat above. An approximation for a sensor-noise-like spectrum, not a
# datasheet reconstruction; the augmentation result is insensitive to the
# exact curve. The last point is 8 kHz, the Nyquist frequency of 16 kHz audio,
# so the table applies at 16 kHz and above.
SENSOR_PSD_POINTS: tuple[tuple[float, float], ...] = (
    (20.0, 17.0),
    (40.0, 14.0),
    (80.0, 11.0),
    (160.0, 8.0),
    (315.0, 5.0),
    (500.0, 3.0),
    (800.0, 1.0),
    (1000.0, 0.0),
    (2000.0, 0.0),
    (4000.0, 0.0),
    (8000.0, 0.0),
)


@dataclass(frozen=True)
class SpectrumSpec:
    """Target long-term spectrum: white, USASI program noise, or a PSD table."""

    kind: str
    psd_points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (WHITE, USASI, PSD_TABLE):
            raise BadConfig(f"unknown spectrum kind {self.kind!r}")
        if self.kind == PSD_TABLE:
            pts = self.psd_points
            if pts is None or len(pts) < 2:
                raise BadConfig("PSD table needs at least 2 points")
            freqs = [f for f, _ in pts]
            if not all(0 < f < np.inf for f in freqs):
                raise BadConfig("PSD table frequencies must be finite and positive")
            if any(b <= a for a, b in zip(freqs, freqs[1:])):
                raise BadConfig("PSD table frequencies must strictly increase")
            if not all(abs(db) <= MAX_ABS_DB for _, db in pts):
                raise BadConfig(f"PSD table powers must be in +-{MAX_ABS_DB:g} dB")
        elif self.psd_points is not None:
            raise BadConfig("psd_points only valid for kind=psd_table")

    def check_rate(self, sample_rate_hz: int) -> None:
        """A PSD table may not run above the Nyquist frequency of the audio."""
        if self.kind == PSD_TABLE and self.psd_points[-1][0] > sample_rate_hz / 2.0:
            raise BadConfig("PSD table frequency above Nyquist")


# the named spectra of noise specs (config.parse_spectrum)
SPECTRA = {
    "white": SpectrumSpec(WHITE),
    "usasi": SpectrumSpec(USASI),
    "sensor": SpectrumSpec(PSD_TABLE, SENSOR_PSD_POINTS),
}


@dataclass(frozen=True)
class NoiseSpec:
    """One augmentation: a named noise spectrum at a target active-speech SNR."""

    name: str
    spectrum: SpectrumSpec
    snr_db: float
    aug_id: int

    def __post_init__(self) -> None:
        # 0 is the clean copy's, and augment.derive_seed hashes the id as 4 bytes
        if not 1 <= self.aug_id < 2**32:
            raise BadConfig(f"aug_id {self.aug_id} is outside [1, 2**32)")


# the `noise_specs` config default
DEFAULT_NOISE_SPECS = tuple(
    NoiseSpec(name, SPECTRA[name], snr_db, aug_id)
    for name, snr_db, aug_id in DEFAULT_NOISE_TRIPLES
)


def default_noise_specs() -> list[NoiseSpec]:
    """The specs of the `noise_specs` config default (white, USASI, sensor)."""
    return list(DEFAULT_NOISE_SPECS)


def white_gaussian(n: int, seed: int) -> np.ndarray:
    """n i.i.d. standard-normal samples; bit-reproducible in seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.standard_normal(n)


def usasi_magnitude(freqs_hz: np.ndarray) -> np.ndarray:
    """|H(f)| for the USASI program-noise spectrum (corners 100 Hz / 320 Hz)."""
    f2 = np.asarray(freqs_hz, dtype=np.float64) ** 2
    return np.sqrt(f2 / ((f2 + USASI_HIGHPASS_HZ**2) * (f2 + USASI_LOWPASS_HZ**2)))


def _table_magnitude(
    pts: tuple[tuple[float, float], ...], freqs_hz: np.ndarray
) -> np.ndarray:
    """Interpolate relative power linearly over log-frequency, flat beyond ends;
    DC (log10 = -inf) takes the first point's power."""
    logf_pts = np.log10([f for f, _ in pts])
    db_pts = np.array([db for _, db in pts])
    with np.errstate(divide="ignore"):
        logf = np.log10(freqs_hz)
    return 10.0 ** (np.interp(logf, logf_pts, db_pts) / 20.0)


def _magnitude(spectrum: SpectrumSpec, n: int, sample_rate_hz: int) -> np.ndarray:
    """The spectrum's magnitude response at the rfft bins of n samples."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    if spectrum.kind == USASI:
        return usasi_magnitude(freqs)
    spectrum.check_rate(sample_rate_hz)
    return _table_magnitude(spectrum.psd_points, freqs)


def shaped_noise(
    n: int, spectrum: SpectrumSpec, sample_rate_hz: int, seed: int
) -> np.ndarray:
    """Unit-RMS Gaussian noise with the spectrum's long-term magnitude shape."""
    if n < sample_rate_hz:
        raise UnusableSignal(f"need at least 1 s ({sample_rate_hz} samples), got {n}")
    if spectrum.kind == WHITE:
        shaped = white_gaussian(n, seed)
    else:
        spec = np.fft.rfft(white_gaussian(n, seed))
        spec *= _magnitude(spectrum, n, sample_rate_hz)
        shaped = np.fft.irfft(spec, n=n)
    shaped /= np.sqrt(np.mean(shaped * shaped))
    return shaped


@dataclass(frozen=True)
class MixResult:
    """Noisy clip plus the gains the mix applied."""

    clip: AudioClip
    noise_gain: float  # scale applied to the unit-RMS noise
    mixture_gain: float  # 1.0 unless overflow rescue rescaled the whole mix


def mix_at_snr(
    speech: AudioClip,
    spectrum: SpectrumSpec,
    snr_db: float,
    seed: int,
    *,
    level: ActiveLevelResult | None = None,
) -> MixResult:
    """Add spectrum-shaped noise at an exact P.56 active-speech SNR.

    `level` is the speech's P.56 measurement, when the caller already has it;
    without it the level is measured here. If the mix would clip, the whole
    mixture is rescaled to peak 0.99 (the SNR is unaffected) and the rescale
    reported as mixture_gain.
    """
    if level is None:
        level = active_speech_level_p56(speech)
    n = len(speech.samples)
    # shaping needs >= 1 s for spectral validity; overdraw and truncate
    gen_n = max(n, speech.sample_rate_hz)
    noise = shaped_noise(gen_n, spectrum, speech.sample_rate_hz, seed)[:n]
    active_power = 10.0 ** (level.active_level_db / 10.0)
    noise_power = float(np.mean(noise * noise))
    gain = float(np.sqrt(active_power / (noise_power * 10.0 ** (snr_db / 10.0))))
    # the mix is built in the noise buffer, which this call owns
    mix = noise
    mix *= gain
    mix += speech.samples
    peak = float(max(mix.max(), -mix.min()))
    mixture_gain = 1.0
    if peak > 1.0:
        mixture_gain = 0.99 / peak
        mix *= mixture_gain
    return MixResult(AudioClip(mix, speech.sample_rate_hz), gain, mixture_gain)


def read_psd_table_csv(path) -> SpectrumSpec:
    """Load `freq_hz,power_db` CSV rows, after that header, into a PSD-table
    spectrum; MalformedFile names path:line."""
    rows = read_fields(path, ",", 2, MalformedFile) or [(1, [])]
    line_no, header = rows[0]
    if [f.strip() for f in header] != ["freq_hz", "power_db"]:
        raise MalformedFile(f"{path}:{line_no}: bad PSD CSV header: {header}")
    pts = []
    for line_no, (freq, power) in rows[1:]:
        try:
            pts.append((float(freq), float(power)))
        except ValueError as exc:
            raise MalformedFile(f"{path}:{line_no}: {exc}") from exc
    return SpectrumSpec(PSD_TABLE, tuple(pts))
