"""Audio I/O, active speech level measurement, mel features."""

from .clip import AudioClip
from .mel import (
    MelConfig,
    frame_count,
    mel_filterbank,
    mel_spectrogram,
    read_melb,
    write_melb,
)
from .p56 import ActiveLevelResult, active_speech_level_p56
from .wav import read_wav, read_wav_info, write_wav
