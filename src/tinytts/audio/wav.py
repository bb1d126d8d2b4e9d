"""Minimal RIFF/WAVE reader and writer for mono 16-bit PCM.

A hand-rolled parser instead of the stdlib wave module so that malformed
containers and unsupported encodings raise distinct, testable errors.
Out-of-range samples are clamped on write, never wrapped.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import MalformedFile
from .clip import AudioClip

_FMT_PCM = 1
# the PCM fields of the fmt chunk: format tag, channels, sample rate, byte
# rate, block align, bits per sample
_FMT = struct.Struct("<HHIIHH")


def _read_header(fh, path) -> tuple[int, int, int]:
    """Check an open mono 16-bit PCM WAV: (sample rate, data offset, data bytes).

    Reads the RIFF header, the 8-byte chunk headers and the PCM fields of the
    fmt chunk, never the audio; a chunk that declares more bytes than the
    file holds is malformed. Later chunks of a kind replace earlier ones. Each
    MalformedFile names the path.
    """
    head = fh.read(12)
    size = fh.seek(0, 2)
    if len(head) < 12:
        raise MalformedFile(f"{path}: file shorter than a RIFF header")
    if head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise MalformedFile(f"{path}: missing RIFF/WAVE magic")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        cid, chunk_size = struct.unpack("<4sI", fh.read(8))
        present = size - pos - 8
        if present < chunk_size:
            raise MalformedFile(
                f"{path}: chunk {cid!r} declares {chunk_size} bytes"
                f" but only {present} present"
            )
        if cid == b"fmt ":
            fmt = fh.read(min(chunk_size, _FMT.size))
        elif cid == b"data":
            data = (pos + 8, chunk_size)
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt is None:
        raise MalformedFile(f"{path}: no fmt chunk")
    if data is None:
        raise MalformedFile(f"{path}: no data chunk")
    if len(fmt) < _FMT.size:
        raise MalformedFile(f"{path}: fmt chunk too short ({len(fmt)} bytes)")
    audio_format, channels, rate, _, _, bits = _FMT.unpack(fmt)
    if audio_format != _FMT_PCM:
        raise MalformedFile(f"{path}: compressed or non-PCM format tag {audio_format}")
    if channels != 1:
        raise MalformedFile(f"{path}: {channels} channels; only mono is supported")
    if bits != 16:
        raise MalformedFile(f"{path}: {bits}-bit samples; only 16-bit is supported")
    if rate <= 0:
        raise MalformedFile(f"{path}: non-positive sample rate")
    if data[1] % 2 != 0:
        raise MalformedFile(f"{path}: data chunk has an odd byte count")
    return (rate, *data)


def read_wav(path: str | Path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file; samples scaled by 1/32768 into [-1, 1)."""
    with open(path, "rb") as fh:
        rate, offset, n_bytes = _read_header(fh, path)
        fh.seek(offset)
        data = fh.read(n_bytes)
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return AudioClip(samples, rate)


def read_wav_info(path: str | Path) -> tuple[int, int]:
    """Header-only probe: (sample count, sample rate) without reading audio."""
    with open(path, "rb") as fh:
        rate, _, n_bytes = _read_header(fh, path)
    return n_bytes // 2, rate


def write_wav(clip: AudioClip, path: str | Path) -> None:
    """Write mono 16-bit PCM; values outside [-1, 1] clamp to full scale.

    One float buffer is scaled, rounded and clamped in place; the header and
    the int16 samples are written one after the other.
    """
    q = clip.samples * 32768.0
    np.round(q, out=q)
    np.clip(q, -32768, 32767, out=q)
    data = q.astype("<i2")
    rate = clip.sample_rate_hz
    header = b"RIFF" + struct.pack("<I", 36 + data.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<I", _FMT.size)
    header += _FMT.pack(_FMT_PCM, 1, rate, 2 * rate, 2, 16)
    header += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
