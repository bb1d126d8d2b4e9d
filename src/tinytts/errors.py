"""Exception hierarchy shared across the package.

Every error raised on a bad input or bad file derives from TinyTtsError so
callers (and the CLI) can distinguish validation failures from genuine bugs.
"""


class TinyTtsError(Exception):
    """Base class for all package errors."""


# --- audio ---

class MalformedWav(TinyTtsError):
    """RIFF/WAVE container is structurally broken (bad magic, truncated chunk)."""


class UnsupportedFormat(TinyTtsError):
    """WAV file is valid but not mono 16-bit integer PCM."""


class MalformedMelb(TinyTtsError):
    """MELB file header/payload mismatch."""


class SignalTooShort(TinyTtsError):
    """Clip shorter than the minimum duration the operation needs."""


class SilentSignal(TinyTtsError):
    """Signal has no measurable speech activity; active level is undefined."""


class ClipTooShort(TinyTtsError):
    """Fewer samples than one analysis window."""


class BadConfig(TinyTtsError):
    """Configuration values violate a documented constraint."""


# --- noisegen ---

class BadSpectrum(TinyTtsError):
    """Spectrum definition is unusable (bad PSD table, frequency out of range)."""


class TooShort(TinyTtsError):
    """Requested noise length below the minimum for spectral shaping."""


# --- curation ---

class MissingMetadata(TinyTtsError):
    """Corpus root does not contain metadata.csv."""


class MalformedRow(TinyTtsError):
    """metadata.csv or JSON-lines manifest row that does not parse; message
    carries the line number."""


class EmptySelection(TinyTtsError):
    """Duration budget below the shortest available sample."""


class UnknownId(TinyTtsError):
    """Batch plan references an entry id that is not in the corpus."""


class EmptySubset(TinyTtsError):
    """Operation needs at least one entry."""


class MeasurementError(TinyTtsError):
    """One or more audio files could not be measured; message lists the ids."""


# --- augment ---

class ConfigError(TinyTtsError):
    """Noise spec configuration invalid (duplicate aug ids)."""


class BuildError(TinyTtsError):
    """Dataset build failed for one or more utterances; message lists the ids."""


class MissingFile(TinyTtsError):
    """A manifest entry points at a file that does not exist."""


class MismatchedCopy(TinyTtsError):
    """A noisy copy's sample count or rate differs from its clean file's."""


# --- evalkit ---

class NotRowStochastic(TinyTtsError):
    """Attention matrix row does not sum to one (or has weights outside [0, 1])."""


class EmptyLabel(TinyTtsError):
    """Report label with no attention matrices."""


class MalformedAttnFile(TinyTtsError):
    """ATTN1 file header/payload mismatch."""


class EmptyReference(TinyTtsError):
    """WER reference has no words."""


# --- toytrain ---

class BadRange(TinyTtsError):
    """Synthetic corpus length range outside the supported interval."""


class ShapeMismatch(TinyTtsError):
    """Batch tensors disagree with the model configuration."""


class AugIdOutOfRange(TinyTtsError):
    """Augmentation id not below the configured table size."""


class MalformedCorpus(TinyTtsError):
    """Toy corpus JSON-lines file does not parse; message carries the line number."""


class MalformedCheckpoint(TinyTtsError):
    """TOYM checkpoint bytes do not parse."""


# --- cli / config ---

class ConfigFileError(TinyTtsError):
    """Run-config file has unknown keys or unparseable values."""


def read_utf8(path, error: type[TinyTtsError]) -> str:
    """A text file's contents with each line end (CR LF, CR or LF) made LF, as
    text mode reads them; a byte that is not UTF-8 raises `error` naming
    path:line."""
    with open(path, "rb") as fh:
        # CR and LF bytes never occur inside a UTF-8 multi-byte sequence
        raw = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line_no}: not UTF-8 text: {exc.reason}") from exc


def read_fields(path, sep: str, n_fields: int, error: type[TinyTtsError]) -> list:
    """(line number, fields) of each non-blank line of a UTF-8 text file, its
    fields split on `sep`; a line with other than `n_fields` fields, or bad
    UTF-8, raises `error` naming path:line."""
    rows = []
    for line_no, line in enumerate(read_utf8(path, error).split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split(sep)
        if len(fields) != n_fields:
            raise error(
                f"{path}:{line_no}: expected {n_fields} fields, got {len(fields)}"
            )
        rows.append((line_no, fields))
    return rows
