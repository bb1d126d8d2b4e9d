"""Exception hierarchy shared across the package.

Every error raised on a bad input or bad file derives from TinyTtsError so
callers (and the CLI) can distinguish validation failures from genuine bugs.
There is one class per thing a caller does differently; the message names the
failure, and a text reader's names path:line.
"""


class TinyTtsError(Exception):
    """Base class for all package errors."""


class BadConfig(TinyTtsError):
    """A parsed value breaks a documented rule: a size, range, shape, id or
    budget, or training on the values leaves the finite range."""


class MalformedFile(TinyTtsError):
    """A file does not parse: WAV, MELB, ATTN1, TOYM, a manifest, a corpus or a
    PSD table, or a noisy copy that does not match its clean file."""


class UnusableSignal(TinyTtsError):
    """Audio too short for the operation, or with no measurable activity."""


class MissingInput(TinyTtsError):
    """A file that an input names does not exist."""


class SourcesFailed(TinyTtsError):
    """One or more sources could not be measured, built or verified; the
    message lists their ids."""


class ConfigFileError(TinyTtsError):
    """Run-config file has unknown keys or unparseable values."""


class EmptyReference(TinyTtsError):
    """WER reference has no words."""


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
