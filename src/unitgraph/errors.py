"""Exception types shared across the package, and the file readers that
raise them."""

import math
from pathlib import Path


class DataError(Exception):
    """Malformed or inconsistent corpus data."""


class _LineError(DataError):
    """Bad input at a 1-based line, kept as ``line`` and named first in
    the message when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BratError(_LineError):
    """Bad standoff annotation line."""


class ConlluError(_LineError):
    """Bad CoNLL-U input."""


class CorpusError(DataError):
    """A corpus directory entry could not be loaded."""


class MissingParseError(DataError):
    """A dependency tree is required but not available for this sentence."""


class ModelFileError(DataError, ValueError):
    """A saved model file is malformed; names the file and, where one is
    at fault, the 1-based line."""

    def __init__(self, path, message, line=None):
        self.path = path
        self.line = line
        where = f"{path}: line {line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def read_model_lines(path, magic: str, kind: str) -> list[str]:
    """The lines of a model file whose first line is ``magic``.  A line ends
    at ``\n`` (or ``\r\n``) alone: a record may hold U+2028 and the other
    breaks ``str.splitlines()`` knows, as a corpus surface or label can."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ModelFileError(path, "not UTF-8 text") from None
    lines = [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")]
    if lines[0] != magic:
        raise ModelFileError(path, f"not a {kind} file", 1)
    return lines


def read_utf8(path, error: type[DataError] = DataError) -> str:
    """The text of a UTF-8 file as stored, ``\r`` included, since standoff
    offsets count it; other bytes raise ``error`` naming the file and the
    first byte that is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_weight(text: str) -> float:
    """A number in a model file.  One that is not finite raises
    ``ValueError``: a nan or an infinity would change every prediction
    without an error."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"weight is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"weight is not finite: {text!r}")
    return value
