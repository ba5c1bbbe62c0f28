"""Exception types shared across the package, and the model-file reader
that raises one of them."""

from pathlib import Path


class DataError(Exception):
    """Malformed or inconsistent corpus data."""


class BratError(DataError):
    """Bad standoff annotation line; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConlluError(DataError):
    """Bad CoNLL-U input."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


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
    """The lines of a model file whose first line is ``magic``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise ModelFileError(path, "not UTF-8 text") from None
    if not lines or lines[0] != magic:
        raise ModelFileError(path, f"not a {kind} file", 1)
    return lines
