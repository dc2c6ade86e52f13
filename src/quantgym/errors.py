"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError
subclasses -> 3, RuntimeError subclasses (training, env misuse) -> 4.
Input files are opened through ``reading``, so a file that cannot be
read is a DataError naming its path.
"""
from contextlib import contextmanager


class QuantGymError(Exception):
    """Base class for all package errors."""


class ConfigError(QuantGymError):
    """Invalid or unknown configuration."""


class DataError(QuantGymError):
    """Problems with input data (ingest, cleaning, alignment)."""


@contextmanager
def reading(path, newline: str | None = None):
    """A UTF-8 text file open for reading; DataError naming the path when
    it cannot be opened or decoded."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


class IngestError(DataError):
    """Malformed input file, named as ``path:line: message`` (or ``path:
    message`` without a line); carries the offending line number."""

    def __init__(self, message: str, path: str | None = None,
                 line_no: int | None = None):
        where = ":".join(str(x) for x in (path, line_no) if x is not None)
        super().__init__(f"{where}: {message}" if where else message)
        self.line_no = line_no


class FeatureError(DataError):
    """Feature computation failed (unknown indicator, bad window, ...)."""


class EnvError(QuantGymError):
    """Environment misuse (step after done, bad action, bad start)."""


class TrainingError(QuantGymError):
    """Agent training failed (divergence, dimension mismatch)."""


def unwrap(outcome):
    """A fitted outcome, or the error it holds raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
