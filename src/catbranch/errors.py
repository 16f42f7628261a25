"""Exception types shared across the package."""

from contextlib import contextmanager


class InputError(ValueError):
    """Raised for invalid arguments, malformed files and contract violations."""


class PopulationCapError(RuntimeError):
    """Raised when a particle simulation exceeds its node budget
    (`particle.MAX_NODES`)."""


@contextmanager
def malformed_lines(kind: str):
    """Turn a parse failure inside the block into an `InputError` that
    names the kind of file being read."""
    try:
        yield
    except InputError:
        raise
    except (ValueError, KeyError, IndexError, OverflowError) as exc:
        raise InputError(f"malformed {kind} file: {exc!r}") from exc
