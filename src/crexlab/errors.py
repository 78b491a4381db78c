"""Exception types shared across the package, and the input checks that raise them.

Counts (m, l, n, set and design sizes, replications), seeds and the
tuning offset ``w`` are integers: an int or a numpy integer passes, while
``2.5``, ``True`` or ``"3"`` raise DomainError (SpecParseError from a
simulation config; the CLI exits 2) instead of being truncated.
:func:`check_integer` is that rule and
:func:`check_count` adds ``>= 1``; both return the value as an int.
Family parameters are real numbers: :func:`check_real` passes any
``numbers.Real`` but a bool, and raises DomainError for ``"1"`` or None.
:func:`enum_member` is the one lookup of an estimator kind, psi family or
bias convention by its text.  :func:`check_generator` guards every draw,
and :func:`text_lines` every CSV reader.
"""

import io
import math
import numbers
import operator

import numpy as np


class CrexlabError(Exception):
    """Base class for all crexlab errors."""


class DivergenceError(CrexlabError):
    """An integral or moment fails to converge at the requested tolerance."""


class DomainError(CrexlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(CrexlabError, ValueError):
    """An estimator tuning value produces invalid weights."""


class SizeError(CrexlabError, ValueError):
    """A sample is too small for the requested estimator."""


class SpecParseError(CrexlabError, ValueError):
    """A textual spec (distribution, estimator, or config) cannot be parsed."""


def split_spec(text, what):
    """Split a ``head:key=value,...`` spec string into ``(head, {key: value})``.

    Whitespace around the head, keys and values is stripped and the head
    lower-cased; ``what`` names the spec in messages.  A non-string, a
    piece without ``=`` or a repeated key raises SpecParseError.
    """
    if not isinstance(text, str):
        raise SpecParseError(f"{what} spec must be a string, got {text!r}")
    head, _, tail = text.strip().partition(":")
    options = {}
    if tail.strip():
        for piece in tail.split(","):
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq:
                raise SpecParseError(
                    f"expected key=value, got {piece.strip()!r} in {what} spec {text!r}"
                )
            if key in options:
                raise SpecParseError(f"duplicate key {key!r} in {what} spec {text!r}")
            options[key] = value.strip()
    return head.strip().lower(), options


def enum_member(kind, value, what):
    """The member of the enum ``kind`` valued ``value``; else SpecParseError naming ``what``."""
    try:
        return kind(value)
    except ValueError:
        known = ", ".join(member.value for member in kind)
        raise SpecParseError(f"unknown {what} {value!r} (known: {known})") from None


def check_integer(value, label):
    """``value`` as an int; raise DomainError unless it is an int or numpy integer (not a bool)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{label} must be an integer, got {value!r}")


def check_real(value, label):
    """``value`` as a float; raise DomainError unless it is a real number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            # an int past the float range
            return math.inf if value > 0 else -math.inf
    raise DomainError(f"{label} must be a real number, got {value!r}")


def check_count(value, label):
    """``value`` as an int; raise DomainError unless it is an integer >= 1."""
    count = check_integer(value, label)
    if count < 1:
        raise DomainError(f"{label} must be >= 1, got {count}")
    return count


def check_generator(rng):
    """Raise DomainError unless ``rng`` is a ``numpy.random.Generator``."""
    if not isinstance(rng, np.random.Generator):
        raise DomainError(f"random stream must be a numpy.random.Generator, got {rng!r}")


def text_lines(file, what):
    """The lines of CSV text ``file``: a str, or a text file or other iterable of str lines.

    Anything else, bytes or a line that is not a str included, raises
    SpecParseError naming ``what``.
    """
    if isinstance(file, str):
        return io.StringIO(file)
    if isinstance(file, (bytes, bytearray)) or not hasattr(file, "__iter__"):
        raise SpecParseError(f"{what} must be text or a text file, got {type(file).__name__}")

    def lines():
        for line in file:
            if not isinstance(line, str):
                raise SpecParseError(f"{what} must be text, got a {type(line).__name__} line")
            yield line

    return lines()


class CellError(CrexlabError):
    """A simulation cell failed; carries the cell coordinates for context."""

    def __init__(self, coordinates, cause):
        self.coordinates = dict(coordinates)
        self.cause = cause
        coord_text = ", ".join(f"{k}={v}" for k, v in self.coordinates.items())
        super().__init__(f"cell ({coord_text}) failed: {cause}")
