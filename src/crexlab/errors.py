"""Exception types shared across the package, and the input checks that raise them.

Every public function coerces each argument by the one rule of its kind,
and every input that rule rejects raises a :class:`CrexlabError`:

* a law is a ``Distribution`` or its spec text, such as ``"exp:rate=1"``
  (:func:`crexlab.distributions.as_distribution`);
* an estimator is an ``EstimatorSpec`` or its text, such as ``"rmn:w=0"``
  (:meth:`crexlab.estimators.EstimatorSpec.coerce`);
* counts (m, l, n, set and design sizes, replications), seeds and the
  tuning offset ``w`` are integers: an int or a numpy integer passes,
  while ``2.5``, ``True`` or ``"3"`` raise DomainError (SpecParseError
  from a simulation config; the CLI exits 2) instead of being truncated.
  :func:`check_integer` is that rule and :func:`check_count` adds ``>= 1``
  and no more than the largest float, as the measures use a set size as a
  float power; both return the value as an int;
* family parameters, ages and survival powers are real numbers:
  :func:`check_real` passes any ``numbers.Real`` but a bool, and raises
  DomainError for ``"1"`` or None; :func:`check_powers` then requires
  each survival power to be positive and finite;
* an array argument is whatever ``np.asarray(values, dtype=float)``
  reads; :func:`check_array` raises DomainError for anything else;
* an estimator kind, psi family or bias convention is its enum member or
  its text, looked up by :func:`enum_member`.

:func:`check_generator` guards every draw.  CSV text goes through one
writer, :func:`write_csv`, and one reader, :func:`read_csv`, which reads
its input by :func:`text_lines`.
"""

import csv
import io
import math
import numbers
import operator
import sys

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
    # a float, numpy's included, passes at once: the numbers.Real check costs
    # about 0.4 us, and every measure value, error bound and age passes here
    if isinstance(value, float):
        return float(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            # an int past the float range
            return math.inf if value > 0 else -math.inf
    raise DomainError(f"{label} must be a real number, got {value!r}")


def check_powers(powers):
    """Raise DomainError unless every survival power in ``powers`` is positive and finite."""
    invalid = [p for p in powers if not 0.0 < p < math.inf]
    if invalid:
        raise DomainError(f"survival power must be positive and finite, got {invalid[0]}")


def check_array(values, label):
    """``values`` as a float array; raise DomainError when numpy cannot read them as one."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{label} must be real numbers, got {values!r}") from None


def check_count(value, label):
    """``value`` as an int; raise DomainError unless it is an integer from 1 to float max."""
    count = check_integer(value, label)
    if count < 1:
        raise DomainError(f"{label} must be >= 1, got {count}")
    if count > sys.float_info.max:
        # such an int may have more digits than str() converts
        bits = count.bit_length()
        raise DomainError(
            f"{label} must be at most {sys.float_info.max:g}, got a {bits}-bit integer"
        )
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


def write_csv(header, rows, file=None):
    """Write the ``header`` row and ``rows`` as CSV lines; return the text when ``file`` is None.

    A ``file`` without a ``write`` method raises SpecParseError.
    """
    own = file is None
    if own:
        file = io.StringIO()
    elif not hasattr(file, "write"):
        raise SpecParseError(f"CSV output must be a text file, got {type(file).__name__}")
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return file.getvalue() if own else None


def read_csv(file, header, what, comments=False):
    """The nonempty rows below the ``header`` row of CSV text ``file``, as lists of str.

    ``file`` is read by :func:`text_lines`; with ``comments``, lines that
    start with ``#`` are skipped.  Empty text, another first row, or text
    the csv module cannot split raises SpecParseError naming ``what``.
    """
    lines = text_lines(file, what)
    if comments:
        lines = (line for line in lines if not line.startswith("#"))
    reader = csv.reader(lines)
    try:
        first = next(reader, None)
        if first is None:
            raise SpecParseError(f"empty {what}")
        if tuple(first) != header:
            raise SpecParseError(f"expected header {','.join(header)}, got {','.join(first)}")
        return [row for row in reader if row]
    except csv.Error as exc:
        raise SpecParseError(f"malformed {what}: {exc}") from None


class CellError(CrexlabError):
    """A simulation cell failed; carries the cell coordinates for context."""

    def __init__(self, coordinates, cause):
        self.coordinates = dict(coordinates)
        self.cause = cause
        coord_text = ", ".join(f"{k}={v}" for k, v in self.coordinates.items())
        super().__init__(f"cell ({coord_text}) failed: {cause}")
