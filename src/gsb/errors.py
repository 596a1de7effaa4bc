"""Exception types shared across the package, the one check of a limit
argument, which raises ``LimitError`` (``IndexOutOfRangeError`` past what
the input provides), and the chunked int/str conversions."""

# Python refuses int/str conversions of more digits than a settable limit
# (sys.set_int_max_str_digits), 640 at the lowest, so coefficients are
# converted at most 640 digits at a time
_CHUNK_DIGITS = 640
_CHUNK = 10**_CHUNK_DIGITS


def _digits(n: int) -> str:
    """The decimal digits of an int, a minus sign first when it is negative,
    written in chunks of ``_CHUNK_DIGITS``."""
    if n < 0:
        return "-" + _digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _int_of_digits(digits: str) -> int:
    """The value of a decimal digit string, read in chunks of ``_CHUNK_DIGITS``."""
    n = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        piece = digits[i : i + _CHUNK_DIGITS]
        n = n * 10 ** len(piece) + int(piece)
    return n


class GsbError(Exception):
    """Base class for every error raised by this package."""


class AlphabetError(GsbError):
    """Malformed alphabet or basis declaration."""


class UnknownSymbolError(GsbError):
    """A symbol outside the alphabet or basis; parsed text gives its
    position and, in a presentation file, its line."""

    def __init__(self, token, position=None, line=None):
        message = f"unknown symbol {token!r}"
        if position is not None:
            message = f"{message} (at position {position})"
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.token = token
        self.position = position
        self.line = line


class WordSyntaxError(GsbError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class AlphabetMismatchError(GsbError):
    """Operands were built over different alphabets."""


class BasisMismatchError(GsbError):
    """Module operands were built over different generator bases."""


class EmptyPatternError(GsbError):
    """Occurrence search requires a non-empty pattern."""


class EmptyWordError(GsbError):
    """The operation is undefined on the empty word."""


class TowerSymbolMissingError(GsbError):
    """The designated stable letters are not in the alphabet."""


class ZeroPolynomialError(GsbError):
    """The operation is undefined on the zero polynomial."""


class NonMonicRelationError(GsbError):
    def __init__(self, index, message="relation is not monic"):
        super().__init__(f"{message} (relation #{index})")
        self.index = index


class UncertifiedBasisError(GsbError):
    """A certified Groebner-Shirshov basis is required here."""


class MalformedAmbiguityError(GsbError):
    """The ambiguity does not reassemble from the given leading words."""


class LeadingNotBelowError(GsbError):
    """Triviality modulo (S, w) needs the leading word strictly below w."""


class NotAlswError(GsbError):
    """The word is not an associative Lyndon-Shirshov word."""


class CapacityError(GsbError):
    """The requested computation exceeds the configured word capacity."""


class PresentationFormatError(GsbError):
    """Malformed presentation or table file."""


class TableIncompleteError(GsbError):
    """A required product or inverse entry is missing from the table."""


class SymbolClashError(GsbError):
    """A symbol that must be fresh is already in use."""


class NonCanonicalSupportError(GsbError):
    def __init__(self, index, message="pair support is not canonical"):
        super().__init__(f"{message} (pair #{index})")
        self.index = index


class SingleLetterAlphabetError(GsbError):
    """The cyclic-module construction needs at least two alphabet letters."""


class OrientationError(GsbError):
    """A constructed relation's computed leading side is not the displayed one."""


class CertificationError(GsbError):
    """A construction's predicted certification failed on this instance."""


class LimitError(GsbError, ValueError):
    """A degree, length, step, capacity or truncation limit is out of range,
    or the input does not fit within it."""


class IndexOutOfRangeError(LimitError):
    """A truncation index exceeds what the input data provides."""


def _checked_limit(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """``value`` when it is an int, not a bool, at least ``minimum`` and, if
    ``maximum`` is given, at most it; a value past ``maximum`` raises
    ``IndexOutOfRangeError``, anything else ``LimitError``, each naming the
    argument ``name``."""
    if type(value) is not int:
        raise LimitError(f"{name} must be an int, not {type(value).__name__}")
    if value < minimum:
        raise LimitError(f"{name} must be >= {minimum}, got {_digits(value)}")
    if maximum is not None and value > maximum:
        raise IndexOutOfRangeError(f"{name} must be <= {_digits(maximum)}, got {_digits(value)}")
    return value
