"""Exception types shared across the package.

Every type pickles to an equal error, so a worker process can hand one back.
"""

from __future__ import annotations


class GeonormError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(GeonormError):
    """An operation that needs at least one point received none."""


class HemisphereViolation(GeonormError):
    """No open hemisphere centered on the point cloud's mean contains every point.

    Carries the witness pair of near-antipodal input points so callers can
    report which locations made the hull ill-defined.
    """

    def __init__(self, witness, separation_deg):
        self.witness = witness
        self.separation_deg = separation_deg
        a, b = witness
        super().__init__(
            "point set spans more than a hemisphere: "
            f"({a.lat:.4f}, {a.lon:.4f}) and ({b.lat:.4f}, {b.lon:.4f}) "
            f"are {separation_deg:.2f} degrees apart"
        )

    def __reduce__(self):
        return type(self), (self.witness, self.separation_deg)


class UnknownCountry(GeonormError):
    """A country code is not present in the world model."""

    def __init__(self, iso2, suggestions=()):
        self.iso2 = iso2
        self.suggestions = tuple(suggestions)
        msg = f"unknown country code {iso2!r}"
        if self.suggestions:
            msg += " (did you mean: " + ", ".join(self.suggestions) + "?)"
        super().__init__(msg)

    def __reduce__(self):
        return type(self), (self.iso2, self.suggestions)


class ParseError(GeonormError):
    """An input file failed to parse; names the file and line."""

    def __init__(self, source, line_no, message):
        self.source = source
        self.line_no = line_no
        self.message = message
        super().__init__(f"{source}:{line_no}: {message}")

    def __reduce__(self):
        return type(self), (self.source, self.line_no, self.message)


class ValidationError(GeonormError):
    """Parsed input violated a structural invariant."""


class ConflictError(GeonormError):
    """Two table rows assign conflicting values to the same key."""


def utf8_error(source, data: bytes, line_no: int = 1) -> ParseError:
    """A ParseError at the first byte of data that is not UTF-8.

    data starts at line line_no of source; lines end at b"\\n".
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line_start = data.rfind(b"\n", 0, e.start) + 1
        return ParseError(
            str(source),
            line_no + data.count(b"\n", 0, e.start),
            f"invalid UTF-8 byte 0x{data[e.start]:02x} at column {e.start - line_start + 1}",
        )
    return ParseError(str(source), line_no, "invalid UTF-8")
