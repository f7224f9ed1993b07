import pickle

import pytest

from geonorm import errors
from geonorm.errors import (
    ConflictError,
    EmptyInput,
    GeonormError,
    HemisphereViolation,
    ParseError,
    UnknownCountry,
    ValidationError,
    utf8_error,
)
from geonorm.sphere import GeoPoint

# one instance of every error type; a worker process hands these back pickled
SAMPLES = [
    GeonormError("base"),
    EmptyInput("no points"),
    HemisphereViolation((GeoPoint(10.0, 20.0), GeoPoint(-10.0, -160.0)), 180.0),
    UnknownCountry("ZZ", ["ZA", "ZM"]),
    UnknownCountry("QQ"),
    ParseError("traces.ndjson", 3, "bad"),
    ValidationError("workers must be >= 1"),
    ConflictError("10.0.0.0/8 announced twice"),
]


def all_subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= all_subclasses(sub)
    return out


def test_samples_cover_every_error_type():
    assert {type(e) for e in SAMPLES} == {
        cls for cls in all_subclasses(GeonormError) if cls.__module__ == errors.__name__
    }


@pytest.mark.parametrize("error", SAMPLES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)


class TestUtf8Error:
    def test_line_and_column_of_first_bad_byte(self):
        err = utf8_error("cities.csv", b"iso2,city\nAA,ok\nAB,b\xffd\nAC,\xfe\n")
        assert (err.source, err.line_no) == ("cities.csv", 3)
        assert str(err) == "cities.csv:3: invalid UTF-8 byte 0xff at column 5"

    def test_offset_by_first_line(self):
        err = utf8_error("t.ndjson", b"\xc3(\n", line_no=41)
        assert str(err) == "t.ndjson:41: invalid UTF-8 byte 0xc3 at column 1"

    def test_truncated_sequence_at_end(self):
        assert str(utf8_error("f", "é".encode()[:1])) == "f:1: invalid UTF-8 byte 0xc3 at column 1"
