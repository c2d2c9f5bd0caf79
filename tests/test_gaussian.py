from __future__ import annotations

import copy
import json
import pickle
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qlogic import gaussian
from qlogic.bridge import spec_from_dict
from qlogic.cli import main
from qlogic.errors import ModelValidationError
from qlogic.gaussian import GaussianRational, format_scalar, parse_scalar

from conftest import gr


@pytest.mark.parametrize(
    "text,real,imag",
    [
        ("1", Fraction(1), Fraction(0)),
        ("-1/2", Fraction(-1, 2), Fraction(0)),
        ("0+1i", Fraction(0), Fraction(1)),
        ("3/4-1/4i", Fraction(3, 4), Fraction(-1, 4)),
        ("2i", Fraction(0), Fraction(2)),
    ],
)
def test_parse_scalar(text, real, imag):
    assert parse_scalar(text) == GaussianRational(real, imag)


@pytest.mark.parametrize("bad", ["", "i", "1/0", "1 + 2i", "x", "1+2j", "--1"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ModelValidationError):
        parse_scalar(bad)


def test_format_round_trip_examples():
    for text in ["1", "-1/2", "0+1i", "3/4-1/4i"]:
        assert format_scalar(parse_scalar(text)) == text


_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_scalars = st.builds(GaussianRational, _fracs, _fracs)


@given(_scalars)
def test_format_parse_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


@given(_scalars, _scalars, _scalars)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_scalars)
def test_inverse_and_conjugate(z):
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).real == z.abs2()
    if not z.is_zero:
        assert z * z.inverse() == gr(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


# -- the four lowest-terms parts -----------------------------------------------------


@given(_fracs, _fracs)
def test_parts_are_the_lowest_terms_of_the_fraction_parts(real, imag):
    z = GaussianRational(real, imag)
    assert z.sort_key() == (real.numerator, real.denominator, imag.numerator, imag.denominator)
    assert (z.real, z.imag) == (real, imag)
    assert z.is_zero == (real == imag == 0)


def test_constructor_reduces_ints_and_fractions_alike():
    half = GaussianRational(Fraction(2, 4), Fraction(-6, -3))
    assert half.sort_key() == (1, 2, 2, 1)
    twin = GaussianRational(Fraction(1, 2), 2)
    assert half == twin and hash(half) == hash(twin)
    assert GaussianRational().sort_key() == (0, 1, 0, 1) and not GaussianRational()
    assert GaussianRational(imag=3) == parse_scalar("3i")
    assert GaussianRational(1) != (1, 1, 0, 1)
    assert repr(half) == "GaussianRational(real=Fraction(1, 2), imag=Fraction(2, 1))"


@pytest.mark.parametrize(
    "text,parts",
    [
        ("2/4-6/8i", (1, 2, -3, 4)),
        ("0/5", (0, 1, 0, 1)),
        ("-0/3+0/7i", (0, 1, 0, 1)),
        ("-4/2i", (0, 1, -2, 1)),
    ],
)
def test_parse_scalar_stores_lowest_terms(text, parts):
    assert parse_scalar(text).sort_key() == parts


@pytest.mark.parametrize("bad,error", [("x", ValueError), (None, TypeError), (1j, TypeError)])
def test_constructor_rejects_what_fraction_rejects(bad, error):
    with pytest.raises(error):
        GaussianRational(bad)
    with pytest.raises(error):
        GaussianRational(0, bad)


def test_scalars_are_immutable():
    z = parse_scalar("1/2-3i")
    for name in ("real", "imag", "_parts", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(z, name, Fraction(1))
        with pytest.raises(FrozenInstanceError):
            delattr(z, name)
    assert z.sort_key() == (1, 2, -3, 1)


def test_copy_and_pickle_keep_the_parts():
    z = parse_scalar("-5/6+7/9i")
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and hash(twin) == hash(z) and twin.sort_key() == (-5, 6, 7, 9)


# -- the literal parser against its three-regex form ---------------------------------

_RAT = r"[+-]?\d+(?:/[1-9]\d*)?"
_RE_REAL = re.compile(rf"^({_RAT})$")
_RE_IMAG = re.compile(rf"^({_RAT})i$")
_RE_BOTH = re.compile(rf"^({_RAT})([+-]\d+(?:/[1-9]\d*)?)i$")


def reference_parse_scalar(text: str) -> GaussianRational:
    """The parser as it was: three regexes tried in turn, each part read by
    ``Fraction`` from its text."""
    if not isinstance(text, str):
        raise ModelValidationError(f"scalar literal {text!r:.40} is not a string")
    s = text.strip()
    m = _RE_BOTH.match(s)
    if m:
        return GaussianRational(Fraction(m.group(1)), Fraction(m.group(2)))
    m = _RE_IMAG.match(s)
    if m:
        return GaussianRational(Fraction(0), Fraction(m.group(1)))
    m = _RE_REAL.match(s)
    if m:
        return GaussianRational(Fraction(m.group(1)))
    raise ModelValidationError(f"malformed scalar literal {text!r}")


def _outcome(call, *args):
    """What the call returns, or the type and message of what it raises."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # the point is to compare whatever is raised
        return type(exc), str(exc)


def _spec_with(literal) -> dict:
    return {"dim": 1, "states": [{"name": "s", "vector": [literal]}], "properties": []}


def _agree(literal) -> None:
    """Same value or same exception from both parsers, directly and as the
    spec loader reports it."""
    assert _outcome(parse_scalar, literal) == _outcome(reference_parse_scalar, literal)
    got = _outcome(spec_from_dict, _spec_with(literal))
    with mock.patch.object(gaussian, "parse_scalar", reference_parse_scalar):
        assert got == _outcome(spec_from_dict, _spec_with(literal))


_ascii = st.text("0123456789", min_size=1, max_size=6)
_unicode = st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4)
_denominators = st.builds(
    str.__add__, st.sampled_from("123456789"), st.text(st.characters(categories=["Nd"]), max_size=3)
)
_spaces = st.text(" \t\n\r\x0b\x0c\x1c\u00a0\u2003", max_size=2)


@st.composite
def _literals(draw):
    """Literals the grammar accepts: optional sign, ASCII or other decimal
    digits with leading zeros, optional /den, and the real, "bi" and
    "a+bi" forms, inside whitespace."""

    def rational(signs) -> str:
        text = draw(st.sampled_from(signs)) + draw(_ascii | _unicode)
        return text + "/" + draw(_denominators) if draw(st.booleans()) else text

    real = rational(["", "+", "-"])
    form = draw(st.sampled_from(["real", "imaginary", "both"]))
    body = {"real": real, "imaginary": real + "i", "both": real + rational(["+", "-"]) + "i"}[form]
    return draw(_spaces) + body + draw(_spaces)


@settings(max_examples=300, deadline=None)
@given(_literals())
def test_parse_scalar_matches_the_reference_on_valid_literals(literal):
    assert _outcome(parse_scalar, literal)[0] == "ok"
    _agree(literal)


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789+-/i .\u0663", max_size=10) | st.one_of(st.integers(), st.none()))
def test_parse_scalar_matches_the_reference_on_any_text(literal):
    _agree(literal)


_MALFORMED = [
    *["1/0", "1/01", "i", "1+i", "--1", "1.5"],
    pytest.param("1" * 5000, id="5000-digit-numerator"),
    pytest.param("-1/" + "3" * 5000, id="5000-digit-denominator"),
    pytest.param("", id="empty"),
]


@pytest.mark.parametrize("literal", _MALFORMED)
def test_malformed_literals_fail_as_the_reference_does(literal, tmp_path, capsys):
    """Each ends in the same exception and the same one-line error from
    ``qlogic check``; a numerator or denominator past Python's digit limit
    raises ValueError, which the spec loader reports as a malformed file."""
    assert _outcome(parse_scalar, literal)[0] != "ok"
    _agree(literal)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_with(literal)), encoding="utf-8")
    lines = []
    for parse in (parse_scalar, reference_parse_scalar):
        with mock.patch.object(gaussian, "parse_scalar", parse):
            assert main(["check", "--qm-spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        lines.append(err)
    assert lines[0] == lines[1]
