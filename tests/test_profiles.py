from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menurank import Permutation, Profile, format_profile, parse_profile
from menurank.profiles import ProfileFormatError

GOOD = """\
# a comment
3 4
2: 1 2 3   # inline comment
1: 2 3 1
1: 3 1 2
"""


def test_parse_roundtrip():
    profile = parse_profile(GOOD)
    assert profile.n == 3
    assert profile.voters == 4
    assert [mult for mult, _ in profile.entries] == [2, 1, 1]
    assert profile.entries[1][1] == Permutation((2, 3, 1))
    assert parse_profile(format_profile(profile)).entries == profile.entries


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty profile"),
        ("3\n1: 1 2 3\n", "expected 'n m'"),
        ("a b\n", "non-integer header"),
        ("3 1\n1 2 3\n", "missing ':'"),
        ("3 1\nx: 1 2 3\n", "non-integer multiplicity"),
        ("3 1\n0: 1 2 3\n", "must be positive"),
        ("3 1\n1: 1 2\n", "expected 3"),
        ("3 1\n1: 1 2 2\n", "invalid ballot"),
        ("3 2\n1: 1 2 3\n", "sum to 1"),
        ("3 1\n", "no ballots"),
        # numbers are ASCII digits only; int() would take every one of these
        ("3 1_0\n1_0: 1 2 3\n", "non-integer header"),
        ("+3 1\n1: 1 2 3\n", "non-integer header"),
        ("\uff13 1\n1: 1 2 3\n", "non-integer header"),  # fullwidth three
        ("3 1\n+1: 1 2 3\n", "non-integer multiplicity"),
        ("3 1\n\u0661: 1 2 3\n", "non-integer multiplicity"),  # Arabic-Indic one
        ("3 1\n1: +1 2 3\n", "non-integer candidate"),
        ("3 1\n1: 1 2 \u0663\n", "non-integer candidate"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ProfileFormatError, match=fragment):
        parse_profile(text)


def test_a_total_past_the_str_digit_limit_is_refused_by_name():
    # each multiplicity fits the limit but their sum does not: such a header
    # could not be parsed back, so it is refused with the library's message
    limit = sys.get_int_max_str_digits()
    big = 10**limit - 1
    fits = Profile(((big, Permutation((1, 2))),), 2)
    assert parse_profile(format_profile(fits)).entries == fits.entries
    with pytest.raises(ValueError, match=f"voter total is longer than {limit} digits"):
        format_profile(fits.concat(fits))


def test_space_before_the_colon_is_still_a_separator():
    profile = parse_profile("3 2\n2 : 3 1 2\n")
    assert profile.entries == ((2, Permutation((3, 1, 2))),)


def test_profile_validation():
    with pytest.raises(ValueError):
        Profile(((1, Permutation((1, 2))), (1, Permutation((1, 2, 3)))), 2)
    with pytest.raises(ValueError):
        Profile(((0, Permutation((1, 2))),), 2)
    for mult, ballot in ((Fraction(3, 2), Permutation((1, 2))), (True, Permutation((1, 2))),
                         (2.0, Permutation((1, 2))), (1, (1, 2))):
        with pytest.raises(ValueError):
            Profile(((mult, ballot),), 2)
    # candidate counts that equal the ballots' but are no int: format_profile
    # would write the header "2.0 1", which parse_profile refuses
    for n, order in ((2.0, (1, 2)), (True, (1,))):
        with pytest.raises(ValueError, match="must be an int"):
            Profile(((1, Permutation(order)),), n)


def test_relabel_and_concat():
    profile = parse_profile(GOOD)
    tau = Permutation((3, 2, 1))
    relabeled = profile.relabel(tau)
    assert relabeled.entries[0][1] == Permutation((3, 2, 1))
    doubled = profile.concat(profile)
    assert doubled.voters == 8


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789 :\n\t-+.x"))
def test_parse_accepts_or_rejects_cleanly(text):
    # ballots go through the checked Permutation constructor, so any text is
    # either a valid profile or a ProfileFormatError, never another exception
    try:
        profile = parse_profile(text)
    except ProfileFormatError:
        return
    assert isinstance(profile, Profile)
    assert parse_profile(format_profile(profile)).entries == profile.entries
