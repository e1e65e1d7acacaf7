"""Electorates: multisets of rankings with integer multiplicities.

The on-disk format is line oriented, one election per file::

    # optional comments
    n m
    k: c1 c2 ... cn     # k voters submitted this ballot

The header carries the number of candidates ``n`` and the total voter count
``m``; ballot multiplicities must add up to ``m`` exactly.  Every number is
written in plain ASCII decimal digits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator

from .permutations import Permutation


class ProfileFormatError(ValueError):
    """Raised when a profile file does not follow the documented format."""


@dataclass(frozen=True)
class Profile:
    """A weighted list of ballots over a common candidate set."""

    entries: tuple[tuple[int, Permutation], ...]
    n: int

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"candidate count {self.n!r} must be an int")
        if not self.entries:
            raise ValueError("a profile needs at least one ballot")
        for mult, ranking in self.entries:
            if type(mult) is not int:
                raise ValueError(f"multiplicity {mult!r} must be an int")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} must be positive")
            if not isinstance(ranking, Permutation):
                raise ValueError(f"ballot {ranking!r} must be a Permutation")
            if ranking.n != self.n:
                raise ValueError(
                    f"ballot over {ranking.n} candidates in a profile over {self.n}"
                )

    @property
    def voters(self) -> int:
        return sum(mult for mult, _ in self.entries)

    def ballots(self) -> Iterator[Permutation]:
        """The ballots, one per entry, multiplicities ignored: a ranking
        given on two lines is yielded twice."""
        for _, ranking in self.entries:
            yield ranking

    def concat(self, other: "Profile") -> "Profile":
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return Profile(self.entries + other.entries, self.n)

    def relabel(self, tau: Permutation) -> "Profile":
        """Rename every candidate c to tau[c] in every ballot."""
        return Profile(
            tuple((mult, tau.compose(v)) for mult, v in self.entries), self.n
        )


def parse_naturals(text: str) -> list[int]:
    """The whitespace-separated numbers in ``text``, each in ASCII digits
    only: no sign, underscore or other script's digits, all of which
    ``int`` would accept."""
    tokens = text.split()
    digits = "".join(tokens)
    if digits and not (digits.isascii() and digits.isdigit()):
        raise ValueError("expected ASCII decimal digits only")
    return list(map(int, tokens))


def parse_profile(text: str) -> Profile:
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if not lines:
        raise ProfileFormatError("empty profile: expected a 'n m' header line")
    header = lines[0].split()
    if len(header) != 2:
        raise ProfileFormatError(f"malformed header {lines[0]!r}: expected 'n m'")
    try:
        n, m = parse_naturals(lines[0])
    except ValueError:
        raise ProfileFormatError(f"non-integer header {lines[0]!r}") from None
    entries = []
    for line in lines[1:]:
        if ":" not in line:
            raise ProfileFormatError(f"malformed ballot line {line!r}: missing ':'")
        mult_part, ballot_part = line.split(":", 1)
        try:
            (mult,) = parse_naturals(mult_part)
        except ValueError:
            raise ProfileFormatError(
                f"non-integer multiplicity {mult_part!r}"
            ) from None
        if mult < 1:
            raise ProfileFormatError(f"multiplicity {mult} must be positive")
        try:
            candidates = parse_naturals(ballot_part)
        except ValueError:
            raise ProfileFormatError(f"non-integer candidate in {line!r}") from None
        if len(candidates) != n:
            raise ProfileFormatError(
                f"ballot {line!r} lists {len(candidates)} candidates, expected {n}"
            )
        try:
            ranking = Permutation(candidates)
        except ValueError as exc:
            raise ProfileFormatError(f"invalid ballot {line!r}: {exc}") from None
        entries.append((mult, ranking))
    if not entries:
        raise ProfileFormatError("profile has no ballots")
    total = sum(mult for mult, _ in entries)
    if total != m:
        raise ProfileFormatError(
            f"multiplicities sum to {total} but the header promises {m} voters"
        )
    return Profile(tuple(entries), n)


def load_profile(path: str) -> Profile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_profile(handle.read())


def format_profile(profile: Profile) -> str:
    """The profile in the on-disk format, which ``parse_profile`` reads back.

    Refused with a ``ValueError`` when the voter total is longer than the
    interpreter's limit on integer strings (``sys.get_int_max_str_digits()``,
    4,300 digits by default), which no multiplicity passes before the total
    does: ``int`` keeps that limit on input, so the text could not be read
    back.
    """
    try:
        header = f"{profile.n} {profile.voters}"
    except ValueError:  # str() refuses the total, as parse_profile's int() would
        raise ValueError(
            f"the profile's voter total is longer than {sys.get_int_max_str_digits()} "
            "digits, which parse_profile could not read back"
        ) from None
    lines = [header]
    for mult, ranking in profile.entries:
        lines.append(f"{mult}: {ranking}")
    return "\n".join(lines) + "\n"
