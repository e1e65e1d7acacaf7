"""Binary linear program for the consensus-ranking problem.

A ranking is encoded by its comparison matrix ``P`` (``P[i][j] = 1`` when i
is ranked above j); completeness plus transitivity pin these matrices down
to exactly the linear orders.  For every ballot v and candidate i a grid of
indicator variables ``Q[v][i][r][s]`` selects the cell

    r = |i's down-set in the solution, outside the ballot's down-set|
    s = |i's down-set in the solution, inside  the ballot's down-set|

and the objective charges ``(mass(r + s) - 2 mass(s)) * mu(i)`` per cell, a
constant shift away from the true aggregate distance.  The program has
``n^2 + m n^3`` binary variables and ``n + C(n,2) + n(n-1)(n-2) + 4 m n^3 +
m n`` rows (see ``variable_count`` / ``constraint_count``).

The model is integer throughout.  ``build_ilp`` prices every cell as an
integer over S = ``DistanceParams.scale``, the weights' scale times the
measure's: a block factor, multiplicity times ``int_mu``, times a cell
price from the down-set masses at t = 0..2n-2 times the weights' scale.
It keeps the two lists and splits the gcd of S and the prices between
them: S and the factors divide by their gcd, then S and the cells by
theirs.  What is left of S (the lcm of the prices' reduced denominators)
is the objective's scale, recorded in a leading comment.  The text
serialisation is the CPLEX LP dialect, with the selector rows cleared of
their 1/n factor by scaling through n, so any solver reads the file exactly.

Almost all of the text depends on n alone, and ``_layout(n)`` lays it out
once per n (cached; it holds no profile data): the diag, complete and
transitive rows, the P binaries, the constant segments of one (ballot v,
candidate i) block of 4 n^2 selector rows, and the block's Q binaries split
at its name stem ``v_i_``.  ``to_lp_text`` writes a block as one join of
those segments with their slots filled: the stem, twice a row, and one of
four down-set fragments, i's P terms outside or inside the ballot's
down-set of i, with a minus or a plus sign.  A block's pick row is a
template split at the stem, one per (n, stem length), since its line
breaks depend on nothing else.  Per program only the objective and the
fragments are formatted, and the few blocks whose rows pass the line width
(from n = 18) are wrapped row by row.

The objective is formatted once per distinct block factor: a (ballot,
candidate) block's factor keys a template of its nonzero terms, separated
by "\0" and split at the stem, and the block's terms are the stem joined
into that template (under the counting measure the factors are the
multiplicities, so a few templates serve every block).  ``_wrap_text``
breaks the "\0"-joined body into lines with one ``rfind`` a line and
writes the separators left as spaces; it is the one break finder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from typing import Sequence

from .aggregation import _position_constants
from .distances import profile_cost
from .permutations import Permutation
from .profiles import Profile
from .weights import DistanceParams, downset_mass, int_text

# a row continues on a new line before a term that would take it past this
LINE_WIDTH = 240


@dataclass(frozen=True)
class IlpModel:
    """The program for one profile, as the integers its text is written from.

    ``Q_v_i_r_s``'s written objective coefficient is ``factors[k]`` times
    ``cells[j]``, for (v, i) the k-th block and (r, s) the j-th cell in
    lexicographic order; the objective is the sum of coefficient times Q,
    divided by ``scale``.  ``below[v - 1][i - 1]`` is the bitmask of the
    candidates ballot v ranks below i.
    """

    n: int
    m: int
    scale: int
    factors: tuple[int, ...]
    cells: tuple[int, ...]
    below: tuple[tuple[int, ...], ...]

    def variable_count(self) -> int:
        return expected_variable_count(self.n, self.m)

    def constraint_count(self) -> int:
        return expected_constraint_count(self.n, self.m)

    def to_lp_text(self) -> str:
        n, m = self.n, self.m
        layout = _layout(n)
        stems = [f"{v}_{i}_" for v in range(1, m + 1) for i in range(1, n + 1)]
        # a block's objective terms, "\0"-separated, from one template per
        # distinct block factor, split at the stem
        templates: dict[int, list[str]] = {}
        blocks = []
        for factor, stem in zip(self.factors, stems):
            template = templates.get(factor)
            if template is None:
                template = templates[factor] = "\0".join([
                    f"+ {int_text(c)} Q_\1{cell}" if c > 0 else f"- {int_text(-c)} Q_\1{cell}"
                    for cell, c in zip(layout.cells, [factor * price for price in self.cells])
                    if c
                ]).split("\1")
            if len(template) > 1:  # an all-zero block has no terms
                blocks.append(stem.join(template))
        if blocks:
            # the first term carries its sign on the number: "3 Q", "-3 Q"
            body = "\0".join(blocks)
            body = body[2:] if body[0] == "+" else "-" + body[2:]
        else:
            body = "0 P_1_1"
        parts = [
            f"\\ consensus ranking program: n={n}, m={m}\n"
            f"\\ objective scaled by {int_text(self.scale)}\nMinimize\n",
            _wrap_text(" obj:", body),
            "\n",
            layout.constraints,
        ]
        block = list(layout.selectors)
        masks = (mask for row in self.below for mask in row)
        for stem, minus, plus, mask in zip(stems, layout.minus * m, layout.plus * m, masks):
            # i's P terms outside and inside the ballot's down-set of i
            inside = [mask >> j & 1 for j in range(n)]
            outside = [not bit for bit in inside]
            fragments = [
                list(compress(minus, outside)),
                list(compress(plus, outside)),
                list(compress(minus, inside)),
                list(compress(plus, inside)),
            ]
            out_minus, out_plus, in_minus, in_plus = (" ".join(["", *fragment]) for fragment in fragments)
            # a narrow row ends by column LINE_WIDTH + 1, where _wrap_text leaves
            # it whole; the last cell's rows, with the longest names, are widest
            if layout.widest + 2 * len(stem) + max(len(out_minus), len(in_minus)) > LINE_WIDTH + 1:
                parts.append(_wide_selectors(stem, n, layout.targets, fragments))
            else:
                block[1::2] = [
                    stem, stem, out_minus, stem, stem, out_plus,
                    stem, stem, in_minus, stem, stem, in_plus,
                ] * (n * n)
                parts.append("".join(block))
            parts.append(f" pick_{stem[:-1]}:")
            parts.append(stem.join(_pick_row(n, len(stem))))
        parts.append(layout.binaries)
        parts += [stem.join(layout.q_binaries) for stem in stems]
        parts.append("End\n")
        return "".join(parts)


@dataclass(frozen=True)
class _Layout:
    """The text of an n-candidate program that holds no profile data.

    ``selectors`` holds one (ballot, candidate) block of selector rows with
    its slots left empty: every odd entry is a slot, and the slots of each
    cell are the stem ``v_i_`` twice and a down-set fragment, once for each
    of its four rows (outside minus, outside plus, inside minus, inside
    plus).  ``q_binaries`` is the block's Binary lines split at the stem.
    """

    cells: tuple[str, ...]
    targets: tuple[tuple[str, int, int, int, int], ...]
    minus: tuple[tuple[str, ...], ...]  # minus[i - 1][j - 1] == "- 1 P_i_j"
    plus: tuple[tuple[str, ...], ...]
    selectors: tuple[str, ...]
    widest: int  # width of the last cell's rows, less the two stems and the fragment
    constraints: str
    binaries: str
    q_binaries: tuple[str, ...]


@lru_cache(maxsize=32)
def _layout(n: int) -> _Layout:
    """The layout for n candidates, shared by every program over n."""
    candidates = range(1, n + 1)
    # each cell "r_s" with the right-hand sides of its four selector rows:
    # q <= 1 + (count - target) / n and its mirror image, scaled through n,
    # where count runs over i's P variables outside / inside the down-set
    targets = tuple((f"{r}_{s}", n - r, n + r, n - s, n + s) for r in range(n) for s in range(n))
    cells = tuple(cell for cell, *_ in targets)
    selectors = [""]
    for cell, *bounds in targets:
        for kind, bound in zip(("rlo", "rhi", "slo", "shi"), bounds):
            selectors[-1] += f" sel_{kind}_"
            selectors += ["", f"{cell}: {n} Q_", "", cell, "", f" <= {bound}\n"]
    constraints = [
        "Subject To",
        *(f" diag_{i}: 1 P_{i}_{i} = 0" for i in candidates),
        *(
            f" complete_{i}_{j}: 1 P_{i}_{j} + 1 P_{j}_{i} = 1"
            for i in candidates
            for j in range(i + 1, n + 1)
        ),
        *(
            f" transitive_{i}_{j}_{k}: 1 P_{i}_{j} + 1 P_{j}_{k} - 1 P_{i}_{k} <= 1"
            for i in candidates
            for j in candidates
            for k in candidates
            if i != j != k != i
        ),
    ]
    binaries = ["Binary", *(f" P_{i}_{j}" for i in candidates for j in candidates)]
    return _Layout(
        cells=cells,
        targets=targets,
        minus=tuple(tuple(f"- 1 P_{i}_{j}" for j in candidates) for i in candidates),
        plus=tuple(tuple(f"+ 1 P_{i}_{j}" for j in candidates) for i in candidates),
        selectors=tuple(selectors),
        widest=len(f" sel_rlo_{cells[-1]}: {n} Q_{cells[-1]}"),
        constraints="\n".join(constraints) + "\n",
        binaries="\n".join(binaries) + "\n",
        q_binaries=(" Q_", *(f"{cell}\n Q_" for cell in cells[:-1]), f"{cells[-1]}\n"),
    )


@lru_cache(maxsize=64)
def _pick_row(n: int, width: int) -> tuple[str, ...]:
    """The pick row of a block after its name, split at the stem: its breaks
    depend on n and on the stem's length ``width`` alone."""
    stem = "\1" * width
    head = " pick_" + stem[:-1] + ":"
    body = "\0".join([f"+ 1 Q_{stem}{cell}" for cell in _layout(n).cells])[2:]
    return tuple((_wrap_text(head, body, " = 1") + "\n")[len(head) :].split(stem))


def _wrap_text(head: str, body: str, suffix: str = "") -> str:
    """``head`` and the terms of ``body``, separated by "\\0", as one row
    broken before any term that would take a line past ``LINE_WIDTH``, with
    the separators left written as spaces.

    Continuation lines are indented; the head stays alone on its line when
    its first term does not fit beside it, and a term too wide for any line
    takes a continuation line of its own.  Each line is found by one
    ``rfind`` for the last separator within its room.
    """
    parts = [head]
    pos, end = 0, len(body)
    # the line's " " and terms end by column LINE_WIDTH + 1; a negative room
    # would count back from the end of the body
    room = max(LINE_WIDTH - len(head), 0)
    while end - pos > room:
        cut = body.rfind("\0", pos, pos + room + 1)
        if cut < 0:
            if len(parts) == 1:
                # the first term does not fit beside the head
                parts.append("\n   ")
                room = LINE_WIDTH - 3
                continue
            cut = body.find("\0", pos)  # an oversized term, alone on its line
            if cut < 0:
                break
        parts += [" ", body[pos:cut], "\n   "]
        pos = cut + 1
        room = LINE_WIDTH - 3
    parts += [" ", body[pos:], suffix]
    return "".join(parts).replace("\0", " ")


def _wide_selectors(
    stem: str, n: int, targets: tuple[tuple, ...], fragments: list[list[str]]
) -> str:
    """The selector rows of one (ballot, candidate) when they pass the line
    width (from n = 18; at n = 17 only from ballot 10^6 on), each wrapped
    by ``_wrap_text`` and ended by a newline; ``fragments`` holds the P
    terms of a cell's four rows, in row order."""
    return "".join([
        _wrap_text(f" sel_{kind}_{stem}{cell}:", "\0".join([f"{n} Q_{stem}{cell}", *terms]),
                   f" <= {bound}\n")
        for cell, *bounds in targets
        for kind, terms, bound in zip(("rlo", "rhi", "slo", "shi"), fragments, bounds)
    ])


def comparison_matrix(ranking: Permutation) -> list[list[int]]:
    """The 0/1 matrix with entry (i, j) = 1 when i is ranked above j."""
    n = ranking.n
    return [
        [1 if i != j and ranking.prefers(i, j) else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


def is_linear_order_matrix(matrix: Sequence[Sequence[int]]) -> bool:
    """Check the completeness and transitivity rows directly."""
    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 0:
            return False
        for j in range(n):
            if i != j and matrix[i][j] + matrix[j][i] != 1:
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and matrix[i][j] + matrix[j][k] - 1 > matrix[i][k]:
                    return False
    return True


def ranking_from_matrix(matrix: Sequence[Sequence[int]]) -> Permutation:
    """Invert ``comparison_matrix``; the matrix must satisfy the order rows."""
    if not is_linear_order_matrix(matrix):
        raise ValueError("matrix violates the linear-order constraints")
    n = len(matrix)
    by_downset = sorted(range(1, n + 1), key=lambda i: -sum(matrix[i - 1]))
    return Permutation(by_downset)


def build_ilp(params: DistanceParams, profile: Profile) -> IlpModel:
    """Assemble the full binary program for a profile."""
    n = params.n
    if profile.n != n:
        raise ValueError(f"dimension mismatch: params over {n}, profile over {profile.n}")
    # down-set masses at t = 0..2n-2, scaled to integers by the weights' scale
    weights_scale = params.weights.scaled[1]
    f = [int(downset_mass(params.weights, t) * weights_scale) for t in range(2 * n - 1)]
    cells = [f[r + s] - 2 * f[s] for r in range(n) for s in range(n)]
    factors = [mult * mu for mult, _ in profile.entries for mu in params.int_mu]
    # each price is factor * cell / S, written over S / g for g = gcd(S, every
    # product): S and the factors give up their gcd g1, then S / g1 and the
    # cells theirs, g2, and g1 g2 = g, as min(s, f + c) = min(s, min(s, f) + c)
    # for s, f, c the powers of a prime in S and the factors' and cells' gcds
    factor_share = gcd(params.scale, *factors)
    cell_share = gcd(params.scale // factor_share, *cells)
    return IlpModel(
        n=n,
        m=len(profile.entries),
        scale=params.scale // factor_share // cell_share,
        factors=tuple(x // factor_share for x in factors),
        cells=tuple(x // cell_share for x in cells),
        below=tuple(v._below for _, v in profile.entries),
    )


def expected_variable_count(n: int, m: int) -> int:
    return n * n + m * n**3


def expected_constraint_count(n: int, m: int) -> int:
    return n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) + 4 * m * n**3 + m * n


def objective_value(
    params: DistanceParams, profile: Profile, ranking: Permutation
) -> Fraction:
    """The program objective at the assignment induced by ``ranking``.

    Equals the aggregate distance minus the ranking-independent ballot mass,
    so its argmin over rankings is the consensus set.
    """
    return profile_cost(params, ranking, profile) - objective_offset(params, profile)


def objective_offset(params: DistanceParams, profile: Profile) -> Fraction:
    """The constant separating ``objective_value`` from the aggregate
    distance: ``sum_v mult_v sum_c f(|B_v(c)|) mu_c``, which is the sum of
    the position constants, as ballot v puts f(n - i) on its i-th candidate."""
    return Fraction(sum(_position_constants(params, profile)), params.scale)
