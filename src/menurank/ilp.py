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
integer over S = ``DistanceParams.scale``, from the down-set masses at
t = 0..2n-2 times ``weights_scale`` and the integer measure ``int_mu``; it
divides the prices and S by their gcd, and what is left of S (the lcm of
the prices' reduced denominators) is the objective's scale, recorded in a
leading comment.  The text serialisation is the CPLEX
LP dialect.  ``to_lp_text`` writes each row whole from the ballots' down-set
masks (the selector rows are cleared of their 1/n factor by scaling through
n), so any solver reads the file exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .permutations import Permutation
from .profiles import Profile
from .weights import DistanceParams, downset_mass

# a row continues on a new line before a term that would take it past this
LINE_WIDTH = 240


@dataclass(frozen=True)
class IlpModel:
    """The program for one profile, as the integers its text is written from.

    ``coefficients`` holds the written objective coefficient of every
    ``Q_v_i_r_s`` in (v, i, r, s) order; the program's objective is the sum
    of coefficient times Q, divided by ``scale``.  ``below[v - 1][i - 1]`` is the bitmask of the
    candidates ballot v ranks below i.
    """

    n: int
    m: int
    scale: int
    coefficients: tuple[int, ...]
    below: tuple[tuple[int, ...], ...]

    def variable_count(self) -> int:
        return expected_variable_count(self.n, self.m)

    def constraint_count(self) -> int:
        return expected_constraint_count(self.n, self.m)

    def to_lp_text(self) -> str:
        n, m = self.n, self.m
        # each cell "r_s" with the right-hand sides of its four selector rows
        targets = [(f"{r}_{s}", n - r, n + r, n - s, n + s) for r in range(n) for s in range(n)]
        cells = [cell for cell, *_ in targets]
        lines = [
            f"\\ consensus ranking program: n={n}, m={m}",
            f"\\ objective scaled by {self.scale}",
            "Minimize",
        ]
        terms = []
        coefficients = iter(self.coefficients)
        for v in range(1, m + 1):
            for i in range(1, n + 1):
                for cell, c in zip(cells, coefficients):
                    if c > 0:
                        terms.append(f"+ {c} Q_{v}_{i}_{cell}")
                    elif c < 0:
                        terms.append(f"- {-c} Q_{v}_{i}_{cell}")
        if terms:
            # the first term carries its sign on the number: "3 Q", "-3 Q"
            first = terms[0]
            terms[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        else:
            terms = ["0 P_1_1"]
        lines.extend(_wrap(" obj:", terms))

        lines.append("Subject To")
        lines.extend(f" diag_{i}: 1 P_{i}_{i} = 0" for i in range(1, n + 1))
        lines.extend(
            f" complete_{i}_{j}: 1 P_{i}_{j} + 1 P_{j}_{i} = 1"
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        )
        lines.extend(
            f" transitive_{i}_{j}_{k}: 1 P_{i}_{j} + 1 P_{j}_{k} - 1 P_{i}_{k} <= 1"
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for k in range(1, n + 1)
            if i != j != k != i
        )
        for v, masks in enumerate(self.below, start=1):
            for i, mask in enumerate(masks, start=1):
                # selector rows, scaled through n to integer coefficients:
                # q <= 1 + (count - target) / n  and  the mirror image, where
                # count runs over i's P variables outside / inside the ballot's
                # down-set; the four rows of a cell share these fragments
                outside = [f"P_{i}_{j}" for j in range(1, n + 1) if not mask >> (j - 1) & 1]
                inside = [f"P_{i}_{j}" for j in range(1, n + 1) if mask >> (j - 1) & 1]
                out_minus = "".join(f" - 1 {p}" for p in outside)
                out_plus = "".join(f" + 1 {p}" for p in outside)
                in_minus = "".join(f" - 1 {p}" for p in inside)
                in_plus = "".join(f" + 1 {p}" for p in inside)
                vi = f"{v}_{i}_"
                q = f" {n} Q_{vi}"
                # _wrap leaves a row whole when it ends by column LINE_WIDTH + 1;
                # the rows of the last cell, with the longest name, are widest
                longest = max(len(out_minus), len(in_minus))
                if len(f" sel_rlo_{vi}{cells[-1]}:{q}{cells[-1]}") + longest > LINE_WIDTH + 1:
                    lines.extend(_wide_selectors(vi, q, targets, outside, inside))
                else:
                    lines += [
                        f" sel_rlo_{vi}{cell}:{q}{cell}{out_minus} <= {r_lo}\n"
                        f" sel_rhi_{vi}{cell}:{q}{cell}{out_plus} <= {r_hi}\n"
                        f" sel_slo_{vi}{cell}:{q}{cell}{in_minus} <= {s_lo}\n"
                        f" sel_shi_{vi}{cell}:{q}{cell}{in_plus} <= {s_hi}"
                        for cell, r_lo, r_hi, s_lo, s_hi in targets
                    ]
                picks = [f"+ 1 Q_{vi}{cell}" for cell in cells]
                picks[0] = picks[0][2:]
                lines.extend(_wrap(f" pick_{v}_{i}:", picks, " = 1"))

        lines.append("Binary")
        lines.extend(f" P_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1))
        lines.extend(
            f" Q_{v}_{i}_{cell}"
            for v in range(1, m + 1)
            for i in range(1, n + 1)
            for cell in cells
        )
        lines.append("End")
        return "\n".join(lines) + "\n"


def _wrap(head: str, terms: Sequence[str], suffix: str = "") -> list[str]:
    """``head`` and ``terms`` on one line, broken before any term that would
    take the line past ``LINE_WIDTH``; continuation lines are indented."""
    lines = []
    current = head
    for term in terms:
        if len(current) + len(term) > LINE_WIDTH:
            lines.append(current)
            current = "   "
        current += " " + term
    lines.append(current + suffix)
    return lines


def _wide_selectors(
    vi: str, q: str, targets: list[tuple], outside: list[str], inside: list[str]
) -> list[str]:
    """The selector rows of one (ballot, candidate) when they pass the line
    width (n >= 17), each wrapped term by term."""
    lines = []
    for cell, r_lo, r_hi, s_lo, s_hi in targets:
        q_term = q[1:] + cell
        for tag, count, lo, hi in (("r", outside, r_lo, r_hi), ("s", inside, s_lo, s_hi)):
            lines += _wrap(f" sel_{tag}lo_{vi}{cell}:", [q_term, *(f"- 1 {p}" for p in count)], f" <= {lo}")
            lines += _wrap(f" sel_{tag}hi_{vi}{cell}:", [q_term, *(f"+ 1 {p}" for p in count)], f" <= {hi}")
    return lines


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
    # down-set masses at t = 0..2n-2, scaled by weights_scale to integers
    f = [int(downset_mass(params.weights, t) * params.weights_scale) for t in range(2 * n - 1)]
    cell_mass = [f[r + s] - 2 * f[s] for r in range(n) for s in range(n)]
    coefficients = [
        mult * mu * mass
        for mult, _ in profile.entries
        for mu in params.int_mu
        for mass in cell_mass
    ]
    # each price is c / S; written as c / g over the header scale S / g with
    # g = gcd(S, every c), and S / g is the lcm of the reduced denominators
    scale = params.scale
    common = gcd(scale, *coefficients)
    return IlpModel(
        n=n,
        m=len(profile.entries),
        scale=scale // common,
        coefficients=tuple(c // common for c in coefficients),
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
    table, mu = params.int_table, params.int_mu
    total = 0
    for mult, v in profile.entries:
        for i in range(1, params.n + 1):
            mine = ranking.below_mask(i)
            shared = (mine & v.below_mask(i)).bit_count()
            total += mult * (table[mine.bit_count()] - 2 * table[shared]) * mu[i - 1]
    return Fraction(total, params.scale)


def objective_offset(params: DistanceParams, profile: Profile) -> Fraction:
    """The constant separating ``objective_value`` from the aggregate distance."""
    table, mu = params.int_table, params.int_mu
    total = sum(
        mult * table[v.below_mask(i).bit_count()] * mu[i - 1]
        for mult, v in profile.entries
        for i in range(1, params.n + 1)
    )
    return Fraction(total, params.scale)
