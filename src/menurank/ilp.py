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

The text serialisation is the CPLEX LP dialect.  Rows are written with
integer coefficients (the selector rows are cleared of their 1/n factor by
scaling through n) and the objective is scaled by the least common multiple
of its denominators, recorded in a leading comment, so any solver reads the
file exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .permutations import Permutation
from .profiles import Profile
from .weights import DistanceParams, downset_mass


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[str, int], ...]  # (variable, integer coefficient)
    sense: str  # '<=' or '='
    rhs: int


@dataclass(frozen=True)
class IlpModel:
    n: int
    m: int
    objective: tuple[tuple[str, Fraction], ...]
    constraints: tuple[Constraint, ...]
    binaries: tuple[str, ...]

    def variable_count(self) -> int:
        return len(self.binaries)

    def constraint_count(self) -> int:
        return len(self.constraints)

    def to_lp_text(self) -> str:
        scale = lcm(*(coeff.denominator for _, coeff in self.objective)) if self.objective else 1
        lines = [
            f"\\ consensus ranking program: n={self.n}, m={self.m}",
            f"\\ objective scaled by {scale}",
            "Minimize",
        ]
        terms = [
            (name, coeff * scale) for name, coeff in self.objective if coeff != 0
        ]
        lines.extend(_wrap_terms("obj", terms))
        lines.append("Subject To")
        for con in self.constraints:
            sense = "=" if con.sense == "=" else "<="
            body = _wrap_terms(con.name, list(con.terms), f" {sense} {con.rhs}")
            lines.extend(body)
        lines.append("Binary")
        for name in self.binaries:
            lines.append(f" {name}")
        lines.append("End")
        return "\n".join(lines) + "\n"


def _format_coeff(value: Fraction | int, first: bool) -> str:
    value = Fraction(value)
    assert value.denominator == 1
    v = value.numerator
    sign = "-" if v < 0 else ("" if first else "+")
    magnitude = abs(v)
    return f"{sign} {magnitude} " if not first else f"{sign}{magnitude} "


def _wrap_terms(
    name: str, terms: Sequence[tuple[str, Fraction | int]], suffix: str = ""
) -> list[str]:
    if not terms:
        terms = [("P_1_1", 0)] if not suffix else terms
    chunks = []
    for idx, (var, coeff) in enumerate(terms):
        chunks.append(_format_coeff(coeff, idx == 0) + var)
    lines = []
    current = f" {name}:"
    for idx, chunk in enumerate(chunks):
        if len(current) + len(chunk) > 240:
            lines.append(current)
            current = "   "
        current += " " + chunk
    current += suffix
    lines.append(current)
    return lines


def p_var(i: int, j: int) -> str:
    return f"P_{i}_{j}"

def q_var(v: int, i: int, r: int, s: int) -> str:
    return f"Q_{v}_{i}_{r}_{s}"


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
    ballots: list[tuple[int, list[list[int]]]] = [
        (mult, comparison_matrix(v)) for mult, v in profile.entries
    ]
    m = len(ballots)
    mu = params.mu.values
    f = [downset_mass(params.weights, t) for t in range(2 * n - 1)]

    objective = []
    for v in range(1, m + 1):
        mult = ballots[v - 1][0]
        for i in range(1, n + 1):
            for r in range(n):
                for s in range(n):
                    coeff = mult * (f[r + s] - 2 * f[s]) * mu[i - 1]
                    objective.append((q_var(v, i, r, s), coeff))

    constraints: list[Constraint] = []
    for i in range(1, n + 1):
        constraints.append(
            Constraint(f"diag_{i}", ((p_var(i, i), 1),), "=", 0)
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            constraints.append(
                Constraint(
                    f"complete_{i}_{j}",
                    ((p_var(i, j), 1), (p_var(j, i), 1)),
                    "=",
                    1,
                )
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if len({i, j, k}) == 3:
                    constraints.append(
                        Constraint(
                            f"transitive_{i}_{j}_{k}",
                            ((p_var(i, j), 1), (p_var(j, k), 1), (p_var(i, k), -1)),
                            "<=",
                            1,
                        )
                    )

    for v in range(1, m + 1):
        matrix = ballots[v - 1][1]
        for i in range(1, n + 1):
            outside = [(p_var(i, j), 1) for j in range(1, n + 1) if matrix[i - 1][j - 1] == 0]
            inside = [(p_var(i, j), 1) for j in range(1, n + 1) if matrix[i - 1][j - 1] == 1]
            for r in range(n):
                for s in range(n):
                    q = q_var(v, i, r, s)
                    # selector rows, scaled through n to integer coefficients:
                    # q <= 1 + (count - target) / n  and  the mirror image
                    for tag, count, target in (("r", outside, r), ("s", inside, s)):
                        constraints.append(
                            Constraint(
                                f"sel_{tag}lo_{v}_{i}_{r}_{s}",
                                ((q, n), *((var, -c) for var, c in count)),
                                "<=",
                                n - target,
                            )
                        )
                        constraints.append(
                            Constraint(
                                f"sel_{tag}hi_{v}_{i}_{r}_{s}",
                                ((q, n), *count),
                                "<=",
                                n + target,
                            )
                        )
            constraints.append(
                Constraint(
                    f"pick_{v}_{i}",
                    tuple((q_var(v, i, r, s), 1) for r in range(n) for s in range(n)),
                    "=",
                    1,
                )
            )

    binaries = [p_var(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    binaries.extend(
        q_var(v, i, r, s)
        for v in range(1, m + 1)
        for i in range(1, n + 1)
        for r in range(n)
        for s in range(n)
    )
    return IlpModel(
        n=n,
        m=m,
        objective=tuple(objective),
        constraints=tuple(constraints),
        binaries=tuple(binaries),
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
    n = params.n
    total = Fraction(0)
    for mult, v in profile.entries:
        for i in range(1, n + 1):
            s = (ranking.below_mask(i) & v.below_mask(i)).bit_count()
            rs = ranking.below_mask(i).bit_count()
            total += mult * (params.table[rs] - 2 * params.table[s]) * params.mu.values[i - 1]
    return total


def objective_offset(params: DistanceParams, profile: Profile) -> Fraction:
    """The constant separating ``objective_value`` from the aggregate distance."""
    n = params.n
    return sum(
        (
            mult * params.table[v.below_mask(i).bit_count()] * params.mu.values[i - 1]
            for mult, v in profile.entries
            for i in range(1, n + 1)
        ),
        Fraction(0),
    )
