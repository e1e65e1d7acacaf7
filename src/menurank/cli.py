"""The ``menurank`` command.

One subcommand per deliverable: ``dist``, ``footrule``, ``gamma``,
``aggregate``, ``ptas-depth``, ``ilp-export``, ``check``, ``verify-oracle``
and ``bench``.  Reports are plain text on stdout (or ``--out``), every
number is printed as an exact integer or ``p/q`` rational, and output is
byte-identical across runs for identical arguments, seeds and input files.

Exit codes: 0 success, 1 a checked statement fails (a ``Fails`` audit
verdict or an oracle mismatch), 2 usage or input errors, including a
profile or parameter file that cannot be read, an ``--out`` file that
cannot be written, an integer flag (``--n``, ``--k``, ``--m``,
``--trials``, ``--seed``, ``--window``) not written in ASCII digits and a
flag the chosen method does not read.

``main`` can be called any number of times in one process.  The argument
parser is built once per process, and preset parameters (``kendall``,
``binomial:1/3``, ...) are tabulated once per token and candidate count
(the 512 most recent are kept); parameter files are read again on every
call, so edits to them take effect.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, Sequence

from . import audit as audit_mod
from .aggregation import (
    PTAS_RULES,
    ConsensusSet,
    aggregate_exact,
    aggregate_footrule,
    aggregate_myopic,
    ptas_depth,
)
from .distances import distance, distance_naive, footrule_weighted, truncated_distance
from .ilp import build_ilp
from .permutations import Permutation
from .profiles import Profile, ProfileFormatError, load_profile, parse_naturals
from .weights import (
    DistanceParams,
    Measure,
    MenuWeights,
    PRESET_NAMES,
    ParamsFormatError,
    approximation_factor,
    as_fraction,
    int_text,
    make_params,
    parse_params_text,
    preset,
)


class CliError(Exception):
    """Input problems that should exit with status 2."""


def _natural(text: str) -> int:
    """An integer flag's value, in ASCII digits only (``int`` would also take
    ``1_0``, ``+5`` or ``\u0665``).  Raised as a ``CliError``, which argparse
    passes on, so ``main`` exits 2 with one ``error:`` line."""
    try:
        (value,) = parse_naturals(text)  # ValueError too unless exactly one
    except ValueError:
        raise CliError(
            f"integer flags take one natural number in ASCII digits, got {text!r}"
        ) from None
    return value


def _parse_ranking(text: str) -> Permutation:
    try:
        return Permutation(parse_naturals(text))
    except ValueError as exc:
        raise CliError(f"bad ranking {text!r}: {exc}") from None


@lru_cache(maxsize=512)
def _preset_params(name: str, n: int, param: Fraction | None) -> DistanceParams:
    """The tabulated parameters of one preset token; shared by every call."""
    return make_params(*preset(name, n, param))


def _load_params(token: str, n: int | None) -> DistanceParams:
    """A preset token like ``kendall`` / ``binomial:1/3``, or a file path."""
    name, _, param = token.partition(":")
    try:
        if name in PRESET_NAMES:
            if n is None:
                raise CliError(
                    f"preset {name!r} needs the candidate count (give --n or a ranking/profile)"
                )
            return _preset_params(name, n, as_fraction(param) if param else None)
        try:
            with open(token, "r", encoding="utf-8") as handle:
                text = handle.read()
        except FileNotFoundError:
            raise CliError(f"no such preset or parameter file: {token!r}") from None
        except OSError as exc:
            raise CliError(f"cannot read parameter file {token!r}: {exc.strerror or exc}") from None
        return make_params(*parse_params_text(text, n))
    except (ParamsFormatError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"invalid parameters {token!r}: {exc}") from None


def _load_profile(path: str) -> Profile:
    try:
        return load_profile(path)
    except FileNotFoundError:
        raise CliError(f"no such profile file: {path!r}") from None
    except OSError as exc:
        raise CliError(f"cannot read profile file {path!r}: {exc.strerror or exc}") from None
    except ProfileFormatError as exc:
        raise CliError(f"malformed profile {path!r}: {exc}") from None


def fmt(value) -> str:
    if isinstance(value, Fraction):
        numerator, denominator = int_text(value.numerator), int_text(value.denominator)
        return numerator if denominator == "1" else f"{numerator}/{denominator}"
    if isinstance(value, Permutation):
        return str(value)
    if isinstance(value, (frozenset, set)):
        return "{" + " ".join(fmt(v) for v in sorted(value)) + "}"
    if isinstance(value, ConsensusSet):
        return "(" + value.text().replace("\n", ", ") + ")"
    if isinstance(value, tuple):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    return str(value)


def _emit(output: Iterable[str] | str, out: str | None) -> None:
    """Write a command's lines, or its whole text when it built one itself."""
    text = output if isinstance(output, str) else "\n".join(output) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dist(args) -> tuple[int, list[str]]:
    if args.window and args.naive:
        raise CliError("--naive is the whole distance's oracle; --window reads no --naive")
    a = _parse_ranking(args.a)
    b = _parse_ranking(args.b)
    params = _load_params(args.params, a.n)
    if args.window:
        first, last = args.window
        value = truncated_distance(params, a, b, first, last)
    elif args.naive:
        value = distance_naive(params, a, b)
    else:
        value = distance(params, a, b)
    return 0, [fmt(value)]


def _cmd_footrule(args) -> tuple[int, list[str]]:
    a = _parse_ranking(args.a)
    b = _parse_ranking(args.b)
    params = _load_params(args.params, a.n)
    return 0, [fmt(footrule_weighted(params.weights, params.mu, a, b))]


def _cmd_gamma(args) -> tuple[int, list[str]]:
    params = _load_params(args.params, args.n)
    if args.n is not None and params.n != args.n:
        raise CliError(f"--n is {args.n} but the parameters are over {params.n} candidates")
    return 0, [fmt(approximation_factor(params.weights))]


def _cmd_aggregate(args) -> tuple[int, list[str]]:
    if args.k is not None and args.method != "myopic":
        raise CliError(f"--k is the myopic window depth; --method {args.method} reads no --k")
    profile = _load_profile(args.profile)
    params = _load_params(args.params, profile.n)
    if args.method == "exact":
        result = aggregate_exact(params, profile)
    elif args.method == "footrule":
        result = aggregate_footrule(params.weights, profile, params.mu)
    else:
        if args.k is None:
            raise CliError("--method myopic needs a window depth --k")
        result = aggregate_myopic(params, profile, args.k)
    rankings = result.minimizers
    # the rankings as one block of "  1 2 3" lines, straight from the DAG
    lines = [f"method: {result.method}", f"minimizers ({len(rankings)}):", rankings.text("  ")]
    lines.append(f"objective: {fmt(result.optimum)}")
    lines.append(f"cost: {fmt(result.certificate)}")
    lines.append(f"winners: {fmt(result.winners)}")
    return 0, lines


def _epsilon(text: str) -> Fraction:
    eps = as_fraction(text)
    if eps <= 0:
        raise CliError(f"epsilon must be positive, got {text}")
    return eps


def _cmd_ptas_depth(args) -> tuple[int, list[str]]:
    if args.alpha is not None and args.rule != "exponential":
        raise CliError(f"--alpha is the exponential rule's base; --rule {args.rule} reads no --alpha")
    if args.rule != "custom":
        for flag, value in (("--params", args.params), ("--n", args.n)):
            if value is not None:
                raise CliError(f"{flag} is for --rule custom; --rule {args.rule} reads no {flag}")
    inv_epsilon = 1 / _epsilon(args.epsilon)
    weights = None
    if args.rule == "custom":
        if not args.params or args.n is None:
            raise CliError("--rule custom needs --params and --n")
        weights = _load_params(args.params, args.n).weights
    depth = ptas_depth(args.rule, inv_epsilon, n=args.n, alpha=args.alpha and as_fraction(args.alpha), weights=weights)
    return 0, [str(depth)]


def _cmd_ilp_export(args) -> tuple[int, str]:
    profile = _load_profile(args.profile)
    params = _load_params(args.params, profile.n)
    # the whole file, final newline included, handed to _emit as it is
    return 0, build_ilp(params, profile).to_lp_text()


def _describe_witness(witness) -> list[str]:
    if witness is None:
        return []
    return [f"  {key}: {fmt(value)}" for key, value in witness.items()]


def _cmd_check(args) -> tuple[int, list[str]]:
    if (args.axiom is None) == (args.property is None):
        raise CliError("give exactly one of --axiom or --property")
    if args.axiom:
        for flag, value in (("--profile", args.profile), ("--profile2", args.profile2)):
            if value is not None:
                raise CliError(f"{flag} is for property checks; --axiom reads no {flag}")
        n = args.n
        if n is None:
            raise CliError("--axiom needs --n")
        params = _load_params(args.params, n)
        if params.n != n:
            raise CliError(f"--n is {n} but the parameters are over {params.n} candidates")
        report = audit_mod.audit_axiom(params, args.axiom)
    else:
        if args.n is not None:
            raise CliError("--n is the axiom checks' candidate count; --property reads no --n")
        if not args.profile:
            raise CliError("--property needs --profile")
        profile = _load_profile(args.profile)
        params = _load_params(args.params, profile.n)
        if args.property == "reinforcing" and not args.profile2:
            raise CliError("--property reinforcing compares two profiles; give --profile2")
        other = _load_profile(args.profile2) if args.profile2 else None
        report = audit_mod.check_property(params, profile, args.property, other)
    lines = [f"{report.property}: {report.verdict}"]
    if report.note:
        lines.append(f"  note: {report.note}")
    lines.extend(_describe_witness(report.witness))
    return (1 if report.verdict == "Fails" else 0), lines


def _random_fraction(rng: random.Random, top: int = 6) -> Fraction:
    return Fraction(rng.randint(0, top), rng.randint(1, 4))


def _cmd_verify_oracle(args) -> tuple[int, list[str]]:
    rng = random.Random(args.seed)
    n = args.n
    good = 0
    first_bad = None
    for _ in range(args.trials):
        weights = MenuWeights([_random_fraction(rng) for _ in range(n - 1)])
        mu = Measure([_random_fraction(rng) for _ in range(n)])
        params = make_params(weights, mu)
        a = Permutation(rng.sample(range(1, n + 1), n))
        b = Permutation(rng.sample(range(1, n + 1), n))
        if distance(params, a, b) == distance_naive(params, a, b):
            good += 1
        elif first_bad is None:
            first_bad = (a, b, weights, mu)
    if good == args.trials:
        return 0, [f"OK {good}/{args.trials}"]
    lines = [f"FAIL {good}/{args.trials}"]
    a, b, weights, mu = first_bad
    lines.append(f"  first mismatch: a={a} b={b}")
    lines.append(f"  beta: {' '.join(fmt(v) for v in weights.values)}")
    lines.append(f"  mu: {' '.join(fmt(v) for v in mu.values)}")
    return 1, lines


def _cmd_bench(args) -> tuple[int, list[str]]:
    eps = _epsilon(args.epsilon)
    rng = random.Random(args.seed)
    n, m = args.n, args.m
    profiles = []
    for _ in range(args.trials):
        entries = tuple(
            (rng.randint(1, 3), Permutation(rng.sample(range(1, n + 1), n)))
            for _ in range(m)
        )
        profiles.append(Profile(entries, n))
    preset_names = ("kendall", "ok-nishimura", "linear")
    lines = [f"approximation ratios over {args.trials} random profiles (n={n}, m={m}, seed={args.seed})"]
    lines.append(f"{'weights':<14} {'method':<10} {'worst ratio':>12} {'bound':>8}")
    for name in preset_names:
        weights, mu = preset(name, n)
        params = make_params(weights, mu)
        gamma = approximation_factor(weights)
        depth = ptas_depth("custom", 1 / eps, n=n, weights=weights)
        worst = {"footrule": Fraction(0), "myopic": Fraction(0)}
        for profile in profiles:
            optimum = aggregate_exact(params, profile).optimum
            if optimum == 0:
                continue
            worst["footrule"] = max(
                worst["footrule"], aggregate_footrule(weights, profile).certificate / optimum
            )
            worst["myopic"] = max(
                worst["myopic"], aggregate_myopic(params, profile, depth).certificate / optimum
            )
        lines.append(f"{name:<14} {'footrule':<10} {fmt(worst['footrule']):>12} {fmt(gamma):>8}")
        bound = 1 + eps
        lines.append(f"{name:<14} {'myopic':<10} {fmt(worst['myopic']):>12} {fmt(bound):>8}")
    return 0, lines


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls (each returns a new Namespace
    # and errors go to the sys.stderr of the moment), so one parser serves all
    parser = argparse.ArgumentParser(
        prog="menurank",
        description="Menu-weighted rank distances and consensus rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, profile=False):
        p.add_argument("--params", required=True,
                       help="preset token (e.g. kendall, binomial:1/3) or params file")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        if profile:
            p.add_argument("--profile", required=True, help="profile file")

    p = sub.add_parser("dist", help="distance between two rankings")
    add_common(p)
    p.add_argument("--a", required=True, help="first ranking, e.g. '1 2 3'")
    p.add_argument("--b", required=True, help="second ranking")
    p.add_argument("--naive", action="store_true", help="use the menu-enumeration oracle")
    p.add_argument("--window", nargs=2, type=_natural, metavar=("FIRST", "LAST"),
                   help="truncate to this position window")
    p.set_defaults(run=_cmd_dist)

    p = sub.add_parser("footrule", help="footrule relaxation between two rankings")
    add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_footrule)

    p = sub.add_parser("gamma", help="footrule sandwich factor of the weights")
    add_common(p)
    p.add_argument("--n", type=_natural, help="candidate count (needed for presets)")
    p.set_defaults(run=_cmd_gamma)

    p = sub.add_parser("aggregate", help="consensus ranking(s) for a profile")
    add_common(p, profile=True)
    p.add_argument("--method", choices=("exact", "footrule", "myopic"), required=True)
    p.add_argument("--k", type=_natural, help="window depth for the myopic method")
    p.set_defaults(run=_cmd_aggregate)

    p = sub.add_parser("ptas-depth", help="window depth for a target accuracy")
    p.add_argument("--rule", choices=PTAS_RULES, required=True)
    p.add_argument("--epsilon", required=True, help="target accuracy, e.g. 1/4")
    p.add_argument("--alpha", help="base for the exponential rule")
    p.add_argument("--params", help="weights for --rule custom")
    p.add_argument("--n", type=_natural, help="horizon for --rule custom (pads the weights with zeros)")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_ptas_depth)

    p = sub.add_parser("ilp-export", help="write the consensus program in LP format")
    add_common(p, profile=True)
    p.set_defaults(run=_cmd_ilp_export)

    p = sub.add_parser("check", help="audit an axiom or a voting property")
    add_common(p)
    p.add_argument("--axiom", choices=audit_mod.AXIOMS)
    p.add_argument("--property", choices=audit_mod.PROPERTIES)
    p.add_argument("--n", type=_natural, help="candidate count for axiom checks")
    p.add_argument("--profile", help="profile file for property checks")
    p.add_argument("--profile2", help="second profile (reinforcing)")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("verify-oracle", help="closed form vs menu enumeration on random inputs")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--trials", type=_natural, default=100)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--out")
    p.set_defaults(run=_cmd_verify_oracle)

    p = sub.add_parser("bench", help="approximation-ratio table on random profiles")
    p.add_argument("--n", type=_natural, default=5)
    p.add_argument("--m", type=_natural, default=4)
    p.add_argument("--trials", type=_natural, default=10)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--out")
    p.set_defaults(run=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, output = args.run(args)
        _emit(output, getattr(args, "out", None))
    except (CliError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
