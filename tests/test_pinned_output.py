"""Byte-for-byte pins on the printed output: the CLI's consensus reports,
the audits that read consensus sets, and the demos, against SHA-256 digests
(and exit codes) recorded before the exact solver kept its consensus set as
a tight-edge DAG; the axiom audits' verdicts and witnesses, recorded
before those audits ran on rank-index tables; and two myopic windows over
more than eight candidates, recorded before the window was priced from
packed down-set counts; and exact consensus at n = 10 under the four bench
presets and under a weight numerator near 2^60 (lanes of two 64-bit
words), recorded before the term table sized its lanes from the overlap
bound; and ties over two-digit labels, recorded before the consensus set
was printed as one text block per DAG node; and neutrality audits and
mixed-sign classifications, recorded while both still enumerated
relabellings; and a Kendall window at n = 14 and a pairwise-only window
under a signed measure, recorded before the window grouped its ballots by
their down-sets within the pool."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from menurank.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"

# written to a temporary directory, then named in the argv as {name}
FILES = {
    # a ballot and its reversal, three voters each: all 5040 rankings tie
    "two_bloc.prof": "7 6\n3: 3 1 4 7 5 2 6\n3: 6 2 5 7 4 1 3\n",
    "n6.prof": "6 4\n2: 4 1 6 2 5 3\n1: 2 6 3 1 4 5\n1: 5 3 1 6 2 4\n",
    # a zero measure prices every ranking at 0: all 720 tie
    "zero_mu.params": "beta: 1 2 3 4 5\nmu: 0 0 0 0 0 0\n",
    "measure_weighted.params": "beta: 1 1 0\nmu: 1 2 3 4\n",
    # four of seven voters rank 5 first: the myopic window opens after it
    "majority_n12.prof": (
        "12 7\n1: 5 8 9 6 3 4 1 12 7 2 11 10\n1: 5 9 1 10 3 8 12 2 7 6 11 4\n"
        "1: 5 9 11 6 7 2 1 12 8 10 4 3\n1: 5 2 11 7 3 6 10 12 1 9 4 8\n"
        "1: 7 10 12 8 9 5 4 11 1 3 6 2\n1: 11 5 6 10 7 9 3 1 8 12 2 4\n"
        "1: 6 9 10 11 3 1 4 12 7 8 5 2\n"
    ),
    "n10.prof": (
        "10 8\n2: 7 1 10 2 5 9 8 6 3 4\n1: 1 7 5 4 3 8 10 6 2 9\n1: 4 6 5 10 7 9 2 1 8 3\n"
        "3: 3 4 9 5 1 10 7 6 8 2\n1: 9 1 4 5 10 3 2 6 8 7\n"
    ),
    # the two ballots differ on 7..10 alone: ties whose lines mix label widths
    "two_digit_n10.prof": "10 2\n1: 1 2 3 4 5 6 7 8 9 10\n1: 1 2 3 4 5 6 10 9 8 7\n",
    # 40 ballots, the sixth listed again as the 21st; 9 is last in seven of
    # them, and no candidate leads a majority, so the window opens at once
    "n14.prof": (
        "14 62\n"
        "2: 3 11 10 9 6 13 5 2 14 7 12 8 1 4\n2: 12 14 10 3 13 6 9 7 11 8 4 2 1 5\n"
        "1: 4 6 8 11 9 14 13 3 7 2 5 1 12 10\n1: 4 6 5 2 3 10 1 7 13 14 11 12 8 9\n"
        "2: 11 3 5 13 14 4 9 7 2 10 1 6 12 8\n2: 2 13 3 14 8 9 4 1 12 7 5 11 10 6\n"
        "1: 11 5 13 14 10 1 9 2 3 12 8 4 6 7\n2: 10 5 4 3 8 13 11 1 14 2 9 12 6 7\n"
        "1: 5 13 6 10 12 3 9 1 8 14 11 2 7 4\n2: 4 8 7 13 10 12 2 14 6 3 9 5 11 1\n"
        "1: 2 11 3 10 8 13 14 6 5 1 12 7 4 9\n1: 14 1 3 10 11 2 13 7 6 9 8 4 5 12\n"
        "2: 13 9 3 11 2 14 10 7 5 8 4 1 12 6\n2: 7 8 6 12 9 14 5 2 3 10 4 1 11 13\n"
        "1: 3 9 7 11 5 12 4 1 2 8 10 6 14 13\n1: 9 13 2 11 10 7 8 1 6 3 12 4 14 5\n"
        "2: 4 12 14 1 8 9 11 13 6 5 3 2 7 10\n2: 7 5 1 12 10 8 11 4 3 13 14 2 6 9\n"
        "1: 1 11 14 13 2 6 9 8 4 7 12 10 5 3\n2: 7 13 8 9 2 6 12 1 10 3 11 5 14 4\n"
        "2: 2 13 3 14 8 9 4 1 12 7 5 11 10 6\n2: 2 9 10 3 5 14 8 12 7 4 13 11 6 1\n"
        "2: 12 14 2 7 3 1 13 11 4 5 10 6 9 8\n1: 13 1 7 4 6 14 10 8 3 2 9 5 11 12\n"
        "2: 2 8 5 13 14 10 11 3 1 7 6 9 12 4\n1: 2 12 14 6 8 13 7 10 11 5 1 3 4 9\n"
        "1: 5 11 7 3 2 10 12 6 8 4 13 1 14 9\n1: 6 4 5 13 11 9 14 8 12 1 10 7 3 2\n"
        "2: 2 3 6 1 10 8 14 5 9 7 4 12 13 11\n2: 14 3 10 2 7 6 8 9 4 12 11 5 13 1\n"
        "1: 6 8 4 14 2 10 3 12 7 5 9 1 11 13\n2: 14 7 5 6 9 3 11 1 4 13 8 12 2 10\n"
        "2: 8 1 12 14 7 11 4 5 13 3 2 6 10 9\n1: 13 8 1 12 4 10 6 3 5 9 2 7 11 14\n"
        "1: 1 8 3 6 9 2 10 13 4 14 11 12 5 7\n2: 10 3 9 1 2 4 13 12 14 7 6 5 8 11\n"
        "2: 11 6 9 5 2 3 14 13 1 10 7 8 12 4\n1: 1 11 6 13 14 2 9 3 12 7 8 4 10 5\n"
        "2: 6 14 3 4 12 11 2 9 7 10 8 1 13 5\n1: 14 2 10 12 1 11 3 6 7 13 4 5 8 9\n"
    ),
    # pairwise-only weights that are not the Kendall preset, and a measure
    # with zero and negative entries
    "pairwise_n10.params": "beta: 3/2 0 0 0 0 0 0 0 0\nmu: 2 0 1 -1 3 0 1/2 2 -3/2 1\n",
    # a measure with a zero and a negative entry
    "signed_mu_n10.params": "beta: 1 2 0 1/2 3 1 0 2 1\nmu: 1 0 2 -1 3 1 1/2 2 1 -3/2\n",
    # the term table's row values reach about 2^68: lanes wider than 64 bits
    "wide_lanes_n10.params": (
        "beta: 1152921504606846975 -3 1/2 0 1 2 0 1 5\nmu: 1 2 0 1 3 1 1/2 2 1 1\n"
    ),
    # neutrality first fails at tau = 1 3 2 4 5, the seventh relabelling,
    # after an earlier one has repeated the measure
    "orbit_n5.prof": "5 7\n3: 3 5 1 4 2\n1: 1 2 4 5 3\n3: 5 2 1 3 4\n",
    "orbit_n5.params": "beta: 1 1 0 0\nmu: 1 1 2 2 3\n",
    # a ballot and its reversal: the witness prints sets of 16 and 36 rankings
    "reversal_n5.prof": "5 2\n1: 2 3 5 1 4\n1: 4 1 5 3 2\n",
    "reversal_n5.params": "beta: 1 2 2 1\nmu: 3 2 2 0 2\n",
    "n7.prof": (
        "7 6\n1: 3 2 4 1 5 7 6\n1: 5 1 7 2 6 3 4\n1: 4 1 2 6 3 5 7\n1: 7 5 1 2 3 6 4\n"
        "1: 1 2 7 6 4 3 5\n1: 5 1 7 3 4 6 2\n"
    ),
    # mixed-sign weights that pass both price screens: a metric, and a
    # vector whose triangle inequality fails
    "mixed_inside_n6.params": "beta: 1 1 1 1 -1/10\n",
    "mixed_outside_n6.params": "beta: 4 4 0 -3/2 -1\n",
}

CASES = {
    f"{profile}/{token}": ("aggregate", "--method", "exact", "--params", token,
                           "--profile", str(DATA / f"{profile}.prof"))
    for profile in ("ex_condorcet", "ex_cyclic", "ex_neutrality")
    for token in ("kendall", "ok-nishimura", "linear", "binomial:1/3")
}
CASES.update({
    "two-bloc-n7/kendall": ("aggregate", "--method", "exact", "--params", "kendall",
                            "--profile", "{two_bloc.prof}"),
    "n6/zero-measure": ("aggregate", "--method", "exact", "--params", "{zero_mu.params}",
                        "--profile", "{n6.prof}"),
    "ex_condorcet/footrule": ("aggregate", "--method", "footrule", "--params", "ok-nishimura",
                              "--profile", str(DATA / "ex_condorcet.prof")),
    "ex_neutrality/params-file": ("aggregate", "--method", "exact",
                                  "--params", str(DATA / "ex_neutrality.params"),
                                  "--profile", str(DATA / "ex_neutrality.prof")),
    "n6/myopic": ("aggregate", "--method", "myopic", "--k", "2", "--params", "linear",
                  "--profile", "{n6.prof}"),
    "majority-n12/myopic": ("aggregate", "--method", "myopic", "--k", "5",
                            "--params", "ok-nishimura", "--profile", "{majority_n12.prof}"),
    "n10/myopic-signed-measure": ("aggregate", "--method", "myopic", "--k", "3",
                                  "--params", "{signed_mu_n10.params}",
                                  "--profile", "{n10.prof}"),
    "n14/myopic-kendall": ("aggregate", "--method", "myopic", "--k", "4", "--params", "kendall",
                           "--profile", "{n14.prof}"),
    "n10/myopic-pairwise": ("aggregate", "--method", "myopic", "--k", "3",
                            "--params", "{pairwise_n10.params}", "--profile", "{n10.prof}"),
    "n10/exact-wide-lanes": ("aggregate", "--method", "exact",
                             "--params", "{wide_lanes_n10.params}", "--profile", "{n10.prof}"),
})
CASES.update({
    f"n10/exact-{token}": ("aggregate", "--method", "exact", "--params", token,
                           "--profile", "{n10.prof}")
    for token in ("kendall", "ok-nishimura", "linear", "binomial:1/3")
})
CASES.update({
    f"two-digit-n10/{token}": ("aggregate", "--method", "exact", "--params", token,
                               "--profile", "{two_digit_n10.prof}")
    for token in ("kendall", "ok-nishimura", "linear")
})
# the audits read the consensus sets too, and print them in their witnesses
CASES.update({
    f"check/{prop}/{profile}": ("check", "--property", prop, "--params", params,
                                "--profile", str(DATA / f"{profile}.prof"),
                                "--profile2", str(DATA / f"{other}.prof"))
    for prop in ("neutrality_P", "majority", "condorcet_P", "condorcet_W", "reinforcing",
                 "monotonicity", "blockwise_pareto", "partitionwise_pareto")
    for profile, other, params in (
        ("ex_neutrality", "ex_cyclic", str(DATA / "ex_neutrality.params")),
        ("ex_condorcet", "ex_condorcet", "ok-nishimura"),
    )
})
CASES.update({
    "check/neutrality_P/orbit-n5": ("check", "--property", "neutrality_P",
                                    "--params", "{orbit_n5.params}", "--profile", "{orbit_n5.prof}"),
    "check/neutrality_P/reversal-n5": ("check", "--property", "neutrality_P",
                                       "--params", "{reversal_n5.params}",
                                       "--profile", "{reversal_n5.prof}"),
    "check/neutrality_P/n7-counting": ("check", "--property", "neutrality_P",
                                       "--params", "ok-nishimura", "--profile", "{n7.prof}"),
    "check/majority/n6-mixed-inside": ("check", "--property", "majority",
                                       "--params", "{mixed_inside_n6.params}",
                                       "--profile", "{n6.prof}"),
    "check/majority/n6-mixed-outside": ("check", "--property", "majority",
                                        "--params", "{mixed_outside_n6.params}",
                                        "--profile", "{n6.prof}"),
})
# every axiom at n = 4, under presets and a non-counting measure
CASES.update({
    f"check/{axiom}/{name}": ("check", "--axiom", axiom, "--n", "4", "--params", token)
    for axiom in ("A1", "A2", "A3", "A4", "A5", "A6")
    for name, token in (("kendall", "kendall"), ("ok-nishimura", "ok-nishimura"),
                        ("linear", "linear"), ("measure-weighted", "{measure_weighted.params}"))
})

DIGESTS = {
    "check/A1/kendall": (0, "4e23ad7d44f2b89aaa609f4a4ba25f7b2c52c7a028e374bfbfcada8064542d66"),
    "check/A2/kendall": (0, "84ef485f2be62b7e37837dd93b27d4d14ec02dc53b3f4b81114a81222328c69b"),
    "check/A3/kendall": (0, "95f9949eb2dab9d9708649980e20bc38280e550057eb661158f46765ef1b602c"),
    "check/A4/kendall": (0, "45888021dee776f1e06a331e2208e0f23f2a5d2b970599417b828e48594a7799"),
    "check/A5/kendall": (0, "127f18d23489936675fb21b6f3e1fa1400ceb2cc4417941549ff34bb0c48026f"),
    "check/A6/kendall": (0, "b2924c2da0af8302c75315561d051a332565220471f78661056396fc9a9604e6"),
    "check/A1/ok-nishimura": (1, "53d537fd016954b578930423ae098de8a078f850eeb5ec0094c534081d0010f7"),
    "check/A2/ok-nishimura": (1, "cee56051858349e875e78c40c3504ecfd4ebd69c6c487290f7855d067c992ea5"),
    "check/A3/ok-nishimura": (0, "95f9949eb2dab9d9708649980e20bc38280e550057eb661158f46765ef1b602c"),
    "check/A4/ok-nishimura": (0, "45888021dee776f1e06a331e2208e0f23f2a5d2b970599417b828e48594a7799"),
    "check/A5/ok-nishimura": (0, "127f18d23489936675fb21b6f3e1fa1400ceb2cc4417941549ff34bb0c48026f"),
    "check/A6/ok-nishimura": (0, "b2924c2da0af8302c75315561d051a332565220471f78661056396fc9a9604e6"),
    "check/A1/linear": (1, "4d5d8d707dabdd90b10d04aa0bc5744a4207c8595b594fd76ec13e914a195040"),
    "check/A2/linear": (1, "9017245ef983737c8c74fe5325e4993ff24c1d1dd079a5a63b31c85291bf0735"),
    "check/A3/linear": (0, "95f9949eb2dab9d9708649980e20bc38280e550057eb661158f46765ef1b602c"),
    "check/A4/linear": (0, "45888021dee776f1e06a331e2208e0f23f2a5d2b970599417b828e48594a7799"),
    "check/A5/linear": (0, "127f18d23489936675fb21b6f3e1fa1400ceb2cc4417941549ff34bb0c48026f"),
    "check/A6/linear": (0, "b2924c2da0af8302c75315561d051a332565220471f78661056396fc9a9604e6"),
    "check/A1/measure-weighted": (1, "0e2e2f9559d4c51d0b62c9ffc229451e81d07d1f0472aaaaac3048321ee1045d"),
    "check/A2/measure-weighted": (1, "caa55fe49963d88fcfdd55e747da20196d57b8919ca1f9644defbe9741c60fc3"),
    "check/A3/measure-weighted": (0, "95f9949eb2dab9d9708649980e20bc38280e550057eb661158f46765ef1b602c"),
    "check/A4/measure-weighted": (0, "45888021dee776f1e06a331e2208e0f23f2a5d2b970599417b828e48594a7799"),
    "check/A5/measure-weighted": (0, "127f18d23489936675fb21b6f3e1fa1400ceb2cc4417941549ff34bb0c48026f"),
    "check/A6/measure-weighted": (0, "b2924c2da0af8302c75315561d051a332565220471f78661056396fc9a9604e6"),
    "check/blockwise_pareto/ex_condorcet": (0, "dd5c96cdefdb07461c148fe7d60e4f3f31738e79ae1949a906575e4504e25351"),
    "check/blockwise_pareto/ex_neutrality": (0, "dd5c96cdefdb07461c148fe7d60e4f3f31738e79ae1949a906575e4504e25351"),
    "check/condorcet_P/ex_condorcet": (1, "cc1e2fb8f7d036e337608b3ae552e5837032e4677fc4b315e223ac82a6d67c5d"),
    "check/condorcet_P/ex_neutrality": (0, "25af04a92c4c404aeb52890cd202f059d19e82a98c6d9fde59676e0bbc205af0"),
    "check/condorcet_W/ex_condorcet": (1, "5d545300c716423d9710502d89ef00e97efe2cbdf92ea6695fb751d0ee210129"),
    "check/condorcet_W/ex_neutrality": (0, "ff97a650a17e10392b8234173f2790f038bc0719ee81b5a29d63b79ab052d45a"),
    "check/majority/ex_condorcet": (0, "ba4e9f73a4a042cf2e1d4e86b692b504479e3f2b431391bf017dac3c34508c39"),
    "check/majority/ex_neutrality": (0, "ba4e9f73a4a042cf2e1d4e86b692b504479e3f2b431391bf017dac3c34508c39"),
    "check/majority/n6-mixed-inside": (0, "ba4e9f73a4a042cf2e1d4e86b692b504479e3f2b431391bf017dac3c34508c39"),
    "check/majority/n6-mixed-outside": (0, "73b774e9ca3ede7b30c26894712e4b1a397ac6c1c2a8ca8d903b96ef2485593e"),
    "check/monotonicity/ex_condorcet": (0, "91ce204a0151a1a1119313ee1a6562acf43515107a7a96bfe34a5703a2d4bcd9"),
    "check/monotonicity/ex_neutrality": (0, "91ce204a0151a1a1119313ee1a6562acf43515107a7a96bfe34a5703a2d4bcd9"),
    "check/neutrality_P/ex_condorcet": (0, "20a649845c36879c526304a9f304539b6e065a36251e1dc7a3437340d87a9682"),
    "check/neutrality_P/ex_neutrality": (1, "e13185f1adae8288c8913596336706c9d0e4b9a8aa85b317872c4ef5ec51668c"),
    "check/neutrality_P/n7-counting": (0, "20a649845c36879c526304a9f304539b6e065a36251e1dc7a3437340d87a9682"),
    "check/neutrality_P/orbit-n5": (1, "72469798144043084159671113ddc008b63c8679ef92f7aed29f1ee4b45d5e8d"),
    "check/neutrality_P/reversal-n5": (1, "89147fab2b9d36c11237a4945028c331d26b349d74e751bccaed6350ffb9f120"),
    "check/partitionwise_pareto/ex_condorcet": (0, "0a0ec708619a9aeecaf24fd2428cfadd7afe7efc3d7dbcfd856e6e33e62b98a5"),
    "check/partitionwise_pareto/ex_neutrality": (0, "0a0ec708619a9aeecaf24fd2428cfadd7afe7efc3d7dbcfd856e6e33e62b98a5"),
    "check/reinforcing/ex_condorcet": (0, "52f391aefb5e121714f1bbf552d6cd909bcbe3e5f96d9114183645561050f1e7"),
    "check/reinforcing/ex_neutrality": (0, "52f391aefb5e121714f1bbf552d6cd909bcbe3e5f96d9114183645561050f1e7"),
    "ex_condorcet/binomial:1/3": (0, "b4b3a53f28e011165afa501d6ff7094bdd2b5e9b292c487eafca0e3b8d7d01c0"),
    "ex_condorcet/footrule": (0, "9ebea31cf250fb5b523ba96c12fcaa7fdf4124818b6a4ea7609f5323860d0089"),
    "ex_condorcet/kendall": (0, "2294c47bca5dc36030faccdea44b62ac340194663a2da525bf16430f8068413a"),
    "ex_condorcet/linear": (0, "3049e7045372b49d555d25b0c360ec3a06a4b7dc7cc91d7c13c8b95ca306ff00"),
    "ex_condorcet/ok-nishimura": (0, "4645ffed1a71f167e87938c8fef9a3a3ae1054f4df2d187f32f996fc32f22f0f"),
    "ex_cyclic/binomial:1/3": (0, "4172ad0647309a9bd248f29c5836c2fee707ff02271b46974fda58097f8a704d"),
    "ex_cyclic/kendall": (0, "1fae4f93d9a870c8827e3c9521525619bdc7173f8fa18c27d9b47bc10c99c6c6"),
    "ex_cyclic/linear": (0, "0308a762ef6b1b34eaec5c8d3fb685973e24b881005ff5a48acca0c98a653d43"),
    "ex_cyclic/ok-nishimura": (0, "24f8982e5e7226ee6eae66f7cc5cb48c08ed800a5656424709ac5772c34606d5"),
    "ex_neutrality/binomial:1/3": (0, "4172ad0647309a9bd248f29c5836c2fee707ff02271b46974fda58097f8a704d"),
    "ex_neutrality/kendall": (0, "1fae4f93d9a870c8827e3c9521525619bdc7173f8fa18c27d9b47bc10c99c6c6"),
    "ex_neutrality/linear": (0, "0308a762ef6b1b34eaec5c8d3fb685973e24b881005ff5a48acca0c98a653d43"),
    "ex_neutrality/ok-nishimura": (0, "24f8982e5e7226ee6eae66f7cc5cb48c08ed800a5656424709ac5772c34606d5"),
    "ex_neutrality/params-file": (0, "2f9367ddf3cc3ef44df4dbe527314e9fa0fed4b9b821d6b88214263e060f686c"),
    "majority-n12/myopic": (0, "3fd95e619777a719801d9ea954326dada6a679fe1b5d40e60b7cef53f82d77bb"),
    "n10/exact-binomial:1/3": (0, "a1598ed3bdeff7c559062928f6603ffcd98ea84f9662fb00748648f91b597537"),
    "n10/exact-kendall": (0, "c9b33b03255db494341f0f040d7f81ea886f5360036c926d842767b33ef100a8"),
    "n10/exact-linear": (0, "438819b00c938fcdab199dc9c0772bd882b97c3ea1c8be28ee415816918e3b3c"),
    "n10/exact-ok-nishimura": (0, "5f735dfd5953486f28cf15ffc1abbbe849a548c9c28ac1ca6f6ab9845d1f18df"),
    "n10/exact-wide-lanes": (0, "b42609a7691532b097a391c6a834709ed9926be7b2fe684f4ceeadcecea805f4"),
    "n10/myopic-signed-measure": (0, "a4dec256202050f9336a6923ed032b8e42bd190424b15103447507b293418dc9"),
    "n10/myopic-pairwise": (0, "b20c133e6bf1ef9e4dde390473573f47618845848fca75cab39a00102b124c97"),
    "n14/myopic-kendall": (0, "7cd4853340f7f8e0b2b74bb6e2e678b7bc22420cfd4da10de22e6089b529062a"),
    "n6/myopic": (0, "cbf9d2043f61b9c6388cc90d2a8f098ffbd7c9251b0dd8ef301edec70717756d"),
    "n6/zero-measure": (0, "6a94d74e1ca860207840e5e194919f2b92a7e8df20621d8eb434ff810dd42d83"),
    "two-bloc-n7/kendall": (0, "a274ad738187edb6e67405c61c38ba0f475dd894450c4111ed453e4480317b6e"),
    "two-digit-n10/kendall": (0, "5a9fdbf699d32f7bf8ba0fd58ffb8ac1cd4a61c6e209be9031bf323265cc9f58"),
    "two-digit-n10/linear": (0, "3452355a55f8c46ed28760238ac0d1c67a585f9adf9ac4ab1ef3a165e77ba748"),
    "two-digit-n10/ok-nishimura": (0, "ba8458251b3e85538daa905b8fbc5d5003671513db2a5d2e3fd81ae2c54dd380"),
}

DEMO_DIGESTS = {
    "01_distances.py": "46101e264bee70145410d81d9122f3a4f4c475cb509c8715d7def11fe800255a",
    "02_parameter_space.py": "8809388aa0e3abf750d014fb1b7c5594c4890b4cb281afc02b5b8e8f62c4ed94",
    "03_consensus.py": "bfb4a0924c2493e5a3eb26f6d3f4490d51bb12d75cd243bf48a1a54f1bf060ea",
    "04_axioms_and_properties.py": "936042e6cdb08552ed79583689f1d810ea1c51fbd544f9a2ec80f5ab5b0faac3",
    "05_integer_program.py": "d271892263c6d8de9e442928d456e5c01876d3643e4fb5d335951e3f95238e68",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return {name: str(root / name) for name in FILES}


def cli_output(argv, files) -> tuple[int, bytes]:
    argv = [files[tok[1:-1]] if tok[:1] == "{" else tok for tok in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(files, name):
    code, text = cli_output(CASES[name], files)
    assert (code, hashlib.sha256(text).hexdigest()) == DIGESTS[name]


def test_tie_heavy_cases_print_every_ranking(files):
    for name, count in (("two-bloc-n7/kendall", 5040), ("n6/zero-measure", 720),
                        ("two-digit-n10/kendall", 24), ("two-digit-n10/linear", 8),
                        ("two-digit-n10/ok-nishimura", 8)):
        lines = cli_output(CASES[name], files)[1].decode().splitlines()
        assert lines[1] == f"minimizers ({count}):"
        assert len(set(lines[2:2 + count])) == count


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_is_byte_identical(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_DIGESTS[demo]


def test_every_demo_is_pinned():
    assert sorted(DEMO_DIGESTS) == sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
