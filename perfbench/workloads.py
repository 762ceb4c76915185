"""Workload definitions: seeded inputs, operations and their answer checks.

A workload is a closed loop run by one client in one thread.  Its inputs are
generated here from the run seed; the library only ever sees the generated
labels, seeds and matrices.  Work is grouped into jobs: a job is a fixed-size
list of operations whose inputs come from ``random.Random(job_seed(seed, k))``,
so the same run seed always produces the same jobs, and job k never depends
on how many jobs a run completed before it.

An operation is a library call and a check of its result.  Only the call is
timed.  A check that returns anything but True, or an exception in either,
counts the operation as failed; it never aborts a run.
"""

from __future__ import annotations

import bisect
import hashlib
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from collections import Counter
from functools import partial
from itertools import accumulate, combinations, product
from typing import Callable

from tnncompact import cells, serialize, strata, tnn, weyl
from tnncompact.matgroup import GroupMatrix

# The n=4 census as written by `tnncompact enumerate --n 4`: cell count,
# alternating sum of (-1)^dim and the SHA-256 of the JSON bytes.
CENSUS_N4 = {
    "count": 109729,
    "alternating_sum": 1,
    "sha256": "de9095a769e115f084ea060c81d57904c726f77a4759c7ebc26747099566ed84",
}

# Operations per rank in one job, taken from what tier-1 (tests/, with the
# acceptance suites at n=3) calls; traffic.py counts those calls.  A job has
# exactly these counts, spread evenly, so the share of each rank in a run does
# not move with the seed.
#   atlas: tests/test_cells.py round-trips 60 random labels at n=3 and 12 at
#     n=4.  These are tier-1's only round trips at n=4; counting the
#     acceptance round trips too (3,595 sample_cell calls at n=3 against 12)
#     would leave no n=4 operation in a job.
#   certify: tier-1 takes 80 torus limits at n=3 and 5 at n=4.  Nothing in
#     tier-1 certifies at n=5; its 5 ops, as many as n=4's, keep the n=5
#     all-minors test in the workload.  Tier-1's one n=4 limit of positive
#     data has no zero exponent, c = (1, 1, 1), and neither do these.
#   census: tier-1 checks the Jacobian rank of all 685 labels at n=3 and of
#     25 at n=4, that is 137 to 5.
ATLAS_MIX = {3: 60, 4: 12}
CERTIFY_MIX = {3: 80, 4: 5, 5: 5}
JACOBIAN_MIX = {3: 137, 4: 5}


def job_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def interleave(mix: dict[int, int]) -> list[int]:
    """The ranks of one job: mix[n] of each n, each spread evenly over it."""
    slots = sorted(((i + 0.5) / k, n) for n, k in mix.items() for i in range(k))
    return [n for _, n in slots]


def is_true(result) -> bool:
    return result is True


def expect(expected) -> Callable[[object], bool]:
    """A check that the result equals expected."""
    return partial(operator.eq, expected)


@dataclass(frozen=True)
class Op:
    """One operation: the library call ``fn(*args)``, timed, and then
    ``check(result)``, not timed, which is True iff the answer is correct.

    ``sampled`` ops enter the latency quantiles; the census export does not,
    because it is a whole job stage of seconds, not a per-request latency.
    """

    kind: str
    fn: Callable
    args: tuple
    check: Callable[[object], bool] = is_true
    sampled: bool = True


# ---------------------------------------------------------------------------
# input generators


class LabelSampler:
    """Seeded draws from the nonempty cell labels of PGL_n.

    Built one stratum at a time, so n=4 needs no census: each stratum J keeps
    its Bruhat pairs (v, w) in W^J and its Levi group W_J, and a label is two
    pairs and two Levi elements.  ``draw`` is uniform over all labels.

    The work of an operation grows with the cell dimension, so a job's cost
    varies with the dimensions it happens to draw.  ``stratified`` fixes the
    dimensions instead, at evenly spaced quantiles of the exact dimension
    distribution, and draws a uniform label of each: every job then has the
    same mix of sizes, and the seed still picks the labels.
    """

    def __init__(self, n: int):
        self.strata = []
        dims: Counter = Counter()
        for r in range(n):
            for js in combinations(range(1, n), r):
                J = weyl.ParabolicSubset.of(n, js)
                reps = J.min_coset_reps()
                pairs = [(v, w) for v in reps for w in reps if weyl.bruhat_leq(v, w)]
                levi = [w for w in weyl.all_weyl(n) if J.contains_w(w)]
                self.strata.append((J, pairs, levi))
                # dimension = gap + gap' + 2 l(w^J_0) + |J| - l(y) - l(y')
                base = 2 * J.longest_element().length + len(J.J)
                gaps = Counter(w.length - v.length for v, w in pairs)
                ys = Counter(y.length for y in levi)
                for (g1, c1), (g2, c2), (y1, c3), (y2, c4) in product(
                    gaps.items(), gaps.items(), ys.items(), ys.items()
                ):
                    dims[base + g1 + g2 - y1 - y2] += c1 * c2 * c3 * c4
        self.cumulative = list(
            accumulate(len(p) ** 2 * len(l) ** 2 for _, p, l in self.strata)
        )
        self.dim_values = sorted(dims)
        self.dim_cumulative = list(accumulate(dims[d] for d in self.dim_values))

    @property
    def total(self) -> int:
        return self.cumulative[-1]

    def draw(self, rng: random.Random) -> cells.CellLabel:
        k = bisect.bisect_right(self.cumulative, rng.randrange(self.total))
        J, pairs, levi = self.strata[k]
        v, w = rng.choice(pairs)
        vp, wp = rng.choice(pairs)
        return cells.CellLabel(J, v, w, vp, wp, rng.choice(levi), rng.choice(levi))

    def stratified(self, rng: random.Random, count: int) -> list[cells.CellLabel]:
        """count labels, the i-th of the dimension at quantile (i + 1/2)/count,
        in a seeded random order."""
        out = []
        for i in range(count):
            rank = (2 * i + 1) * self.total // (2 * count)
            d = self.dim_values[bisect.bisect_right(self.dim_cumulative, rank)]
            while True:  # rejection: uniform among the labels of dimension d
                label = self.draw(rng)
                if cells.dimension_of(label) == d:
                    out.append(label)
                    break
        rng.shuffle(out)
        return out


def _pos(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 6))


def positive_matrix(n: int, rng: random.Random) -> GroupMatrix:
    """An element of G_{>0}: y-word(w0) · torus · x-word(w0) with positive
    coordinates, built by column operations on exact rationals."""
    word = [i for k in range(1, n) for i in range(k, 0, -1)]  # reduced for w0
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in word:  # right factor y_i(a): column i-1 += a * column i
        a = _pos(rng)
        for row in m:
            row[i - 1] += a * row[i]
    t = [_pos(rng) for _ in range(n - 1)]
    diag = [t[0]] + [t[k] / t[k - 1] for k in range(1, n - 1)] + [1 / t[-1]]
    m = [[x * d for x, d in zip(row, diag)] for row in m]
    for i in word:  # right factor x_i(a): column i += a * column i-1
        a = _pos(rng)
        for row in m:
            row[i] += a * row[i - 1]
    return GroupMatrix(tuple(tuple(row) for row in m))


# ---------------------------------------------------------------------------
# operations


def roundtrip(label: cells.CellLabel, seed: int) -> cells.CellLabel:
    """Sample a point of the cell and classify it."""
    _, z = cells.sample_cell(label, seed)
    return cells.classify(z)


def certify(
    g1: GroupMatrix,
    g2: GroupMatrix,
    c: tuple[int, ...] | None = None,
    h1: GroupMatrix | None = None,
    h2: GroupMatrix | None = None,
) -> tuple:
    """Whether the pair is strictly positive; with exponents c also the
    stratum of the Laurent-verified torus limit (torus_limit raises on a
    mismatch) and, with a retraction pair, whether the retracted limit is in
    the positive part."""
    out = [tnn.is_totally_positive(g1) and tnn.is_totally_positive(g2)]
    if c is not None:
        z = strata.torus_limit(g1, c, g2)
        out.append(sorted(z.J.J))
        if h1 is not None:
            out.append(strata.membership_Zgt0(strata.positive_retraction(h1, h2, z)))
    return tuple(out)


def certificate(c: tuple[int, ...] | None, retract: bool) -> tuple:
    """The correct result of certify: positive, in the stratum J = {i : c_i = 0},
    and positive after retraction."""
    if c is None:
        return (True,)
    J = [i + 1 for i, x in enumerate(c) if x == 0]
    return (True, J, True) if retract else (True, J)


def census_export() -> tuple[dict, str]:
    """`tnncompact enumerate --n 4`: the census as JSON data and its text."""
    data = serialize.cells_to_json(4)
    return data, serialize.dumps(data)


def census_matches(result: tuple[dict, str]) -> bool:
    """The export's count, alternating sum and digest are CENSUS_N4's."""
    data, text = result
    return (
        data["count"] == CENSUS_N4["count"]
        and sum((-1) ** c["dim"] for c in data["cells"]) == CENSUS_N4["alternating_sum"]
        and hashlib.sha256(text.encode()).hexdigest() == CENSUS_N4["sha256"]
    )


# ---------------------------------------------------------------------------
# workloads


def stratified_labels(
    samplers: dict[int, LabelSampler], ranks: list[int], rng: random.Random
) -> list[cells.CellLabel]:
    """One label per entry of ranks, stratified by dimension within each rank."""
    pools = {n: iter(samplers[n].stratified(rng, ranks.count(n))) for n in sorted(samplers)}
    return [next(pools[n]) for n in ranks]


class Atlas:
    """Seeded sample -> classify round trips at n=3 and n=4."""

    min_jobs = 1

    def __init__(self):
        self.labels = {n: LabelSampler(n) for n in ATLAS_MIX}

    def job(self, rng: random.Random) -> list[Op]:
        return [
            Op(f"roundtrip.n{label.J.n}", roundtrip, (label, rng.randrange(2**31)), expect(label))
            for label in stratified_labels(self.labels, interleave(ATLAS_MIX), rng)
        ]


class Certify:
    """Positivity certificates: TP pairs at n=5, verified torus limits at n=4,
    limits into J={1} or {2} plus a positive retraction at n=3.

    The n=4 ops are the slowest 5 of a job's 90, so the p95 falls among their
    cheapest tenth, whose cost varies with the input; a run takes at least
    12 jobs so that 60 n=4 ops place it.
    """

    min_jobs = 12
    # Strata whose membership test takes the entrywise route at n=3.
    n3_exponents = ((0, 1), (0, 2), (1, 0), (2, 0))

    def job(self, rng: random.Random) -> list[Op]:
        ops = []
        for n in interleave(CERTIFY_MIX):
            pair = (positive_matrix(n, rng), positive_matrix(n, rng))
            if n == 5:
                c, args = None, pair
            elif n == 4:
                c = tuple(rng.randint(1, 2) for _ in range(3))
                args = pair + (c,)
            else:
                c = rng.choice(self.n3_exponents)
                args = pair + (c, positive_matrix(n, rng), positive_matrix(n, rng))
            ops.append(Op(f"certify.n{n}", certify, args, expect(certificate(c, n == 3))))
        return ops


class Census:
    """The n=4 census export, then Jacobian-rank dimension checks.

    The export is one operation of seconds whose time varies more than the
    short ones, so a run takes the median over at least four jobs.
    """

    min_jobs = 4

    def __init__(self):
        self.labels = {n: LabelSampler(n) for n in JACOBIAN_MIX}

    def job(self, rng: random.Random) -> list[Op]:
        ranks = interleave(JACOBIAN_MIX)
        return [Op("export.n4", census_export, (), census_matches, sampled=False)] + [
            Op(f"jacobian.n{label.J.n}", cells.jacobian_rank_check, (label, rng.randrange(2**31)))
            for label in stratified_labels(self.labels, ranks, rng)
        ]


WORKLOADS = {"atlas": Atlas, "certify": Certify, "census": Census}
