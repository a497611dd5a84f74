"""Seeded job lists for the zetalab benchmark.

A job is one in-process `zetalab.cli.main(argv)` call, or one call of a
public library function that no CLI path reaches (`ffield.count_points`
over an extension field).  The program sees only the generated argv.

Every list is stratified: a workload fixes how many jobs fall in each band
of the input properties that set the cost (p, p^ext, pmax, skew, t), and
the seed only picks the instances inside each band.  That keeps the
run-to-run spread of the end-to-end metrics small across seeds.

Jobs whose outputs are compared with goldens recorded at one commit are
drawn from fixed pools built from POOL_SEED; the run seed picks pool
entries.  Jobs checked by an independent oracle (extension-field counts,
skewed lattices against their base lattice, xi against mpmath) are drawn
from the run seed directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

POOL_SEED = 111241
ZEROS_PATH = "perfbench/zeros100.txt"

# the workloads BENCHMARK.json declares; no job of theirs fails at the
# commit that defined the benchmark
WORKLOADS = ("ff_curves", "euler", "q_lattice")
# xi_high runs only xi jobs high on the critical line, where the known
# defect in checks.KNOWN_DEFECTS shows; it is not a timed workload
EXTRA_WORKLOADS = ("xi_high",)
# how closely a workload's job times follow the speed probe (see speed.py);
# 1 where not listed.  euler's point counts run in numpy: in ten runs
# scaled fully, the runs made in fast spells read 10% slower than the
# others, and 0.8 gave the smallest run-to-run spread on recorded runs.
SPEED_SENSITIVITY = {"euler": 0.8}


@dataclass
class Job:
    """One benchmark job: `argv[0]` names the CLI subcommand, or the library
    function when `library` is set.  `band` names the stratum it was drawn
    from; `info` holds what the output checks need."""

    argv: tuple[str, ...]
    band: str
    library: bool = False
    info: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def arg(self, flag: str) -> str:
        """Value of a CLI flag, in either `--flag value` or `--flag=value` form."""
        for i, a in enumerate(self.argv):
            if a == flag:
                return self.argv[i + 1]
            if a.startswith(flag + "="):
                return a[len(flag) + 1:]
        raise KeyError(flag)


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primes(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi."""
    return [p for p in range(lo, hi) if is_prime(p)]


def _log_strata(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    edges = [lo * (hi / lo) ** (j / n) for j in range(n + 1)]
    return list(zip(edges, edges[1:]))


def _nonsingular_mod_p(rng: random.Random, p: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a ** 3 + 27 * b ** 2) % p:
            return a, b


def curve_spec(a: int, b: int) -> str:
    return f"y2=x3+{a}*x+{b}"


# ---------------------------------------------------------------------------
# ff_curves: curves over F_p through artin/nazeta/census/mass/allbundles/
# explicit-ff, a few big-p censuses, and extension-field point counts

# One curve per prime, drawn from a pool of SMALL_POOL_PER_PRIME curves.
# The primes are fixed so that the mix of p, which sets the small jobs'
# cost, is the same in every list.
SMALL_PRIMES = (11, 29, 43, 59, 71, 89)
SMALL_POOL_PER_PRIME = 4
# The big-p descent censuses are one fixed curve per log stratum of
# BIG_RANGE, ranks alternating.  Their cost depends on the curve's group
# structure as much as on p (0.2 s to 1.9 s at p ~ 650-830), so drawing
# them per seed would dominate the seed-to-seed spread of wall_s.
BIG_RANGE = (500, 1100)
BIG_STRATA = 2
# count_points(curve, ext) fields, p^ext in [2.9e4, 4e4]; A, B are seeded
EXT_FIELDS = ((2, (191, 193, 197, 199)), (3, (31,)))
EXPLICIT_FF_COUNT = 4


def _curve_jobs(p: int, a: int, b: int, ff_seed: int, band: str) -> list[Job]:
    """The fourteen CLI jobs run on one small-p curve."""
    base = ("--curve", curve_spec(a, b), "--p", str(p))
    info = {"p": p, "a": a, "b": b}
    argvs = [("artin",) + base]
    for rank in (1, 2, 3):
        for conv in ("paper", "descent"):
            argvs.append(("nazeta",) + base + ("--rank", str(rank), "--convention", conv))
    for rank in (2, 3):
        for conv in ("paper", "descent"):
            argvs.append(("census",) + base + ("--rank", str(rank), "--convention", conv))
    argvs.append(("mass",) + base)
    argvs.append(("allbundles",) + base)
    argvs.append(("explicit-ff",) + base
                 + ("--count", str(EXPLICIT_FF_COUNT), "--seed", str(ff_seed)))
    return [Job(argv, band, info=info) for argv in argvs]


def small_curve_pool() -> list[list[tuple[int, int, int, int]]]:
    """Per small prime, SMALL_POOL_PER_PRIME curves (p, A, B, explicit-ff seed)."""
    rng = random.Random(POOL_SEED * 10 + 1)
    pool = []
    for p in SMALL_PRIMES:
        entries = []
        while len(entries) < SMALL_POOL_PER_PRIME:
            a, b = _nonsingular_mod_p(rng, p)
            if all((a, b) != e[1:3] for e in entries):
                entries.append((p, a, b, rng.randrange(1000)))
        pool.append(entries)
    return pool


def big_jobs() -> list[Job]:
    rng = random.Random(POOL_SEED * 10 + 2)
    jobs = []
    for j, (lo, hi) in enumerate(_log_strata(*BIG_RANGE, BIG_STRATA)):
        p = rng.choice(_primes(math.ceil(lo), math.ceil(hi)))
        a, b = _nonsingular_mod_p(rng, p)
        argv = ("census", "--curve", curve_spec(a, b), "--p", str(p),
                "--rank", str(2 + j % 2), "--convention", "descent")
        jobs.append(Job(argv, "p500-1100", info={"p": p, "a": a, "b": b}))
    return jobs


def ff_pool_jobs() -> list[Job]:
    """Every golden-checked job any seed can draw."""
    jobs = []
    for entries in small_curve_pool():
        for p, a, b, s in entries:
            jobs += _curve_jobs(p, a, b, s, f"p{p}")
    return jobs + big_jobs()


def _ext_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for e, primes in EXT_FIELDS:
        p = rng.choice(primes)
        a, b = _nonsingular_mod_p(rng, p)
        jobs.append(Job(("count_points", str(p), str(a), str(b), str(e)), f"ext.e{e}",
                        library=True, info={"p": p, "a": a, "b": b, "ext": e}))
    return jobs


def ff_curves(seed: int, scale: float = 1.0) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for entries in small_curve_pool()[:_count(len(SMALL_PRIMES), scale)]:
        p, a, b, s = rng.choice(entries)
        jobs += _curve_jobs(p, a, b, s, f"p{p}")
    jobs += big_jobs()[:_count(BIG_STRATA, scale)]
    jobs += _ext_jobs(rng)[:_count(len(EXT_FIELDS), scale)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# euler: partial Euler products over many small primes

EULER_TYPES = ((1, "paper"), (1, "descent"), (2, "paper"), (2, "descent"))
PMAX_RANGE = (1_000, 20_000)
EULER_STRATA = 10
# pmax sits within this fraction of its stratum's log-midpoint: a job's cost
# grows with pmax, and pmax drawn across the whole stratum made wall_s and
# job_p50_ms vary 10-16% from seed to seed
EULER_PMAX_JITTER = 0.02
EULER_POOL_PER_STRATUM = 3
EULER_THREADS = 2


def _global_curve(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if 4 * a ** 3 + 27 * b ** 2:
            return a, b


def euler_pool() -> dict[tuple[int, int], list[tuple]]:
    """(type index, stratum) -> candidate (A, B, pmax, s) inputs."""
    rng = random.Random(POOL_SEED * 10 + 3)
    pool = {}
    strata = _log_strata(*PMAX_RANGE, EULER_STRATA)
    for t in range(len(EULER_TYPES)):
        for j, (lo, hi) in enumerate(strata):
            entries = []
            for _ in range(EULER_POOL_PER_STRATUM):
                a, b = _global_curve(rng)
                jitter = rng.uniform(-EULER_PMAX_JITTER, EULER_PMAX_JITTER)
                pmax = int(math.sqrt(lo * hi) * (1 + jitter))
                s = f"{rng.uniform(2.2, 4.0):.3f}{rng.uniform(-10.0, 10.0):+.3f}j"
                entries.append((a, b, pmax, s))
            pool[(t, j)] = entries
    return pool


def _euler_job(t: int, j: int, entry: tuple, threads: int) -> Job:
    a, b, pmax, s = entry
    rank, conv = EULER_TYPES[t]
    argv = ("euler", "--A", str(a), "--B", str(b), "--rank", str(rank),
            f"--s={s}", "--pmax", str(pmax), "--convention", conv,
            "--threads", str(threads))
    return Job(argv, f"pmax.s{j}", info={"A": a, "B": b, "pmax": pmax})


def euler_pool_jobs() -> list[Job]:
    return [_euler_job(t, j, e, 1)
            for (t, j), entries in euler_pool().items() for e in entries]


def euler(seed: int, scale: float = 1.0) -> list[Job]:
    """One job per (rank/convention type, pmax stratum); in each stratum one
    of the four types runs at --threads 2, in turn, so a quarter of the jobs
    do."""
    rng = random.Random(seed)
    pool = euler_pool()
    jobs = []
    for j in range(_count(EULER_STRATA, scale)):
        threaded = j % len(EULER_TYPES)
        for t in range(len(EULER_TYPES)):
            threads = EULER_THREADS if t == threaded else 1
            jobs.append(_euler_job(t, j, rng.choice(pool[(t, j)]), threads))
    rng.shuffle(jobs)
    return jobs


def golden_key(job: Job) -> str:
    """Golden outputs do not depend on --threads (results are byte-identical
    across thread counts), so the key drops it."""
    argv = list(job.argv)
    if "--threads" in argv:
        i = argv.index("--threads")
        del argv[i:i + 2]
    return " ".join(argv)


# ---------------------------------------------------------------------------
# q_lattice: lattices over Q, theta, xi and the number-field explicit formula

F = Fraction
# reduced base lattices, as basis matrices whose columns are the basis
# vectors; covolume^2 lies in [1, 9]
BASES = {
    2: {
        "Z2": ((1, 0), (0, 1)),
        "hex": ((1, F(1, 2)), (0, 1)),
        "split": ((2, 0), (0, F(1, 2))),
        "rect": ((1, 0), (0, 3)),
        "tilt": ((F(3, 2), F(1, 2)), (0, 1)),
    },
    3: {
        "Z3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        "split": ((2, 0, 0), (0, 1, 0), (0, 0, F(1, 2))),
        "chain": ((1, F(1, 2), 0), (0, 1, F(1, 2)), (0, 0, 1)),
        "flag": ((1, 0, 0), (0, 1, 0), (0, 0, 3)),
        "mixed": ((2, 1, 0), (0, 1, 0), (0, 0, F(1, 2))),
    },
}
# rank-4 Gram matrices for theta
GRAMS4 = {
    "Z4": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "split4": ((F(1, 2), 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)),
}
# The skew of a basis is the number of coefficient vectors in the boxes
# |x_i| <= sqrt(m (G^-1)_ii), m the shortest basis vector's squared length,
# that an enumeration in the given basis searches for a shortest vector of
# the lattice, plus the same count for the dual basis.  It is a property of
# the input, not of the lattice: reduced bases have small skew.  Low-skew
# jobs have skew <= LOW_SKEW_MAX; skewed jobs are stratified in log skew.
LOW_SKEW_MAX = {2: 200.0, 3: 400.0, 4: 2_000.0}
SKEWED_RANGE = {2: (400.0, 5_000.0), 3: (400.0, 1_600.0)}
SHEAR_K = {2: (5, 200), 3: (2, 12)}
SKEW_TRIES = 2000   # then the candidate closest to the stratum is taken
# xi jobs of q_lattice stay below t = 60: above t ~ 73 xi_q is off by more
# than the check allows (checks.KNOWN_DEFECTS); xi_high covers [60, 100]
XI_T = (0.0, 60.0)
XI_HIGH_T = (60.0, 100.0)
NF_K = (25, 50, 100)
NF_SHAPES = ((0.1, 0.05), (0.0, 0.1))

Q_COUNTS = {
    "lattice_low": (10, 14),      # (rank 2, rank 3)
    "lattice_skewed": (4, 24),
    "theta_low": (6, 6),
    "theta_skewed": (4, 4),
    "theta_rank4": 3,
    "xi": 16,
    "explicit_nf": 2,
}


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _transpose(a):
    return tuple(zip(*a))


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n))
                 for i in range(n))


def _lower_unitriangular(rng: random.Random, n: int):
    """Unit lower-triangular, entries below the diagonal in {-1, 0, 1}."""
    return tuple(tuple(1 if i == j else rng.randint(-1, 1) if i > j else 0
                       for j in range(n)) for i in range(n))


def _shear(n: int, k: int):
    if n == 2:
        return ((1, 0), (k, 1))
    return ((1, 0, 0), (k, 1, 0), (k * k + 1, k, 1))


def low_skew_unimodular(rng: random.Random, n: int):
    return _mat_mul(_signed_permutation(rng, n), _lower_unitriangular(rng, n))


def skewed_unimodular(rng: random.Random, n: int, k: int):
    return _mat_mul(_signed_permutation(rng, n),
                    _mat_mul(_shear(n, k), low_skew_unimodular(rng, n)))


def fmt_rat(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_spec(m) -> str:
    return " / ".join(" ".join(fmt_rat(x) for x in row) for row in m)


def det(m) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def _inverse_diagonal(gram) -> list[Fraction]:
    n = len(gram)
    d = det(gram)
    if n == 1:
        return [1 / Fraction(d)]
    return [det([[gram[r][c] for c in range(n) if c != i] for r in range(n) if r != i]) / d
            for i in range(n)]


def skew(gram) -> float:
    """Enumeration box count of the basis plus that of its dual basis."""
    n = len(gram)
    diag = [Fraction(gram[i][i]) for i in range(n)]
    inv = _inverse_diagonal(gram)

    def box(shortest, widths):
        return math.prod(2 * math.sqrt(float(shortest * w)) + 1 for w in widths)

    return box(min(diag), inv) + box(min(inv), diag)


def base_job(command: str, rank: int, name: str) -> Job:
    """The job on an unskewed base lattice; its golden output is the
    expected output of every job on a skewed basis of the same lattice."""
    if rank == 4:
        argv = (command, "--gram", matrix_spec(GRAMS4[name]))
    else:
        argv = (command, "--lattice", matrix_spec(BASES[rank][name]))
    return Job(argv, "base", info={"rank": rank, "base": name})


def base_jobs() -> list[Job]:
    jobs = [base_job(c, r, name) for c in ("lattice", "theta")
            for r in (2, 3) for name in BASES[r]]
    return jobs + [base_job("theta", 4, name) for name in GRAMS4]


def nf_pool_jobs() -> list[Job]:
    return [_nf_job(k, mu, sigma) for k in NF_K for mu, sigma in NF_SHAPES]


def _nf_job(k: int, mu: float, sigma: float) -> Job:
    argv = ("explicit-nf", "--zeros", ZEROS_PATH, "--K", str(k),
            "--mu", str(mu), "--sigma", str(sigma))
    return Job(argv, f"K{k}")


def _gram(rank: int, name: str, u):
    if rank == 4:
        return _mat_mul(_transpose(u), _mat_mul(GRAMS4[name], u))
    basis = _mat_mul(BASES[rank][name], u)
    return _mat_mul(_transpose(basis), basis)


def _lattice_job(rng, command, rank, name, stratum) -> Job:
    """A job on base lattice `name` in a random basis: low skew when
    `stratum` is None, else skew inside the given (lo, hi) stratum."""
    lo, hi = stratum or (1.0, LOW_SKEW_MAX[rank])
    mid = math.sqrt(lo * hi)
    best = None
    for _ in range(SKEW_TRIES):
        if stratum is None:
            u = low_skew_unimodular(rng, rank)
        else:
            u = skewed_unimodular(rng, rank, rng.randint(*SHEAR_K[rank]))
        value = skew(_gram(rank, name, u))
        if lo <= value <= hi:
            break
        if best is None or abs(math.log(value / mid)) < abs(math.log(best[1] / mid)):
            best = (u, value)
    else:
        u, value = best
    if rank == 4:
        argv = (command, "--gram", matrix_spec(_gram(rank, name, u)))
    else:
        argv = (command, "--lattice", matrix_spec(_mat_mul(BASES[rank][name], u)))
    return Job(argv, "low_skew" if stratum is None else "skewed",
               info={"rank": rank, "base": name, "skew": value})


def q_lattice(seed: int, scale: float = 1.0) -> list[Job]:
    rng = random.Random(seed)
    jobs = []

    def names(rank, n):
        order = list(BASES[rank] if rank < 4 else GRAMS4)
        rng.shuffle(order)
        return [order[i % len(order)] for i in range(n)]

    for command, key in (("lattice", "lattice_low"), ("theta", "theta_low")):
        for rank, n in zip((2, 3), Q_COUNTS[key]):
            for name in names(rank, _count(n, scale)):
                jobs.append(_lattice_job(rng, command, rank, name, None))
    for command, key in (("lattice", "lattice_skewed"), ("theta", "theta_skewed")):
        for rank, n in zip((2, 3), Q_COUNTS[key]):
            n = _count(n, scale)
            strata = _log_strata(*SKEWED_RANGE[rank], n)
            for i, name in enumerate(names(rank, n)):
                jobs.append(_lattice_job(rng, command, rank, name, strata[i]))
    for name in names(4, _count(Q_COUNTS["theta_rank4"], scale)):
        jobs.append(_lattice_job(rng, "theta", 4, name, None))

    jobs += _xi_jobs(rng, XI_T, _count(Q_COUNTS["xi"], scale))

    # K = 100 always runs in the first shape: its micro-model mesh (460 MB)
    # sets the workload's peak memory, 200 MB in the other shape
    nf = [(NF_K[-1], NF_SHAPES[0]), (rng.choice(NF_K[:-1]), rng.choice(NF_SHAPES))]
    for k, shape in nf[:_count(Q_COUNTS["explicit_nf"], scale)]:
        jobs.append(_nf_job(k, *shape))
    rng.shuffle(jobs)
    return jobs


def _xi_jobs(rng: random.Random, t_range: tuple[float, float], n: int) -> list[Job]:
    """n xi jobs at s = sigma + it, t stratified over t_range."""
    lo, hi = t_range
    jobs = []
    for j in range(n):
        t = lo + (hi - lo) * (j + rng.random()) / n
        sigma = rng.uniform(0.1, 0.9)
        s = f"{sigma:.4f}{t:+.4f}j"
        jobs.append(Job(("xi", f"--s={s}"), f"t{int(t // 25) * 25}", info={"t": t}))
    return jobs


def xi_high(seed: int, scale: float = 1.0) -> list[Job]:
    return _xi_jobs(random.Random(seed), XI_HIGH_T, _count(Q_COUNTS["xi"], scale))


BUILDERS = {"ff_curves": ff_curves, "euler": euler, "q_lattice": q_lattice,
            "xi_high": xi_high}


def build(workload: str, seed: int, scale: float = 1.0) -> list[Job]:
    return BUILDERS[workload](seed, scale)


def pool_jobs() -> list[Job]:
    """Every job whose golden output the checks look up."""
    return ff_pool_jobs() + euler_pool_jobs() + base_jobs() + nf_pool_jobs()


# fixed cheap jobs run once, untimed, before a pass so that lazy imports and
# library caches are filled
WARMUP = {
    "ff_curves": [
        ("artin", "--curve", "y2=x3+1*x+1", "--p", "13"),
        ("nazeta", "--curve", "y2=x3+1*x+1", "--p", "13", "--rank", "3",
         "--convention", "descent"),
        ("census", "--curve", "y2=x3+1*x+1", "--p", "13", "--rank", "3"),
        ("mass", "--curve", "y2=x3+1*x+1", "--p", "13"),
        ("allbundles", "--curve", "y2=x3+1*x+1", "--p", "13"),
        ("explicit-ff", "--curve", "y2=x3+1*x+1", "--p", "13", "--count", "1"),
    ],
    "euler": [
        ("euler", "--A", "1", "--B", "1", "--rank", "2", "--s=3", "--pmax", "500",
         "--convention", "descent", "--threads", "2"),
    ],
    "q_lattice": [
        ("lattice", "--lattice", "1 0 0 / 0 1 0 / 0 0 1"),
        ("theta", "--gram", "1 0 0 0 / 0 1 0 0 / 0 0 1 0 / 0 0 0 1"),
        ("xi", "--s=2"),
        ("explicit-nf", "--zeros", ZEROS_PATH, "--K", "25", "--pmax", "100"),
    ],
    "xi_high": [("xi", "--s=2")],
}
