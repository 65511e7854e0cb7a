"""Seeded inputs for the benchmark workloads.

Every input is built from the paper pair A, B by a transformation whose effect
on the program's answers is known in advance: a coordinate change (u = +-1 and
integral r, s, t) leaves every invariant alone, a rescaling by u > 1 gives a
non-minimal model of the same curve, and the quadratic twist by a squarefree
d = 1 (mod 4) coprime to 6 * 5 * 1406 has conductor 1406 * d^2 and multiplies
a_p by kronecker(d, p).  Each Op records how its curves were built, and
checks.py turns that record into the expected output.

An op is a function of (workload, seed, index) alone, so the same seed always
gives the same inputs.  Ops are grouped in rounds: op i fills slot i % round
of its workload, and a slot fixes the shape of the input (command, band of the
largest prime of d, rescaling factor) while the seed fixes the values.  Every
round therefore asks for the same amount of work.

Twist moduli d = 2 (mod 4) are left out of certify_pair and scan_sweep on
purpose: n -> kronecker(n, d) then has period 4|d|, the level the program
certifies at is too small, and any expected value would encode a wrong answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

A = (1, 1, 1, -614, -5501)
B = (1, -1, 1, -1191, 507615)
BASES = {"A": A, "B": B}
LEVEL = 1406  # conductor of A and B, squarefree: 2 * 19 * 37
P = 19  # the Steinberg prime where A and B carry opposite signs
ELL = 5
SCAN_ELLS = (3, 5, 7, 11, 13)
AP_BOUND = 20000
COORD_RANGE = 1000  # |r|, |s|, |t| of the random coordinate changes

# primes allowed beside the largest prime of a twist modulus: coprime to 6 * ELL * LEVEL
SMALL_PRIMES = (7, 11, 13, 17, 23, 29, 31, 41, 43, 47)
# largest prime of d in local_batch: a random prime in [0.95 q, q] for q on a log ladder 1e2 .. 1e6
TWIST_BANDS = tuple(round(10 ** (2 + 4 * k / 7)) for k in range(8))
# rescaling factors of the non-minimal models: wild primes 2 and 3, and good primes 5, 7
RESCALES = (2, 3, 6, 35)
# the single prime of each scan decoy's twist modulus
DECOY_BANDS = tuple(round(10 ** (3 + k / 2)) for k in range(4))


@dataclass(frozen=True)
class Op:
    """One call of the command line: its argv and how its inputs were built."""

    argv: tuple[str, ...]
    expect: dict


def curve_arg(ai) -> str:
    return "[" + ",".join(str(a) for a in ai) + "]"


def invariants(ai) -> tuple[int, int, int]:
    """(c4, c6, discriminant) of [a1,a2,a3,a4,a6]."""
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


def translate(ai, u: int, r: int, s: int, t: int) -> tuple[int, ...]:
    """The coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t for u = +-1."""
    if u not in (1, -1):
        raise ValueError("only u = +-1 keeps every model integral")
    a1, a2, a3, a4, a6 = ai
    moved = (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )
    return tuple(c * u ** e for c, e in zip(moved, (1, 2, 3, 4, 6)))


def rescale(ai, u: int) -> tuple[int, ...]:
    """a_i -> u^i a_i: the same curve on a model that is not minimal at the primes of u."""
    return tuple(c * u ** e for c, e in zip(ai, (1, 2, 3, 4, 6)))


def quadratic_twist(ai, d: int) -> tuple[int, ...]:
    """[0, 0, 0, -27 c4 d^2, -54 c6 d^3], the twist by Q(sqrt d) (not minimal at 2, 3)."""
    c4, c6, _ = invariants(ai)
    return (0, 0, 0, -27 * c4 * d * d, -54 * c6 * d ** 3)


def prime_factors(n: int) -> list[int]:
    """The distinct primes of n, by trial division."""
    n, out, q = abs(n), [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def random_prime(rng: random.Random, top: int) -> int:
    """A random prime in [0.95 top, top] other than 2, 3, 5, 19 and 37."""
    while True:
        q = rng.randint(int(0.95 * top), top)
        if q not in (2, 3, ELL, P, 37) and prime_factors(q) == [q]:
            return q


def unit_modulus(primes) -> int:
    """+-prod(primes), with the sign that makes it 1 (mod 4); primes are odd."""
    d = 1
    for q in primes:
        d *= q
    return d if d % 4 == 1 else -d


def random_copy(rng: random.Random, ai) -> tuple[int, ...]:
    """An isomorphic copy under u = +-1 and random r, s, t."""
    u = rng.choice((1, -1))
    r, s, t = (rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(3))
    return translate(ai, u, r, s, t)


class Workload:
    """Base class: `op(i)` gives op i, `warmup()` the untimed ops run first."""

    name = ""
    why = ""
    size = ""
    round_size = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        # negative indices: fresh inputs that never reappear in the timed loop
        return [self.op(-1 - k) for k in range(self.round_size)]


class CertifyPair(Workload):
    name = "certify_pair"
    why = (
        "the paper's headline op: certify fresh copies of A, B mod 5, twist 19; small-p kernel plus call overhead, "
        "every pair passes. Twists d = 2 (mod 4) left out: their certificates are unsound today."
    )
    size = "2 curves per op, 922 primes up to the Sturm bound 7220 of level 26714"

    def op(self, i: int) -> Op:
        rng = self.rng(i)
        a, b = random_copy(rng, A), random_copy(rng, B)
        argv = ("certify", curve_arg(a), curve_arg(b), "--ell", str(ELL), "--twist", str(P))
        return Op(argv, {"kind": "certify", "curve_a": a, "curve_b": b})


class ScanSweep(Workload):
    name = "scan_sweep"
    why = (
        "search over ell: 3 copies of A, 3 of B, 4 twisted decoys, scanned at p 19 for ell 3..13; early exit, "
        "a_p reuse, conductor. Twists d = 2 (mod 4) left out: their certificates are unsound today."
    )
    size = "10 curves, 9 opposite-sign pairs; 5 scans per round (one per ell)"
    round_size = len(SCAN_ELLS)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = self.rng(-1000)
        rows = [("A", random_copy(rng, A)) for _ in range(3)] + [("B", random_copy(rng, B)) for _ in range(3)]
        for top in DECOY_BANDS:
            d = unit_modulus([random_prime(rng, top)])
            rows.append((d, random_copy(rng, quadratic_twist(A, d))))
        rng.shuffle(rows)
        self.labels = {}
        lines = [f"# scan_sweep table, seed {seed}"]
        for k, (origin, ai) in enumerate(rows, start=1):
            label = f"E{k:02d}"
            self.labels[label] = origin  # "A", "B", or the twist modulus of a decoy
            lines.append(f"{label} {curve_arg(ai)}")
        self.table_text = "\n".join(lines) + "\n"
        self.path = workdir / f"scan-table-{seed}.txt"
        self.path.write_text(self.table_text, encoding="utf-8")

    def op(self, i: int) -> Op:
        ell = SCAN_ELLS[i % self.round_size]
        argv = ("scan", str(self.path), "--p", str(P), "--ell", str(ell))
        return Op(argv, {"kind": "scan", "ell": ell, "labels": self.labels})

    def warmup(self) -> list[Op]:
        return [self.op(0)]


class ApWide(Workload):
    name = "ap_wide"
    why = (
        f"a_p of a fresh copy of A or B up to {AP_BOUND}: the point-count kernel at large p "
        "(primes above 1e4 take most of it) plus JSON rendering of a big result; no comparison, no reuse."
    )
    size = f"1 curve per op, 2262 primes up to {AP_BOUND}, about 100 kB of JSON"
    round_size = 2

    def op(self, i: int) -> Op:
        base = "AB"[i % 2]
        ai = random_copy(self.rng(i), BASES[base])
        argv = ("ap", curve_arg(ai), "--bound", str(AP_BOUND))
        return Op(argv, {"kind": "ap", "base": base, "curve": ai, "bound": AP_BOUND})


class LocalBatch(Workload):
    name = "local_batch"
    why = (
        "localdata and check-theorem (p 19, ell 5) on twists of A, B by squarefree d with primes up to 1e6 "
        "and on rescaled non-minimal models: trial-division factorize and every branch of Tate's algorithm."
    )
    size = (
        f"48 ops per round: 2 bases x 2 commands x ({len(TWIST_BANDS)} twist bands + {len(RESCALES)} rescalings)"
    )
    slots = tuple(
        (base, command, shape)
        for base in "AB"
        for command in ("localdata", "check-theorem")
        for shape in [("twist", k) for k in range(len(TWIST_BANDS))] + [("rescale", u) for u in RESCALES]
    )
    round_size = len(slots)

    def op(self, i: int) -> Op:
        rng = self.rng(i)
        base, command, (shape, value) = self.slots[i % self.round_size]
        if shape == "twist":
            q = random_prime(rng, TWIST_BANDS[value])
            primes = [q] + rng.sample(SMALL_PRIMES, value % 3)
            d = unit_modulus(primes)
            ai = random_copy(rng, quadratic_twist(BASES[base], d))
            u = 1
        else:
            d, u = 1, value
            ai = rescale(random_copy(rng, BASES[base]), u)
        argv = (command, curve_arg(ai))
        if command == "check-theorem":
            argv += ("--p", str(P), "--ell", str(ELL))
        return Op(argv, {"kind": command, "base": base, "curve": ai, "d": d, "u": u})

    def warmup(self) -> list[Op]:
        # one op per command, from the cheapest band
        return [self.op(-self.round_size), self.op(-self.round_size + len(TWIST_BANDS) + len(RESCALES))]


WORKLOADS = {cls.name: cls for cls in (CertifyPair, ScanSweep, ApWide, LocalBatch)}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)
