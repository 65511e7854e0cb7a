"""Expected outputs, derived from how each input was built.

Nothing here asks the program under test for an expected value.  The facts
about the paper pair A, B come from brute-force point counts on their minimal
models (valid at every prime for a_p = p + 1 - #E(F_p), the node or cusp
included), from their discriminants, and from the conductor 1406 stated in
the paper; everything else follows from the transformation recorded in the
Op.  The only program code used is `count_points_enumeration`, the library's
own O(p^2) oracle, for the untimed spot checks of `ap` tables.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from math import isqrt, lcm

import workloads as W

BAD_PRIMES = (2, 19, 37)  # the primes of LEVEL


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"[: n + 1]
    for q in range(2, isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [i for i in range(n + 1) if sieve[i]]


def brute_ap(ai, p: int) -> int:
    """p + 1 - #E(F_p) by trying every (x, y); the model must be p-minimal."""
    a1, a2, a3, a4, a6 = (a % p for a in ai)
    affine = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        lin = (a1 * x + a3) % p
        affine += sum(1 for y in range(p) if (y * y + lin * y - rhs) % p == 0)
    return p - affine


def euler_ap(ai, p: int) -> int:
    """-sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6) with chi by Euler's criterion; odd good p."""
    a1, a2, a3, a4, a6 = ai
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        v = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if v:
            total += 1 if pow(v, half, p) == 1 else -1
    return -total


def kronecker_odd_d(d: int, p: int) -> int:
    """kronecker(d, p) for odd d and prime p not dividing d."""
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


class BaseFacts:
    """a_p for p <= 100 and the bad-prime data of A or B, from brute force."""

    def __init__(self, ai):
        disc = W.invariants(ai)[2]
        if W.prime_factors(disc) != list(BAD_PRIMES):
            raise ValueError(f"{ai} is not semistable of conductor {W.LEVEL}")
        self.v = {p: valuation(disc, p) for p in BAD_PRIMES}
        self.ap = {p: brute_ap(ai, p) for p in primes_up_to(100)}


FACTS = {name: BaseFacts(ai) for name, ai in W.BASES.items()}


def paper_certificate() -> dict:
    """Twisted level, Sturm bound, count and exclusions of the pair's certificate under twist 19."""
    level = lcm(W.LEVEL, W.P * W.P)
    index = level
    for p in W.prime_factors(level):
        index = index // p * (p + 1)
    bound = 2 * index // 12
    primes = primes_up_to(bound)
    return {
        "twisted_level": level,
        "sturm_bound": bound,
        "primes_checked": len(primes) - 1,  # 19 is excluded
        "excluded_primes": [W.P],
        "status": "pass",
        "counterexample": None,
    }


PAPER = paper_certificate()
if (PAPER["twisted_level"], PAPER["sturm_bound"], PAPER["primes_checked"]) != (26714, 7220, 922):
    raise RuntimeError(f"derived certificate {PAPER} contradicts the paper")


def expected_local(op) -> dict:
    """Conductor and local rows of a twist by d or a rescaling by u of A or B."""
    e = op.expect
    facts, d, u = FACTS[e["base"]], e["d"], e["u"]
    d_primes = W.prime_factors(d)

    def chi(p):
        return kronecker_odd_d(d, p) if d != 1 else 1

    rows = {}
    for p in BAD_PRIMES:
        sign = chi(p) * facts.ap[p]
        rtype = "split_multiplicative" if sign == 1 else "nonsplit_multiplicative"
        rows[p] = [rtype, facts.v[p], 1, sign]
    # primes of the model's discriminant where the curve has good reduction
    extra = W.prime_factors(u) + ([2, 3] if d != 1 else [])
    for p in extra:
        if p not in rows:
            rows[p] = ["good", 0, 0, chi(p) * facts.ap[p]]
    for p in d_primes:
        rows[p] = ["additive", 6, 2, 0]  # type I0*: a ramified twist of good reduction
    local_data = [
        {"p": p, "reduction_type": t, "v_min_disc": v, "conductor_exponent": f, "a_p": a}
        for p, (t, v, f, a) in sorted(rows.items())
    ]
    return {
        "conductor": W.LEVEL * d * d,
        "local_data": local_data,
        "steinberg_primes": [[p, rows[p][3]] for p in BAD_PRIMES],
    }


def expected_theorem(op) -> dict:
    e = op.expect
    facts, d = FACTS[e["base"]], e["d"]
    level = W.LEVEL * d * d
    chi = (lambda q: kronecker_odd_d(d, q)) if d != 1 else (lambda q: 1)
    witness = None
    for q in primes_up_to(100):
        if (W.ELL * level) % q == 0:
            continue
        aq = chi(q) * facts.ap[q]
        disc = (aq * aq - 4 * q) % W.ELL
        if pow(disc, (W.ELL - 1) // 2, W.ELL) == W.ELL - 1:
            witness = {
                "curve": list(e["curve"]),
                "ell": W.ELL,
                "q": q,
                "a_q": aq,
                "charpoly": [aq % W.ELL, q % W.ELL],
                "disc_mod_ell": disc,
                "nonresidue_witness": True,
            }
            break
    return {
        "curve": list(e["curve"]),
        "p": W.P,
        "ell": W.ELL,
        "search_bound": 100,
        "checks": {
            "steinberg_at_p": True,
            "ell_not_2p": True,
            "ell_coprime_level": True,
            "irreducibility": witness,
            "p_is_minus_one_mod_ell": True,
            "unramified_at_p": True,
        },
        "witnesses": {"a_p": chi(W.P) * facts.ap[W.P], "level": level, "v_min_disc_at_p": facts.v[W.P]},
        "failed_checks": [],
        "conclusion": "existence_certified",
    }


class Checker:
    """Checks one op's exit code and output; `check` returns None or the reason it failed.

    `ap` tables are compared with a reference table per base, taken from the
    first `ap` op of that base (run untimed, as warm-up) after spot checks.
    """

    def __init__(self):
        self.reference: dict[str, list] = {}

    def check(self, op, code: int, out: str, err: str) -> str | None:
        kind = op.expect["kind"]
        want_code = 1 if kind == "scan" and op.expect["ell"] != W.ELL else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}: {err.strip()[:200]}"
        if err:
            return f"unexpected stderr: {err.strip()[:200]}"
        try:
            envelope = json.loads(out)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        result = envelope.get("result")
        return getattr(self, "_" + kind.replace("-", "_"))(op, result)

    def _certify(self, op, result):
        e = op.expect
        want = dict(PAPER, curve_a=list(e["curve_a"]), curve_b=list(e["curve_b"]), ell=W.ELL, twist={"modulus": W.P})
        return _diff(result, want)

    def _scan(self, op, result):
        e = op.expect
        labels = e["labels"]
        a_labels = [x for x, o in labels.items() if o == "A"]
        b_labels = [x for x, o in labels.items() if o == "B"]
        if result["level"] != W.LEVEL or result["ell"] != e["ell"] or result["p"] != W.P:
            return f"scan header {result['level']}, p {result['p']}, ell {result['ell']}"
        want_signs = {x: (FACTS[o].ap[W.P] if o in ("A", "B") else None) for x, o in labels.items()}
        got_signs = dict(map(tuple, result["sign_table"]))
        if got_signs != {x: s for x, s in want_signs.items() if s is not None}:
            return f"sign table {result['sign_table']}"
        want_skipped = sorted(
            (x, f"conductor {W.LEVEL * o * o} != scan level {W.LEVEL}") for x, o in labels.items() if o not in ("A", "B")
        )
        got_skipped = sorted((s["label"], s["reason"]) for s in result["skipped"])
        if got_skipped != want_skipped:
            return f"skipped {got_skipped}"
        want_pairs = {frozenset((a, b)) for a in a_labels for b in b_labels} if e["ell"] == W.ELL else set()
        got_pairs = [frozenset(c["labels"]) for c in result["candidates"]]
        if len(got_pairs) != len(want_pairs) or set(got_pairs) != want_pairs:
            return f"candidates {sorted(map(sorted, got_pairs))}"
        for cand in result["candidates"]:
            cert = cand["certificate"]
            reason = _diff({k: cert[k] for k in PAPER}, PAPER)
            if reason:
                return f"pair {cand['labels']}: {reason}"
        if bool(result["notes"]) == bool(want_pairs):
            return f"notes {result['notes']}"
        return None

    def _ap(self, op, result):
        e = op.expect
        if result["curve"] != list(e["curve"]) or result["bound"] != e["bound"]:
            return f"ap header {result['curve']} {result['bound']}"
        entries = result["entries"]
        ref = self.reference.get(e["base"])
        if ref is None:
            reason = spot_check_table(op, entries)
            if reason:
                return reason
            self.reference[e["base"]] = entries
            return None
        if entries != ref:
            bad = next(i for i, (x, y) in enumerate(zip(entries, ref)) if x != y) if len(entries) == len(ref) else -1
            return f"table differs from an isomorphic copy at entry {bad}"
        return None

    def _localdata(self, op, result):
        return _diff(result, expected_local(op))

    def _check_theorem(self, op, result):
        return _diff(result, expected_theorem(op))


def spot_check_table(op, entries) -> str | None:
    """Primes, signs at bad primes and the Hasse bound for every entry; a_p against
    the library's enumeration oracle at small p and an Euler-criterion sum at large p."""
    from steinberg import count_points_enumeration, make_model

    e = op.expect
    facts = FACTS[e["base"]]
    primes = primes_up_to(e["bound"])
    if [p for p, _ in entries] != primes:
        return "table does not list exactly the primes up to the bound"
    table = dict(entries)
    for p, ap in entries:
        if ap * ap > 4 * p:
            return f"a_{p} = {ap} breaks the Hasse bound"
    for p in BAD_PRIMES:
        if table[p] != facts.ap[p]:
            return f"a_{p} = {table[p]} at a bad prime, expected {facts.ap[p]}"
    model = make_model(*e["curve"])
    for p in primes_up_to(50):
        if p not in BAD_PRIMES and table[p] != p + 1 - count_points_enumeration(model, p):
            return f"a_{p} = {table[p]} disagrees with point enumeration"
    for target in (10007, 15013, 19997):
        p = primes[bisect_right(primes, target) - 1]
        if table[p] != euler_ap(e["curve"], p):
            return f"a_{p} = {table[p]} disagrees with the Euler-criterion sum"
    return None


def _diff(got, want, path="result") -> str | None:
    """First place where `got` differs from `want`, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{path} keys {sorted(got)} != {sorted(want)}"
        for key in want:
            reason = _diff(got[key], want[key], f"{path}.{key}")
            if reason:
                return reason
        return None
    if got != want or type(got) is not type(want):
        return f"{path} = {got!r}, expected {want!r}"
    return None
