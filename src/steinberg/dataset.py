"""Curve-table ingestion and level scans for opposite-sign congruent pairs.

Input files use one record per line, ``<label> <whitespace> [a1,a2,a3,a4,a6]``,
with ``#`` starting a comment and blank lines ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterable

from .arith import is_prime, primes_up_to
from .congruence import CongruenceCertificate, QuadraticCharacter, compare_traces, sturm_bound
from .local_reduction import conductor, tate_local
from .record import Record, json_at
from .weierstrass import WeierstrassModel, parse_curve

__all__ = [
    "CurveRecord",
    "parse_curve_file",
    "SkippedRecord",
    "CandidatePair",
    "ScanReport",
    "scan_level",
]


@dataclass(frozen=True)
class CurveRecord:
    label: str
    model: WeierstrassModel


def parse_curve_file(source: str | IO[str]) -> list[CurveRecord]:
    """Parse a curve table; malformed lines, duplicate labels, singular
    models and discriminants that cannot be factored are reported with their
    line number."""
    text = source.read() if hasattr(source, "read") else source
    records: list[CurveRecord] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<label> [a1,a2,a3,a4,a6]', got {raw!r}")
        label, curve_text = parts
        if label in seen:
            raise ValueError(f"line {lineno}: duplicate label {label!r}")
        try:
            model = parse_curve(curve_text)
            model.bad_primes  # factor the discriminant here, to name a line that fails
        except ValueError as exc:
            raise ValueError(f"line {lineno} ({label}): {exc}") from None
        seen.add(label)
        records.append(CurveRecord(label, model))
    return records


@dataclass(frozen=True)
class SkippedRecord(Record):
    label: str
    reason: str


@dataclass(frozen=True)
class CandidatePair(Record):
    label_a: str = json_at("labels", 0)
    label_b: str = json_at("labels", 1)
    certificate: CongruenceCertificate


@dataclass(frozen=True)
class ScanReport(Record):
    level: int
    p: int
    ell: int
    twist: QuadraticCharacter
    sign_table: tuple[tuple[str, int], ...]
    candidates: tuple[CandidatePair, ...]
    skipped: tuple[SkippedRecord, ...]
    notes: tuple[str, ...]


def scan_level(
    records: Iterable[CurveRecord],
    p: int,
    ell: int,
    twist: QuadraticCharacter,
) -> ScanReport:
    """Look for opposite-sign congruent pairs among the records.

    The scan restricts to the records' common conductor (the modal value,
    smaller on ties; everything else is skipped with a reason), reads off the
    sign at p of each remaining curve, and compares every opposite-sign pair
    through `compare_traces` up to the Sturm bound, stopping at its least
    counterexample.  Each curve's a_p are computed at most once (they are
    kept on its model), and a pair that reaches the bound is reported with
    the certificate of that one comparison; nothing is compared twice.
    """
    for name, value in (("p", p), ("ell", ell)):
        if not is_prime(value):
            raise ValueError(f"{name} = {value} is not prime")
    records = list(records)
    if not records:
        return ScanReport(0, p, ell, twist, (), (), (), ("no records supplied",))

    conductors = {rec.label: conductor(rec.model) for rec in records}
    counts = Counter(conductors.values())
    level = min(counts, key=lambda N: (-counts[N], N))

    skipped: list[SkippedRecord] = []
    signed: list[tuple[CurveRecord, int]] = []
    for rec in records:
        N = conductors[rec.label]
        if N != level:
            skipped.append(SkippedRecord(rec.label, f"conductor {N} != scan level {level}"))
            continue
        data = tate_local(rec.model, p)
        if data.f_p != 1:
            skipped.append(SkippedRecord(rec.label, f"not multiplicative at {p} (f_p = {data.f_p})"))
            continue
        signed.append((rec, data.a_p))

    pairs = [
        (rec_a, rec_b) for (rec_a, a), (rec_b, b) in combinations(signed, 2) if a == -b
    ]
    candidates: list[CandidatePair] = []
    if pairs:
        # every eligible curve has conductor `level`, so these are the
        # primes up to the bound compare_traces derives for each pair
        primes = primes_up_to(sturm_bound(twist.level(level), 2))
    for rec_a, rec_b in pairs:
        cert = compare_traces(rec_a.model, rec_b.model, primes, ell, twist, (level, level))
        if cert.passed:
            candidates.append(CandidatePair(rec_a.label, rec_b.label, cert))

    notes: list[str] = []
    if not candidates:
        notes.append(
            "no opposite-sign congruent pair among the supplied curves; "
            "eigenforms outside this table (in particular non-rational ones) "
            "are not ruled out"
        )
    return ScanReport(
        level=level,
        p=p,
        ell=ell,
        twist=twist,
        sign_table=tuple((rec.label, sign) for rec, sign in signed),
        candidates=tuple(candidates),
        skipped=tuple(skipped),
        notes=tuple(notes),
    )
