"""Curve-table ingestion and level scans for opposite-sign congruent pairs.

Input files use one record per line, ``<label> <whitespace> [a1,a2,a3,a4,a6]``,
with ``#`` starting a comment and blank lines ignored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable

from .congruence import CongruenceCertificate, QuadraticCharacter, certify_congruence
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
    """Parse a curve table; malformed lines, duplicate labels and singular
    models are reported with their line number."""
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
    sign at p of each remaining curve, and runs the full congruence check on
    every opposite-sign pair.  Only passing pairs are reported.
    """
    records = list(records)
    if not records:
        return ScanReport(0, p, ell, twist, (), (), (), ("no records supplied",))

    conductors = {rec.label: conductor(rec.model) for rec in records}
    counts = Counter(conductors.values())
    level = min(
        (N for N in counts if counts[N] == max(counts.values())),
    )

    skipped: list[SkippedRecord] = []
    signs: list[tuple[str, int]] = []
    eligible: list[CurveRecord] = []
    for rec in records:
        N = conductors[rec.label]
        if N != level:
            skipped.append(SkippedRecord(rec.label, f"conductor {N} != scan level {level}"))
            continue
        data = tate_local(rec.model, p)
        if data.f_p != 1:
            skipped.append(SkippedRecord(rec.label, f"not multiplicative at {p} (f_p = {data.f_p})"))
            continue
        signs.append((rec.label, data.a_p))
        eligible.append(rec)

    candidates: list[CandidatePair] = []
    sign_of = dict(signs)
    for i, rec_a in enumerate(eligible):
        for rec_b in eligible[i + 1 :]:
            if sign_of[rec_a.label] != -sign_of[rec_b.label]:
                continue
            cert = certify_congruence(rec_a.model, rec_b.model, ell, twist)
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
        sign_table=tuple(signs),
        candidates=tuple(candidates),
        skipped=tuple(skipped),
        notes=tuple(notes),
    )
