"""Integral Weierstrass models y^2 + a1·xy + a3·y = x^3 + a2·x^2 + a4·x + a6.

Holds the five coefficients plus the standard derived quantities b2, b4, b6,
b8, c4, c6 and the discriminant, all exact integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

from .arith import factorize

__all__ = [
    "WeierstrassModel",
    "make_model",
    "parse_curve",
    "change_coordinates",
    "valuation",
]


@dataclass(frozen=True)
class WeierstrassModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    b2: int = field(init=False)
    b4: int = field(init=False)
    b6: int = field(init=False)
    b8: int = field(init=False)
    c4: int = field(init=False)
    c6: int = field(init=False)
    disc: int = field(init=False)

    def __post_init__(self) -> None:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise ValueError(f"singular model (discriminant 0): {(a1, a2, a3, a4, a6)}")
        for name, value in (
            ("b2", b2), ("b4", b4), ("b6", b6), ("b8", b8),
            ("c4", c4), ("c6", c6), ("disc", disc),
        ):
            object.__setattr__(self, name, value)

    @property
    def a_invariants(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def bad_primes(self) -> tuple[int, ...]:
        """The primes dividing the discriminant, ascending; factored once per model."""
        return tuple(p for p, _ in factorize(self.disc))

    def __repr__(self) -> str:
        return f"WeierstrassModel({list(self.a_invariants)})"


def make_model(a1: int, a2: int, a3: int, a4: int, a6: int) -> WeierstrassModel:
    """Build a model from integer coefficients; rejects singular input."""
    coeffs = []
    for value in (a1, a2, a3, a4, a6):
        try:
            coeffs.append(operator.index(value))
        except TypeError:
            raise ValueError(f"coefficients must be integers, got {value!r}") from None
    return WeierstrassModel(*coeffs)


def parse_curve(text: str) -> WeierstrassModel:
    """Parse the bracket syntax "[a1,a2,a3,a4,a6]" (whitespace tolerated)."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"curve must be written as [a1,a2,a3,a4,a6], got {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"expected 5 coefficients, got {len(parts)}: {text!r}")
    try:
        coeffs = [int(part.strip()) for part in parts]
    except ValueError:
        raise ValueError(f"non-integer coefficient in {text!r}") from None
    return make_model(*coeffs)


def change_coordinates(model: WeierstrassModel, u: int, r: int, s: int, t: int) -> WeierstrassModel:
    """Apply the admissible substitution x = u^2·x' + r, y = u^3·y' + u^2·s·x' + t.

    Every transformed coefficient must come out integral (u = +-1 always
    qualifies); the discriminant scales by u^-12.
    """
    if u == 0:
        raise ValueError("u must be nonzero")
    a1, a2, a3, a4, a6 = model.a_invariants
    na1 = a1 + 2 * s
    na2 = a2 - s * a1 + 3 * r - s * s
    na3 = a3 + r * a1 + 2 * t
    na4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    na6 = a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1
    scaled = []
    for exp, value in ((1, na1), (2, na2), (3, na3), (4, na4), (6, na6)):
        q, rem = divmod(value, u ** exp)
        if rem:
            raise ValueError(f"(u,r,s,t)=({u},{r},{s},{t}) does not keep the model integral")
        scaled.append(q)
    return make_model(*scaled)


def valuation(n: int, p: int) -> int:
    """Exact power of the prime p dividing n; rejects n = 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be a prime (>= 2)")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
