"""Slow oracles for the package's fast kernels, for tests only.

Nothing here calls into `steinberg`: the Legendre sum below shares no code
with `steinberg.frobenius`, so a fault in the kernel cannot hide in both.
"""


def residue_symbols(p: int) -> list[int]:
    """The Legendre symbol (z / p) for z = 0, ..., p - 1, p an odd prime."""
    chi = [-1] * p
    chi[0] = 0
    for z in range(1, (p + 1) // 2):  # z and p - z have one square
        chi[z * z % p] = 1
    return chi


def short_count(A: int, B: int, p: int, chi: list[int]) -> int:
    """#E(F_p) for y^2 = x^3 + A·x + B, with chi = residue_symbols(p)."""
    return p + 1 + sum([chi[(x * (x * x + A) + B) % p] for x in range(p)])


def count_points(model, p: int) -> int:
    """#E(F_p) for a model with good reduction at a prime p > 3, counted on
    y^2 = x^3 - 27·c4·x - 54·c6, which has as many points mod p."""
    return short_count(-27 * model.c4, -54 * model.c6, p, residue_symbols(p))
