"""Exact law of the lazy +/-1 walk.

One step of the walk is ζ with P(ζ = ±1) = 1/4 and P(ζ = 0) = 1/2, i.e. the
mean of two fair coin flips, so after l steps the position j has probability
2^(-2l) C(2l, l + j).  That law satisfies the discrete heat equation with
one-quarter weights, and the one-step mass ratio at a fixed site has the
closed form implemented by ratio_check below.

The lattice chain asks for the law after n, n + 1, n + 2, ... steps in
turn, so the integer half row C(2n, 0..n) behind pmf is kept and the
next one built from it by one Pascal step, additions only.  _half_law
alone scales that row by 4^-n: to floats by an exact power of two where
that is one correct rounding.  The chain reads only its window: it asks
pmf for the sites |j| <= j_max, and only those entries of the half row are
scaled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import numpy as np

__all__ = [
    "pmf",
    "pmf_value",
    "heat_step_residual",
    "ratio_check",
]


def pmf_value(steps: int, j: int) -> Fraction:
    """Exact mass 2^(-2l) C(2l, l + j) at site j after l = steps steps."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if abs(j) > steps:
        return Fraction(0)
    return Fraction(math.comb(2 * steps, steps + j), 4**steps)


# the last half row _binomial_row built, as (n, row)
_kept = (0, (1,))


def _binomial_row(steps: int) -> tuple[int, ...]:
    """Half row C(2n, k), k = 0..n, for n = steps: index j + n holds
    4^n mass(n, j) for the sites j = -n..0, which by symmetry are all the
    masses.

    The chain asks for n, n + 1, n + 2, ... in turn, so the last half row
    built is kept.  Row n + 1 is one Pascal step from it, two rows of
    Pascal's triangle at once: C(2n + 2, k) = C(2n, k - 2) + 2 C(2n, k - 1)
    + C(2n, k) for k <= n + 1, where C(2n, n + 1) is C(2n, n - 1), or 0 at
    n = 0.  Any other row is built from c_0 = 1 by the recurrence
    c_{k+1} = c_k (2n - k) // (k + 1), whose divisions are exact.  Rows are
    tuples, so no caller can alter the kept row, and the kept (n, row) pair
    is replaced in one assignment and exact for its n: the order of the
    calls changes their speed, never a row.
    """
    global _kept
    n, row = _kept
    if steps == n:
        return row
    if steps == n + 1:
        past = row[n - 1] if n else 0  # C(2n, n + 1)
        terms = zip(chain((0, 0), row), chain((0,), row), chain(row, (past,)))
        row = tuple([a + 2 * b + c for a, b, c in terms])
    else:
        two_n = 2 * steps
        half = [1] * (steps + 1)
        c = 1
        for k in range(steps):
            c = c * (two_n - k) // (k + 1)
            half[k + 1] = c
        row = tuple(half)
    _kept = (steps, row)
    return row


def _half_law(steps: int, w: int, backend: str):
    """Masses of the sites -w..0 after `steps` steps, 0 <= w <= steps.

    They are C(2n, n - w .. n) / 4^n, read from the half row of
    _binomial_row(n): a list of Fraction(c, 4^n), the same reduced rationals
    as pmf_value, for the rational backend, and a float64 array for the
    float one.  The floats are c / 4^n correctly rounded, so each one is
    bit-identical to float(pmf_value(steps, j)): Python's int / int
    division is correctly rounded, and Fraction.__float__ performs that same
    division on the reduced pair.  For n <= 511 they are the whole half row
    converted in one pass and scaled by one ldexp(., -2n): c <= C(2n, n) <=
    4^n <= 2^1022, so float(c) is one correct rounding, and c / 4^n >= 4^-n
    >= 2^-1022 is a normal float, so scaling it by a power of two is exact
    and ldexp(c, -2n) is c / 4^n rounded once.  From n = 512 on, float(c)
    may overflow and c / 4^n may be subnormal, where ldexp would round
    twice, so the masses are the division itself.
    """
    half = _binomial_row(steps)[steps - w :]
    if backend == "rational":
        den = 4**steps
        return [Fraction(c, den) for c in half]
    if steps <= 511:
        return np.ldexp(np.fromiter(map(float, half), float, w + 1), -2 * steps)
    den = 4**steps
    return np.fromiter((c / den for c in half), float, w + 1)


def pmf(steps: int, backend: str = "rational", width: int | None = None) -> tuple:
    """Law after `steps` steps in the requested backend.

    Returns the tuple of masses of sites -w..w, site j at index j + w, where
    w = steps, or min(steps, width) when a width is given: the sites beyond
    the walk's reach hold no mass, and those beyond the width are not
    computed.  Both backends scale one integer row C(2n, k) by 4^-n
    (_half_law); the row is symmetric, so only its half is scaled and the
    masses are mirrored.  Every mass is pmf_value's, exactly or correctly
    rounded to float.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if backend not in ("rational", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    if width is not None and width < 0:
        raise ValueError("width must be >= 0")
    w = steps if width is None else min(steps, width)
    half = _half_law(steps, w, backend)
    if backend == "float":
        half = half.tolist()
    return tuple(half + half[-2::-1])


def heat_step_residual(steps: int, j: int) -> Fraction:
    """Exact residual of the discrete heat equation at (steps, j).

    mass(l+1, j) - mass(l, j) - [mass(l, j-1)/4 + mass(l, j+1)/4 - mass(l, j)/2],
    identically zero because one step convolves with the increment law.
    """
    if abs(j) > steps:
        raise ValueError("site outside the support")
    return (
        pmf_value(steps + 1, j)
        - pmf_value(steps, j)
        - (
            pmf_value(steps, j - 1) / 4
            + pmf_value(steps, j + 1) / 4
            - pmf_value(steps, j) / 2
        )
    )


def _ratio_terms(steps: int, j: int) -> tuple[int, int]:
    """(A, B) with mass(l, j) / mass(l + 1, j) = A / B at l = steps:
    A = 2 ((l+1)^2 - j^2) and B = (2l+1) (l+1), not reduced."""
    l = steps
    if l < 1:
        raise ValueError("steps must be >= 1")
    if abs(j) > l:
        raise ValueError("site outside the support")
    return 2 * ((l + 1) ** 2 - j * j), (2 * l + 1) * (l + 1)


def ratio_check(steps: int, j: int) -> Fraction:
    """One-step mass ratio mass(l, j) / mass(l + 1, j) at a fixed site.

    Closed form 2 ((l+1)^2 - j^2) / ((2l+1) (l+1)) (_ratio_terms); it exceeds
    1 exactly when l >= 2 j^2, which is the regime where a site sheds mass as
    the walk spreads, and drops below 1 when j^2 > (l + 1) / 2.
    """
    return Fraction(*_ratio_terms(steps, j))
