"""Random-walk non-concentration harness.

Two measurement routes: exact decay of the l-step walk distribution on
algebraic events inside a finite quotient (the walk distribution is the
Cayley operator iterated on the point mass at the identity), and
Monte-Carlo sampling of the integral walk with arbitrary-precision entries
for exact-equality events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

import numpy as np

from .factored import FactoredModulus
from .sl2 import IMAT_ID, IntPair, imat_mul, symmetrize
from .spectral import CayleyOperator, cayley_for_sl2_pair


@dataclass(frozen=True)
class LinearForm8:
    """Primitive linear form in the eight matrix entries of a pair."""

    coeffs: tuple[int, int, int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.coeffs) != 8:
            raise ValueError("a linear form needs exactly 8 coefficients")
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        if g != 1:
            raise ValueError(f"form {self.coeffs} is not primitive (gcd {g})")

    def value(self, g: IntPair) -> int:
        (x1, y1), (z1, w1) = g[0]
        (x2, y2), (z2, w2) = g[1]
        c = self.coeffs
        return (
            c[0] * x1 + c[1] * y1 + c[2] * z1 + c[3] * w1
            + c[4] * x2 + c[5] * y2 + c[6] * z2 + c[7] * w2
        )


# --- event specifications ---------------------------------------------------


@dataclass(frozen=True)
class ModLinearEvent:
    """L(g) = n (mod Q); a pair-group event."""

    form: LinearForm8
    n: int

    needs_pair = True

    def indicator(self, digits, Q: int) -> np.ndarray:
        # coefficients reduced first: unreduced ones overflow the int64 digits
        acc = sum(int(ci) % Q * di for ci, di in zip(self.form.coeffs, digits))
        return acc % Q == self.n % Q


@dataclass(frozen=True)
class SingularTraceEvent:
    """tr(g)^2 - 4 = 0 (mod Q) on one factor."""

    side: int = 1

    needs_pair = False

    def indicator(self, digits, Q: int) -> np.ndarray:
        a, _, _, d = digits
        t = (a + d) % Q
        return (t * t - 4) % Q == 0


@dataclass(frozen=True)
class LowerLeftEvent:
    """Lower-left entry divisible by Q on one factor."""

    side: int = 1

    needs_pair = False

    def indicator(self, digits, Q: int) -> np.ndarray:
        return digits[2] % Q == 0


@dataclass(frozen=True)
class TraceValueEvent:
    """tr(g) = n (mod Q) on one factor."""

    n: int
    side: int = 1

    needs_pair = False

    def indicator(self, digits, Q: int) -> np.ndarray:
        return (digits[0] + digits[3]) % Q == self.n % Q


@dataclass(frozen=True)
class IntegralLinearEvent:
    """Exact integral equality L(g) = n; only meaningful on sampled walks."""

    form: LinearForm8
    n: int

    def test(self, g: IntPair) -> bool:
        return self.form.value(g) == self.n


# --- exact quotient decay ----------------------------------------------------


def walk_operator(
    S: Sequence[IntPair], Q: FactoredModulus, event
) -> tuple[CayleyOperator, np.ndarray]:
    """Cayley operator of the quotient walk plus the event indicator vector.

    Single-factor events use the projected generators on the stated side
    (the projection of the walk distribution is the walk of the projected
    generators); pair events use the full pair mod (Q, Q).
    """
    S = symmetrize(list(S))
    q = Q.value
    if getattr(event, "needs_pair", False):
        op = cayley_for_sl2_pair(S, q, q)
    else:
        side = getattr(event, "side", 1)
        op = cayley_for_sl2_pair([(g[side - 1], IMAT_ID) for g in S], q, 1)
    digits = op.ctx.decode(op.codes)
    picked = digits if getattr(event, "needs_pair", False) else digits[:4]
    ind = event.indicator(picked, q).astype(float)
    return op, ind


def decay_profile(
    S: Sequence[IntPair],
    event,
    Q: FactoredModulus,
    l_values: Sequence[int],
) -> dict:
    """Exact event mass of the l-step walk for each l, plus the fitted exponent.

    Also reports the uniform-measure mass of the event on the generated
    quotient group, the limit of the profile for mixing walks.
    """
    l_values = sorted(set(int(l) for l in l_values))
    if not l_values or l_values[0] < 1:
        raise ValueError("l values must be positive")
    op, ind = walk_operator(S, Q, event)
    f = np.zeros(op.n)
    f[int(np.searchsorted(op.codes, op.ctx.identity_code()))] = 1.0
    rows = []
    want = set(l_values)
    for l in range(1, l_values[-1] + 1):
        f = op.apply(f)
        if l in want:
            rows.append({"l": l, "mass": float(ind @ f)})
    uniform_mass = float(ind.mean())
    last = rows[-1]["mass"]
    fitted_c = -math.log(last) / math.log(Q.value) if last > 0 and Q.value > 1 else math.inf
    return {
        "Q": Q.value,
        "N": op.n,
        "rows": rows,
        "uniform_mass": uniform_mass,
        "fitted_c": fitted_c,
    }


# --- integral sampling --------------------------------------------------------


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # counter-based: each (seed, index) keys an independent Philox stream
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), index]))


def _walk_prefixes(
    S: Sequence[IntPair], l: int, n_samples: int, seed: int
) -> Iterator[tuple[int, IntPair]]:
    """(i, s_i ... s_1) for i = 1..l along each sample's seeded l-step walk."""
    for idx in range(n_samples):
        steps = _sample_rng(seed, idx).integers(0, len(S), size=l)
        g = (IMAT_ID, IMAT_ID)
        for i, s in enumerate(steps, start=1):
            step = S[int(s)]
            g = (imat_mul(step[0], g[0]), imat_mul(step[1], g[1]))
            yield i, g


def _wilson_interval(hits: int, n: int, z: float = 1.959964) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = hits / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def archimedean_decay(
    S: Sequence[IntPair],
    event: IntegralLinearEvent,
    l_values: Sequence[int],
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Monte-Carlo event frequencies along walk prefixes, with Wilson intervals
    and a fitted exponential decay rate over the l's with nonzero counts."""
    if not isinstance(event, IntegralLinearEvent):
        raise TypeError("archimedean decay needs an exact integral event")
    S = symmetrize(list(S))
    l_values = sorted(set(int(l) for l in l_values))
    if not l_values or l_values[0] < 1:
        raise ValueError("l values must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    lmax = l_values[-1]
    want = set(l_values)
    hits = {l: 0 for l in l_values}
    for i, g in _walk_prefixes(S, lmax, n_samples, seed):
        if i in want and event.test(g):
            hits[i] += 1
    rows = []
    for l in l_values:
        lo, hi = _wilson_interval(hits[l], n_samples)
        rows.append(
            {
                "l": l,
                "hits": hits[l],
                "samples": n_samples,
                "p_hat": hits[l] / n_samples,
                "ci_low": lo,
                "ci_high": hi,
            }
        )
    pts = [(r["l"], math.log(r["p_hat"])) for r in rows if r["hits"] > 0]
    rate = None
    if len(pts) >= 2:
        ls = np.array([p[0] for p in pts], dtype=float)
        ys = np.array([p[1] for p in pts], dtype=float)
        slope = float(np.polyfit(ls, ys, 1)[0])
        rate = -slope
    return {"rows": rows, "fitted_rate": rate}
