"""Manufactured benchmark problems with closed-form exact solutions.

Both cases share the exact solution u(x,t) = (1-x^2)^{s+alpha/2} (t^gamma + 1)
on (-1,1), zero-extended.  The time part has Caputo derivative
Gamma(1+gamma), and the spatial profile has a known fractional Laplacian

    c(s,alpha) * 2F1((alpha+1)/2, -s; 1/2; x^2),
    c(s,alpha) = 2^alpha Gamma((alpha+1)/2) Gamma(s+1+alpha/2)
                 / (sqrt(pi) Gamma(s+1)),

with the hypergeometric series terminating because -s is a negative integer.
The source term combines the two.  Case "example1" uses s = 3 and
kappa = (1+t) e^{0.8x+1}; case "example2" uses s = 1 and
kappa = 7 [ln(5+2x+t) + cos(xt)] / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .scheme import ProblemSpec


@dataclass(frozen=True)
class ManufacturedCase:
    s: int
    spec: ProblemSpec


def hypergeom_terminating(a: float, s: int, x2) -> np.ndarray | float:
    """2F1(a, -s; 1/2; x2) for positive integer s: an s-term Pochhammer sum.

    Exact polynomial evaluation; the series terminates at degree s.
    """
    if s < 1 or int(s) != s:
        raise ValueError(f"s must be a positive integer, got {s}")
    x2 = np.asarray(x2, dtype=float)
    total = np.ones_like(x2)
    term = np.ones_like(x2)
    for k in range(int(s)):
        term = term * (a + k) * (-s + k) / ((0.5 + k) * (1.0 + k)) * x2
        total = total + term
    return total if total.ndim else float(total)


def _ifl_prefactor(s: int, alpha: float) -> float:
    return (
        2.0 ** alpha
        * math.exp(
            gammaln((alpha + 1.0) / 2.0)
            + gammaln(s + 1.0 + alpha / 2.0)
            - gammaln(s + 1.0)
        )
        / math.sqrt(math.pi)
    )


def _bump(x, power: float):
    # exp((s + alpha/2) log1p(-x^2)) with an explicit zero at |x| = 1: the
    # exponent is fractional so accuracy near the boundary matters
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(power * np.log1p(-x[inside] * x[inside]))
    return out if out.ndim else float(out)


_KAPPA = {
    "example1": lambda x, t: (1.0 + t) * np.exp(0.8 * np.asarray(x) + 1.0),
    "example2": lambda x, t: 7.0 * (np.log(5.0 + 2.0 * np.asarray(x) + t)
                                    + np.cos(np.asarray(x) * t)) / 4.0,
}


def _factors(s: int, alpha: float, gamma: float, x: np.ndarray) -> tuple:
    """The time-independent factors of the case at x: whether x lies in
    [-1, 1], the bump, Gamma(1+gamma) times the bump, and the prefactor and
    2F1 series of the bump's fractional Laplacian."""
    bump = _bump(x, s + alpha / 2.0)
    return (not np.any(np.abs(x) > 1.0), bump,
            math.exp(gammaln(1.0 + gamma)) * bump, _ifl_prefactor(s, alpha),
            hypergeom_terminating((alpha + 1.0) / 2.0, s, x * x))


def _time_factor(t, gamma: float) -> np.ndarray:
    """t^gamma + 1 for an array of times t >= 0, each power by Python's
    float ``**``, the C library's pow: numpy's vectorized power differs from
    it in the last bit at some t (187 of pk-n128's 3326 level times at
    gamma 0.8), so a value would depend on how many levels share a call."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    values = out.reshape(-1)
    for i, v in enumerate(t.flat):
        if not v >= 0.0:
            raise ValueError(f"t must be >= 0, got {v}")
        values[i] = float(v) ** gamma + 1.0
    return out


def _source(factors: tuple, kappa, gamma: float, x: np.ndarray, t):
    inside, _, time_term, prefactor, series = factors
    if not inside:
        raise ValueError("x must lie in [-1, 1]")
    time_factor = _time_factor(t, gamma)
    # evaluated left to right, as written, in place in kappa's fresh array:
    # regrouping moves the last bit
    f = kappa(x, t)
    f *= prefactor
    f *= series
    f *= time_factor
    f += time_term
    return f


def make_case(name: str, alpha: float, gamma: float,
              T: float = 1.0) -> ManufacturedCase:
    """Case registry: "example1" (s=3) or "example2" (s=1).

    Its callables take t as a column of times, shape (b, 1), and return one
    row per time, shape (b, n), as a run asks for them (``ProblemSpec``); a
    scalar t gives shape (n,).  Each row equals the value at its one time.
    The source and exact solution evaluate their x-only factors once per
    grid; only kappa(x, t) and t^gamma are computed at every call.
    """
    if name not in _KAPPA:
        raise KeyError(f"unknown case {name!r}; available: {tuple(_KAPPA)}")
    s = 3 if name == "example1" else 1
    kappa = _KAPPA[name]
    last = [None, None, None]  # the last grid's bytes, shape and _factors

    def factors(x):
        # compared, not hashed: a grid mutated in place differs
        data = x.tobytes()
        if data != last[0] or x.shape != last[1]:
            last[:] = data, x.shape, _factors(s, alpha, gamma, x)
        return last[2]

    def source(x, t):
        x = np.asarray(x, dtype=float)
        return _source(factors(x), kappa, gamma, x, t)

    def exact(x, t):
        return factors(np.asarray(x, dtype=float))[1] * _time_factor(t, gamma)

    spec = ProblemSpec(
        gamma=gamma,
        alpha=alpha,
        l=1.0,
        T=T,
        kappa=kappa,
        source=source,
        initial=lambda x: _bump(x, s + alpha / 2.0),
        exact=exact,
    )
    return ManufacturedCase(s=s, spec=spec)
