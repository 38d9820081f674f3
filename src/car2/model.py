"""Parameter algebra for the CAR(2) equation.

The model is the second-order SDE

    X''(t) = theta1*X'(t) + theta2*X(t) + sigma*W'(t),

read rigorously as the first-order system dX = X' dt,
dX' = (theta2*X + theta1*X') dt + sigma dW.  Everything downstream is
controlled by the roots p, q of r^2 - theta1*r - theta2 = 0: this module
computes them, classifies the (theta1, theta2) plane into the nine
asymptotic regimes, evaluates the fundamental solutions x1, x2 of the
noiseless equation, and assembles the exact one-step Gaussian transition
kernel of the state (X, X').

All operations are pure functions of their arguments; returned values are
immutable records (NamedTuples) safe to share across threads.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelParams",
    "RootPair",
    "RegimeKind",
    "Regime",
    "FundamentalValues",
    "TransitionKernel",
    "char_roots",
    "classify",
    "classify_params",
    "default_tol",
    "fundamental_solutions",
    "transition",
]

# Real roots closer (relatively) than this use the double-root limit branch.
DOUBLE_ROOT_SWITCH = 1e-6


def check_number(name: str, value) -> None:
    """Raise TypeError unless value is a real number (bool is not one), and
    ValueError unless it is finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Model parameters: drift pair (theta1, theta2), noise scale, start state.

    Units, with X dimensionless and t in time units: theta1 ~ 1/t,
    theta2 ~ 1/t^2, sigma ~ t^(-3/2), dx0 ~ 1/t.
    """

    theta1: float
    theta2: float
    sigma: float = 1.0
    x0: float = 0.0
    dx0: float = 0.0

    def __post_init__(self):
        for name in ("theta1", "theta2", "sigma", "x0", "dx0"):
            check_number(name, getattr(self, name))
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


class RootPair(NamedTuple):
    """Characteristic roots, p with the larger real part.

    Complex roots are stored as a conjugate pair with Im(p) > 0.
    Invariants: p + q = theta1 and p*q = -theta2.
    """

    p: complex
    q: complex

    @property
    def is_complex(self) -> bool:
        return self.p.imag != 0.0

    @property
    def lam(self) -> float:
        """Common real part (only meaningful for a complex pair)."""
        return self.p.real

    @property
    def nu(self) -> float:
        """Positive imaginary part of p (0 for real roots)."""
        return self.p.imag

    @property
    def theta1(self) -> float:
        return (self.p + self.q).real

    @property
    def theta2(self) -> float:
        return -(self.p * self.q).real


class RegimeKind(enum.Enum):
    ERGODIC = "Ergodic"
    OPPOSITE_SIGN = "OppositeSign"
    DISTINCT_POSITIVE = "DistinctPositive"
    POSITIVE_DOUBLE = "PositiveDouble"
    LARGER_ROOT_ZERO = "LargerRootZero"
    SMALLER_ROOT_ZERO = "SmallerRootZero"
    ZERO_DOUBLE = "ZeroDouble"
    HARMONIC = "Harmonic"
    UNSTABLE_OSCILLATION = "UnstableOscillation"


class Regime(NamedTuple):
    """A regime with the roots classify assigned it from, so the two agree."""

    tag: RegimeKind
    roots: RootPair


class FundamentalValues(NamedTuple):
    """x1, x2 and their time derivatives at one or more times.

    x1, x2 solve x'' - theta1 x' - theta2 x = 0 with x1(0)=1, x1'(0)=0,
    x2(0)=0, x2'(0)=1.
    """

    x1: np.ndarray | float
    x2: np.ndarray | float
    dx1: np.ndarray | float
    dx2: np.ndarray | float


class TransitionKernel(NamedTuple):
    """Exact one-step Gaussian transition over a step of length h.

    mean_matrix maps the state (X, X'); cov_matrix is the 3x3 covariance of
    (dW, sigma*int x2(h-s) dW, sigma*int x2'(h-s) dW) — the driving noise
    increment plus the noise injected into position and velocity.
    """

    mean_matrix: np.ndarray
    cov_matrix: np.ndarray


def char_roots(params: ModelParams) -> RootPair:
    """Roots of r^2 - theta1*r - theta2 = 0, ordered by real part.

    The smaller-magnitude real root is recovered from p*q = -theta2 to
    avoid cancellation when the discriminant is large.
    """
    t1, t2 = params.theta1, params.theta2
    disc = t1 * t1 + 4.0 * t2
    if disc < 0.0:
        nu = math.sqrt(-disc) / 2.0
        lam = t1 / 2.0
        return RootPair(complex(lam, nu), complex(lam, -nu))
    s = math.sqrt(disc)
    # Root of larger magnitude first: theta1 and s have matching sign there.
    big = (t1 + math.copysign(s, t1)) / 2.0
    if big == 0.0:
        return RootPair(0j, 0j)
    other = -t2 / big
    p, q = (big, other) if big >= other else (other, big)
    return RootPair(complex(p, 0.0), complex(q, 0.0))


def default_tol(roots: RootPair) -> float:
    """Classification tolerance 1e-9 * (1 + |theta1| + |theta2|)."""
    return 1e-9 * (1.0 + abs(roots.theta1) + abs(roots.theta2))


def classify(roots: RootPair, tol: float | None = None) -> Regime:
    """Assign one of the nine asymptotic regimes; the Regime keeps roots.

    Root components with magnitude <= tol are snapped to zero, and the pair
    is declared a double root when |p - q| <= tol*(1 + |p| + |q|).  The
    boundary policy is ours: the theory assumes exact arithmetic.
    """
    if tol is None:
        tol = default_tol(roots)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")

    def snap(value: float) -> float:
        return 0.0 if abs(value) <= tol else value

    p, q = roots.p, roots.q
    im = snap(abs(p.imag))
    if im > 0.0:
        lam = snap(p.real)
        if lam < 0.0:
            kind = RegimeKind.ERGODIC
        elif lam == 0.0:
            kind = RegimeKind.HARMONIC
        else:
            kind = RegimeKind.UNSTABLE_OSCILLATION
        return Regime(kind, roots)

    p_re, q_re = snap(p.real), snap(q.real)
    double = abs(p_re - q_re) <= tol * (1.0 + abs(p_re) + abs(q_re))
    if double:
        root = (p_re + q_re) / 2.0
        if root > 0.0:
            kind = RegimeKind.POSITIVE_DOUBLE
        elif root == 0.0:
            kind = RegimeKind.ZERO_DOUBLE
        else:
            kind = RegimeKind.ERGODIC
    elif p_re < 0.0:
        kind = RegimeKind.ERGODIC
    elif p_re == 0.0:
        kind = RegimeKind.LARGER_ROOT_ZERO
    elif q_re < 0.0:
        kind = RegimeKind.OPPOSITE_SIGN
    elif q_re == 0.0:
        kind = RegimeKind.SMALLER_ROOT_ZERO
    else:
        kind = RegimeKind.DISTINCT_POSITIVE
    return Regime(kind, roots)


def classify_params(params: ModelParams, tol: float | None = None) -> Regime:
    return classify(char_roots(params), tol)


def _branch(roots: RootPair, t_max: float) -> str:
    if roots.is_complex:
        return "complex"
    gap = abs(roots.p.real - roots.q.real)
    if gap * max(t_max, 1.0) < DOUBLE_ROOT_SWITCH:
        return "double"
    return "distinct"


def _fs_distinct(p: float, q: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    ep, eq = np.exp(p * t), np.exp(q * t)
    x1 = (q * ep - p * eq) / (q - p)
    x2 = (ep - eq) / (p - q)
    dx2 = (p * ep - q * eq) / (p - q)
    return x1, x2, dx2


def _fs_double(p: float, q: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    # Limit form around the midpoint m: sinh(dt)/d and cosh(dt) are stable for
    # any gap 2d, including d = 0 exactly.
    m = (p + q) / 2.0
    d = (p - q) / 2.0
    emt = np.exp(m * t)
    if d == 0.0:
        g, c = t, np.ones_like(t)
    else:
        g, c = np.sinh(d * t) / d, np.cosh(d * t)
    x1 = emt * (c - m * g)
    x2 = emt * g
    dx2 = emt * (c + m * g)
    return x1, x2, dx2


def _fs_complex(lam: float, nu: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    elt = np.exp(lam * t)
    s, c = np.sin(nu * t), np.cos(nu * t)
    g = s / nu
    x1 = elt * (c - lam * g)
    x2 = elt * g
    dx2 = elt * (c + lam * g)
    return x1, x2, dx2


def fundamental_solutions(roots: RootPair, t) -> FundamentalValues:
    """Evaluate x1, x2, x1', x2' at t >= 0 (scalar or array).

    Three branches: distinct real roots (plain exponentials), nearly or
    exactly coincident real roots (sinh/cosh limit form, immune to the
    cancellation in (e^pt - e^qt)/(p - q)), and a complex pair (real
    trigonometric arithmetic).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if t_arr.size and t_arr.min() < 0:
        raise ValueError("t must be >= 0")

    branch = _branch(roots, float(t_arr.max()) if t_arr.size else 0.0)
    if branch == "complex":
        x1, x2, dx2 = _fs_complex(roots.lam, roots.nu, t_arr)
    elif branch == "double":
        x1, x2, dx2 = _fs_double(roots.p.real, roots.q.real, t_arr)
    else:
        x1, x2, dx2 = _fs_distinct(roots.p.real, roots.q.real, t_arr)
    dx1 = roots.theta2 * x2

    if scalar:
        return FundamentalValues(float(x1[0]), float(x2[0]), float(dx1[0]), float(dx2[0]))
    return FundamentalValues(x1, x2, dx1, dx2)


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 without cancellation near z = 0 (complex argument)."""
    if abs(z) < 1e-4:
        # z*(1 + z/2*(1 + z/3*(1 + z/4*(1 + z/5))))
        return z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0 * (1.0 + z / 5.0))))
    return np.exp(z) - 1.0


def _e1(z: complex, h: float) -> complex:
    """int_0^h exp(z*u) du: h where z*h is 0 or subnormal (dividing its expm1 by z fails)."""
    if abs(z * h) < sys.float_info.min:
        return complex(h)
    return _cexpm1(z * h) / z


def _m1(a: float, h: float) -> float:
    """int_0^h u*exp(a*u) du."""
    w = a * h
    if abs(w) < 1e-3:
        return h * h * (1 / 2 + w * (1 / 3 + w * (1 / 8 + w * (1 / 30 + w * (1 / 144 + w / 840)))))
    return (h * math.exp(w) - _e1(a, h).real) / a


def _m2(a: float, h: float) -> float:
    """int_0^h u^2*exp(a*u) du."""
    w = a * h
    if abs(w) < 1e-3:
        return h**3 * (1 / 3 + w * (1 / 4 + w * (1 / 10 + w * (1 / 36 + w * (1 / 168 + w / 960)))))
    return (h * h * math.exp(w) - 2.0 * _m1(a, h)) / a


def _noise_integrals_closed(roots: RootPair, h: float) -> tuple[float, float, float]:
    """(int x2, int x2^2, int x2'^2) over [0, h], branch-wise closed forms."""
    if _branch(roots, h) == "double":
        q = (roots.p.real + roots.q.real) / 2.0
        i_x2 = _m1(q, h)
        i_x2sq = _m2(2.0 * q, h)
        i_dx2sq = _e1(2.0 * q, h).real + 2.0 * q * _m1(2.0 * q, h) + q * q * _m2(2.0 * q, h)
        return i_x2, i_x2sq, i_dx2sq
    # Distinct roots, real or conjugate complex: complex arithmetic, real result.
    p, q = roots.p, roots.q
    dpq = p - q
    i_x2 = ((_e1(p, h) - _e1(q, h)) / dpq).real
    e2p, epq, e2q = _e1(2.0 * p, h), _e1(p + q, h), _e1(2.0 * q, h)
    i_x2sq = ((e2p - 2.0 * epq + e2q) / (dpq * dpq)).real
    i_dx2sq = ((p * p * e2p - 2.0 * p * q * epq + q * q * e2q) / (dpq * dpq)).real
    return i_x2, i_x2sq, i_dx2sq


def transition(params: ModelParams, h: float) -> TransitionKernel:
    """Exact transition kernel over a step of length h > 0.

    mean_matrix = [[x1(h), x2(h)], [x1'(h), x2'(h)]].  Covariance entries
    are sigma-scaled integrals of {1, x2, x2'} products over [0, h] in
    closed form; the (dW, dW) entry is h exactly, int x2*x2' = x2(h)^2/2
    and int x2' = x2(h).
    """
    if not (isinstance(h, (int, float)) and math.isfinite(h)) or h <= 0:
        raise ValueError(f"step h must be a positive finite real, got {h}")
    h = float(h)
    roots = char_roots(params)
    fs = fundamental_solutions(roots, h)
    mean = np.array([[fs.x1, fs.x2], [fs.dx1, fs.dx2]])

    cov = np.zeros((3, 3))
    cov[0, 0] = h
    if params.sigma > 0.0:
        i_x2, i_x2sq, i_dx2sq = _noise_integrals_closed(roots, h)
        s = params.sigma
        cov[0, 1] = cov[1, 0] = s * i_x2
        cov[0, 2] = cov[2, 0] = s * fs.x2
        cov[1, 1] = s * s * i_x2sq
        cov[1, 2] = cov[2, 1] = s * s * fs.x2 * fs.x2 / 2.0
        cov[2, 2] = s * s * i_dx2sq
    return TransitionKernel(mean_matrix=mean, cov_matrix=cov)
