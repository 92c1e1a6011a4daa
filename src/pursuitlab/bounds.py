"""Closed-form convergence rates and error coefficients for SP and CoSaMP.

Each formula family maps an isometry constant ``delta`` to a per-iteration
contraction factor ``rho`` and an error coefficient ``tau`` such that the
iterates of the corresponding algorithm obey

    ||x_s - x^n||  <=  rho * ||x_s - x^(n-1)||  +  (1 - rho) * tau * ||e'||,

hence ``||x_s - x^n|| <= rho^n ||x_s|| + tau ||e'||`` whenever ``rho < 1``
(``x_s`` the best s-term approximation of the signal, ``e'`` the total
perturbation).  Families:

* ``SP``              - subspace pursuit, signal-error metric (delta at order 3s):
                        rho = sqrt(2 d^2 (1 + d^2)) / (1 - d^2).
* ``SP-tail-metric``  - subspace pursuit, energy outside the current support;
                        same rho as ``SP``, different tau.
* ``CoSaMP``          - compressive sampling matching pursuit (order 4s):
                        rho = sqrt(2 d^2 (1 + 2 d^2) / (1 - d^2)).
* ``SP-LBJ-prior``    - earlier published SP bound (LBJ), for comparison.
* ``SP-DM-prior``     - the original SP bound (DM), tail metric, for comparison.

``rho`` is strictly increasing in ``delta`` on each validity interval, so
thresholds are obtained by bisection; the known closed forms (for ``SP``
rho < 1 iff delta^4 + 4 delta^2 - 1 < 0, i.e. delta < sqrt(sqrt(5) - 2);
for ``CoSaMP`` rho < 1 iff 4 delta^4 + 3 delta^2 - 1 < 0, i.e. delta < 1/2)
are exercised as test oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import nextafter, sqrt, ulp

from .linalg import check_integer, check_real

SP = "SP"
SP_TAIL = "SP-tail-metric"
COSAMP = "CoSaMP"
SP_LBJ = "SP-LBJ-prior"
SP_DM = "SP-DM-prior"

FAMILIES = (SP, SP_TAIL, COSAMP, SP_LBJ, SP_DM)

# Accepted spellings for CLI/config use.
_ALIASES = {
    "sp": SP,
    "sp-tail": SP_TAIL,
    "sp-tail-metric": SP_TAIL,
    "cosamp": COSAMP,
    "sp-lbj": SP_LBJ,
    "sp-lbj-prior": SP_LBJ,
    "sp-dm": SP_DM,
    "sp-dm-prior": SP_DM,
}

_BISECT_TOL = 1e-9

# The largest float below 1: every formula needs delta < 1.
DELTA_MAX = nextafter(1.0, 0.0)


@dataclass(frozen=True)
class BoundReport:
    """Rate and error coefficient of one formula family at one delta.

    ``tau`` is the steady-state error coefficient (the printed closed forms
    give (1 - rho) * tau; it is divided out here).  When ``rho >= 1`` the
    recursion does not contract, ``valid`` is False and ``tau`` is None.
    ``threshold_rho1`` is the supremum of deltas with rho < 1 and
    ``threshold_rho_half`` solves rho = 1/2.
    """

    algorithm: str
    delta: float
    rho: float
    tau: float | None
    valid: bool
    threshold_rho1: float
    threshold_rho_half: float


def canonical_family(name: str) -> str:
    """Resolve a family name or alias to its canonical spelling."""
    if name in FAMILIES:
        return name
    key = name.strip().lower() if isinstance(name, str) else None
    if key in _ALIASES:
        return _ALIASES[key]
    raise ValueError(f"unknown formula family {name!r}; expected one of {FAMILIES}")


def _sp_rho(d: float) -> float:
    return sqrt(2.0 * d * d * (1.0 + d * d)) / (1.0 - d * d)


def _sp_scaled_tau(d: float) -> float:
    # (1 - rho) * tau for the SP signal-error metric.
    t1 = (sqrt(2.0 * (1.0 - d)) + sqrt(1.0 + d)) / (1.0 - d)
    return sqrt(2.0 * d * d / (1.0 - d * d)) * t1 + (
        2.0 * sqrt(2.0 * (1.0 - d)) + sqrt(1.0 + d)
    ) / (1.0 - d)


def _sp_tail_scaled_tau(d: float) -> float:
    # (1 - rho) * tau for the SP tail-energy metric; rho is shared with SP.
    # The sqrt((1+d)/(1-d)) factor pins the published constants (11.3213 at
    # d = 0.3063) and dominates the tight derivation, so the recursion bound
    # stays valid.
    return (sqrt(2.0) * d * sqrt(1.0 + d) / (1.0 - d)) * (
        sqrt((1.0 + d) / (1.0 - d)) + 1.0
    ) + 2.0 * sqrt(2.0 * (1.0 + d)) + 2.0 * d / sqrt(1.0 - d)


def _cosamp_rho(d: float) -> float:
    return sqrt(2.0 * d * d * (1.0 + 2.0 * d * d) / (1.0 - d * d))


def _cosamp_scaled_tau(d: float) -> float:
    return (sqrt(2.0) + 1.0) * d * (
        sqrt(2.0 * (1.0 - d)) + sqrt(1.0 + d)
    ) / (1.0 - d) + (2.0 * sqrt(2.0) + 1.0) * sqrt(1.0 + d)


def _lbj_gain(d: float) -> float:
    return max(1.0 / (1.0 - d) ** 2, 2.0 / (1.0 + 2.0 * d + 2.0 * d * d))


def _lbj_rho(d: float) -> float:
    return d * sqrt(1.0 + d) / sqrt(1.0 - d) * _lbj_gain(d)


def _lbj_scaled_tau(d: float) -> float:
    return (
        sqrt(1.0 + d) / (1.0 - d)
        + 1.0 / (sqrt(1.0 - d) * (1.0 - d))
        + 2.0 * (1.0 + d) ** 2 / (sqrt(1.0 - d) * (1.0 - d)) * _lbj_gain(d)
    )


def _dm_rho(d: float) -> float:
    return 2.0 * d * (1.0 + d) / (1.0 - d) ** 3


def _dm_scaled_tau(d: float) -> float:
    return 4.0 * (1.0 + d) / (1.0 - d) ** 2


_RHO = {SP: _sp_rho, SP_TAIL: _sp_rho, COSAMP: _cosamp_rho, SP_LBJ: _lbj_rho, SP_DM: _dm_rho}
_SCALED_TAU = {
    SP: _sp_scaled_tau,
    SP_TAIL: _sp_tail_scaled_tau,
    COSAMP: _cosamp_scaled_tau,
    SP_LBJ: _lbj_scaled_tau,
    SP_DM: _dm_scaled_tau,
}


def delta_for_rho(family: str, target_rho: float) -> float:
    """Invert rho(delta) = target_rho by bisection on [0, 1).

    Absolute tolerance 1e-8 on delta; every family's rho is continuous,
    zero at delta = 0 and above 1 at the bracket's top, 1 - 1e-9 (a test
    pins this), so any target in (0, 1] lies in the bracket.
    """
    family = canonical_family(family)
    check_real(target_rho, "target_rho", ulp(0.0), 1)  # 0 < target_rho <= 1
    rho = _RHO[family]
    lo, hi = 0.0, 1.0 - 1e-9
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if rho(mid) < target_rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def _thresholds(family: str) -> tuple[float, float]:
    return delta_for_rho(family, 1.0), delta_for_rho(family, 0.5)


def bounds_for(family: str, delta: float) -> BoundReport:
    """Report for any family by name or alias at ``delta``."""
    family = canonical_family(family)
    check_real(delta, "delta", 0, DELTA_MAX)
    delta = float(delta)
    rho = _RHO[family](delta)
    valid = rho < 1.0
    tau = _SCALED_TAU[family](delta) / (1.0 - rho) if valid else None
    rho1, rho_half = _thresholds(family)
    return BoundReport(
        algorithm=family,
        delta=delta,
        rho=rho,
        tau=tau,
        valid=valid,
        threshold_rho1=rho1,
        threshold_rho_half=rho_half,
    )


def error_envelope(
    report: BoundReport,
    n: int,
    x_s_norm: float,
    e_prime_norm: float,
) -> float:
    """Guaranteed error ceiling after ``n`` iterations:
    rho^n * ||x_s|| + tau * ||e'||.  Requires a contracting report."""
    check_integer(n, "n", 0)
    check_real(x_s_norm, "x_s_norm", 0)
    check_real(e_prime_norm, "e_prime_norm", 0)
    if not report.valid or report.tau is None:
        raise ValueError(
            f"no error envelope: rho = {report.rho:.4f} >= 1 at delta = {report.delta:.4f}"
        )
    return report.rho**n * x_s_norm + report.tau * e_prime_norm
