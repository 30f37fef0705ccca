"""Scheme parameters: exponent selection, validation, and the step scales.

The game needs five exponents (alpha, beta, gamma, rho, kappa) tied
together by a web of strict inequalities parameterized by the growth
exponents (q, r) of the nonlinearity.  ``select_exponents`` picks a
deterministic feasible tuple (midpoint-of-feasible-interval, resolved in
the order alpha, gamma, beta, rho, kappa); ``validate_params`` names every
violated inequality so configuration errors fail loudly.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GameParams",
    "ValidationError",
    "select_exponents",
    "validate_params",
    "make_params",
]

class ValidationError(ValueError):
    """A parameter tuple violates the scheme's admissibility inequalities."""


@dataclass(frozen=True)
class GameParams:
    """Step scale and exponents of one game discretization.

    ``eps`` is the step scale (time step ``eps**2``, move bound
    ``eps**(1-alpha)``, control caps ``eps**-beta`` / ``eps**-gamma``).
    ``lambda_rate`` is the discount rate of the elliptic game (0 for
    parabolic runs); ``cap_M`` is the elliptic score cap, from which
    ``game_elliptic.build_caps`` derives the inner cap
    ``cap_m = cap_M - 1 - 2 sup|psi|``.  ``p_grid_half`` = k sizes the
    boundary-layer gradient line: 2k+1 samples between the two extreme
    Neumann corrections.
    """

    eps: float
    alpha: float
    beta: float
    gamma: float
    rho: float
    kappa: float
    lambda_rate: float = 0.0
    cap_M: float | None = None
    p_grid_half: int = 4

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValidationError(f"eps must lie in (0, 1), got {self.eps}")
        if self.lambda_rate < 0.0:
            raise ValidationError(f"lambda_rate must be >= 0, got {self.lambda_rate}")
        if self.p_grid_half < 1:
            raise ValidationError(f"p_grid_half must be >= 1, got {self.p_grid_half}")

    @property
    def time_step(self) -> float:
        return self.eps**2

    @property
    def move_bound(self) -> float:
        """Mark's maximal step length eps^(1-alpha)."""
        return self.eps ** (1.0 - self.alpha)

    @property
    def p_bound(self) -> float:
        """Helen's gradient-control cap eps^-beta."""
        return self.eps ** (-self.beta)

    @property
    def hessian_bound(self) -> float:
        """Helen's curvature-control cap eps^-gamma (spectral norm)."""
        return self.eps ** (-self.gamma)


def validate_params(p: GameParams, q: float, r: float) -> list[str]:
    """Report every violated admissibility inequality by name.

    Returns an empty list iff all inequalities hold strictly.  The report
    strings name the equation family and quote the inequality.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    rho, kap = p.rho, p.kappa
    v: list[str] = []
    if not a < 1.0 / 3.0:
        v.append(f"condition_pas violated: alpha < 1/3 (alpha={a:g})")
    if not a + b < 1.0:
        v.append(f"cd_coeff_gen: alpha + beta < 1 violated (alpha={a:g}, beta={b:g})")
    if not 2.0 * a + g < 2.0:
        v.append(f"cd_coeff_gen: 2 alpha + gamma < 2 violated (alpha={a:g}, gamma={g:g})")
    if not max(b * q, b * r) < 2.0:
        v.append(f"cd_coeff_gen: max(beta q, beta r) < 2 violated (beta={b:g}, q={q:g}, r={r:g})")
    if not g < 1.0 - a:
        v.append(f"cd_coeff_classiq: gamma < 1−alpha violated (gamma={g:g}, alpha={a:g})")
    if not b * (q - 1.0) < a + 1.0:
        v.append(f"cd_coeff_classiq: beta (q−1) < alpha + 1 violated (beta={b:g}, q={q:g})")
    if not g * (r - 1.0) < 2.0 * a:
        v.append(f"cd_coeff_classiq: gamma (r−1) < 2 alpha violated (gamma={g:g}, r={r:g})")
    if not g * r < 1.0 + a:
        v.append(f"cd_coeff_classiq: gamma r < 1 + alpha violated (gamma={g:g}, r={r:g})")
    rho_hi = min(1.0 - g * (r - 1.0) / 2.0, 2.0 - 2.0 * a - g)
    if not 1.0 - a < rho:
        v.append(f"def_nul: 1−alpha < rho violated (rho={rho:g}, alpha={a:g})")
    if not rho < rho_hi:
        v.append(
            "def_nul: rho < min(1 − gamma (r−1)/2, 2 − 2 alpha − gamma) "
            f"violated (rho={rho:g}, bound={rho_hi:g})"
        )
    if not g + rho - (1.0 - a) < kap:
        v.append(
            "relation_gamma_nul_tilde: gamma + rho − (1−alpha) < kappa violated "
            f"(kappa={kap:g})"
        )
    if not kap < 1.0 - a:
        v.append(
            f"relation_gamma_nul_tilde: kappa < 1−alpha violated (kappa={kap:g}, alpha={a:g})"
        )
    return v


def select_exponents(q: float, r: float) -> tuple[float, float, float, float, float]:
    """Deterministic feasible exponents (alpha, beta, gamma, rho, kappa).

    Midpoint of the feasible interval for each exponent, resolved in the
    order alpha, gamma, beta, rho, kappa (each interval conditioned on the
    earlier picks; lower bounds default to 0 where no constraint applies).
    """
    assert q >= 1.0 and r >= 1.0, "growth exponents must be >= 1"
    alpha = 0.5 * (1.0 / 3.0)
    gamma_hi = min(2.0 - 2.0 * alpha, 1.0 - alpha, (1.0 + alpha) / r)
    if r > 1.0:
        gamma_hi = min(gamma_hi, 2.0 * alpha / (r - 1.0))
    gamma = 0.5 * gamma_hi
    beta_hi = min(1.0 - alpha, 2.0 / max(q, r))
    if q > 1.0:
        beta_hi = min(beta_hi, (alpha + 1.0) / (q - 1.0))
    beta = 0.5 * beta_hi
    rho_lo = 1.0 - alpha
    rho_hi = min(1.0 - gamma * (r - 1.0) / 2.0, 2.0 - 2.0 * alpha - gamma)
    rho = 0.5 * (rho_lo + rho_hi)
    kappa_lo = max(0.0, gamma + rho - (1.0 - alpha))
    kappa = 0.5 * (kappa_lo + (1.0 - alpha))
    return alpha, beta, gamma, rho, kappa


def make_params(
    eps: float,
    q: float = 1.0,
    r: float = 1.0,
    *,
    lambda_rate: float = 0.0,
    cap_M: float | None = None,
    p_grid_half: int = 4,
    **overrides: float,
) -> GameParams:
    """Build a validated GameParams, raising ValidationError on violation.

    Exponents default to ``select_exponents(q, r)``; individual exponents
    can be overridden by keyword (alpha=..., beta=..., ...).
    """
    if not (q >= 1.0 and r >= 1.0):
        raise ValidationError(f"growth exponents must be >= 1, got q={q:g}, r={r:g}")
    alpha, beta, gamma, rho, kappa = select_exponents(q, r)
    fields = {"alpha": alpha, "beta": beta, "gamma": gamma, "rho": rho, "kappa": kappa}
    for key, val in overrides.items():
        if key not in fields:
            raise TypeError(f"unknown exponent override {key!r}")
        fields[key] = float(val)
    p = GameParams(
        eps=eps, lambda_rate=lambda_rate, cap_M=cap_M, p_grid_half=p_grid_half, **fields
    )
    report = validate_params(p, q, r)
    if report:
        raise ValidationError("; ".join(report))
    return p
