"""Simulation data generators and ground-truth recovery protocols.

The density generator draws two-component Gaussian mixtures truncated to
[0,1] with group-specific parameter laws; the curve generator perturbs a
unit circle with two von Mises bumps, one fixed pointing north and one whose
angular location carries a controlled cross-group correlation. The recovery
protocols synthesize data with known canonical structure, push it through
the full estimation pipeline, and report true versus re-estimated canonical
correlations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cca import cca
from .density import Pdf, srt_inverse
from .errors import ValidationError
from .fpca import coefficients, tangent_mode_pipeline
from .numerics import DiscreteFunction, Grid
from .shape import Curve
from .sphere import TangentVector, Tangents, _transport_rows, exp_map

PDF_GROUPS = (1, 2, 3)
CURVE_REGIMES = ("high", "moderate", "weak")
# exact sample correlations imposed on the second-bump locations
REGIME_CORRELATION = {"high": 0.995, "moderate": 0.48, "weak": 0.05}

NORTH_ANGLE = np.pi / 2
SECOND_BUMP_BASE = 3 * np.pi / 2
BUMP_AMPLITUDE = 0.3
BUMP_KAPPA = 20.0
# the shared north peak is taller than the moving peak, and a broad low
# concentration swell toward north makes the whole outline egg-shaped;
# without it a half-turn roll plus rotation is a competitive registration
# basin (the two peaks sit half a turn apart) and curve-to-curve basin flips
# wreck the tangent coordinates
NORTH_AMPLITUDE = 0.45
NORTH_KAPPA = 20.0
ANCHOR_AMPLITUDE = 0.25
ANCHOR_KAPPA = 1.5
# spreads kept small enough that tangent coordinates stay near-linear in the
# latent location; group 1 varies slightly, group 2 several times more
LOCATION_SPREAD = (0.06, 0.12)
KAPPA_RANGE = (14.0, 28.0)  # group 2 peak thickness range

# recovery protocols: subjects per group, the density grid, the coefficient
# scale of the synthesized densities and the rank of the shape bases
RECOVERY_N = 100
RECOVERY_PDF_GRID = 1000
RECOVERY_PDF_SCALE = 0.03
RECOVERY_SHAPE_RANK = 3


@dataclass(frozen=True)
class PdfSimSpec:
    group: int
    n: int
    grid: Grid = field(default_factory=lambda: Grid(1000))
    rng_seed: int = 0

    def __post_init__(self):
        if self.group not in PDF_GROUPS:
            raise ValidationError(f"group must be one of {PDF_GROUPS}")
        if self.n < 1:
            raise ValidationError("n must be positive")


@dataclass(frozen=True)
class CurveSimSpec:
    regime: str
    n: int
    grid: Grid = field(default_factory=lambda: Grid(200))
    rng_seed: int = 0

    def __post_init__(self):
        if self.regime not in CURVE_REGIMES:
            raise ValidationError(f"regime must be one of {CURVE_REGIMES}")
        if self.n < 3:
            # two centred draws span one direction, so the second latent,
            # orthogonalized against the first, would be zero
            raise ValidationError(
                "n must be >= 3: the paired latents need two centred directions")


def _normal_pdf(t, mu, sigma):
    return np.exp(-0.5 * ((t - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))


def _draw_mixture_params(group: int, rng) -> tuple:
    mu1 = 0.3 if group in (1, 2) else rng.uniform(0.1, 0.4)
    mu2 = rng.uniform(0.6, 0.8)
    sigma1 = 0.1 if group in (1, 2) else rng.uniform(0.1, 0.3)
    sigma2 = 0.1 if group == 1 else rng.uniform(0.1, 0.2)
    return mu1, mu2, sigma1, sigma2


def gen_pdf_group(spec: PdfSimSpec) -> list:
    """Draw n equal-weight two-Gaussian mixtures truncated to [0,1]."""
    rng = np.random.default_rng(spec.rng_seed)
    t = spec.grid.points
    out = []
    for _ in range(spec.n):
        mu1, mu2, s1, s2 = _draw_mixture_params(spec.group, rng)
        vals = 0.5 * _normal_pdf(t, mu1, s1) + 0.5 * _normal_pdf(t, mu2, s2)
        out.append(Pdf.from_unnormalized(vals, spec.grid))
    return out


def _correlated_standard_pair(n: int, rho: float, rng):
    """Two standardized n-vectors whose sample correlation is exactly rho.

    Draws are rejected until the second-order channels behave like their
    population values for a bivariate normal: corr(a^2, w^2) near rho^2 and
    the odd-even cross moments near zero. Canonical correlations pick up any
    nonlinear channel shared by the two latents, so a weak-regime draw with
    an accidentally correlated quadratic part would not be weak in practice.
    """

    def _c(x, y):
        return abs(np.corrcoef(x, y)[0, 1])

    for _ in range(500):
        u0 = rng.standard_normal(n)
        w0 = rng.standard_normal(n)
        a = (u0 - u0.mean()) / u0.std()
        b = w0 - w0.mean()
        b = b - (b @ a) / (a @ a) * a
        b = b / b.std()
        w = rho * a + np.sqrt(1.0 - rho * rho) * b
        if (
            _c(a * a, w * w) <= rho * rho + 0.06
            and _c(a, w * w) <= 0.06
            and _c(a * a, w) <= 0.06
        ):
            return a, w
    return a, w


def _bump(theta, center, kappa):
    return np.exp(kappa * (np.cos(theta - center) - 1.0))


def gen_curve_group(spec: CurveSimSpec, group: int):
    """Curves of one group plus their latent second-bump locations.

    Both groups of a spec share the latent draw: calling with group=1 and
    group=2 under the same spec yields paired samples whose second-bump
    locations have exactly the regime's sample correlation. Every curve is a
    unit circle with a fixed bump pointing north and a second bump at the
    latent angle. Group 1's second bump has concentration BUMP_KAPPA; group
    2's is drawn from KAPPA_RANGE per curve.
    """
    if group not in (1, 2):
        raise ValidationError("group must be 1 or 2")
    rng = np.random.default_rng(spec.rng_seed)
    a, w = _correlated_standard_pair(spec.n, REGIME_CORRELATION[spec.regime], rng)
    if group == 1:
        z, kappas = a, np.full(spec.n, BUMP_KAPPA)
    else:
        z, kappas = w, rng.uniform(*KAPPA_RANGE, spec.n)
    locs = SECOND_BUMP_BASE + LOCATION_SPREAD[group - 1] * z

    theta = 2 * np.pi * spec.grid.points
    curves = []
    for loc, kap in zip(locs, kappas):
        r = (
            1.0
            + ANCHOR_AMPLITUDE * _bump(theta, NORTH_ANGLE, ANCHOR_KAPPA)
            + NORTH_AMPLITUDE * _bump(theta, NORTH_ANGLE, NORTH_KAPPA)
            + BUMP_AMPLITUDE * _bump(theta, loc, kap)
        )
        vals = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        vals[-1] = vals[0]
        curves.append(Curve(DiscreteFunction(spec.grid, vals, periodic=True)))
    return curves, locs


@dataclass(frozen=True)
class PdfRecovery:
    rho_truth: np.ndarray
    rho_hat: np.ndarray
    coeffs_1: np.ndarray
    coeffs_2: np.ndarray


@dataclass(frozen=True)
class ShapeRecovery:
    rho_truth: float
    rho_separate: np.ndarray
    rho_transport: np.ndarray
    peak_locations: tuple


def _child_seed(rng_seed: int, index: int) -> int:
    return int(np.random.SeedSequence((rng_seed, index)).generate_state(1)[0])


def _synthesize(mean, basis, coeffs):
    """New densities exp_mean(sum_j x_j e_j)^2 from coefficient rows scaled
    by RECOVERY_PDF_SCALE."""
    rows = RECOVERY_PDF_SCALE * coeffs
    return [srt_inverse(exp_map(mean.p, basis.direction(row))) for row in rows]


def recovery_protocol_pdf(
    r: int,
    mode: str = "separate",
    rng_seed: int = 0,
    groups: tuple = (1, 2),
    rho_targets=None,
) -> PdfRecovery:
    """Six-step canonical-correlation recovery study for densities.

    1. draw paired Gaussian coefficient vectors with diagonal cross-covariance
       and compute their sample CCA (the ground truth);
    2. generate two carrier groups of mixture densities;
    3. fit per-group Karcher means and rank-r eigenbases (the separate
       layout of tangent_mode_pipeline);
    4. synthesize new densities from the coefficients along those per-group
       bases (the synthesis is the same for every mode, so the modes are
       compared on identical data);
    5. re-estimate means, tangents, bases and coefficient matrices from the
       synthesized densities with tangent_mode_pipeline under the requested
       mode (separate or pooled);
    6. run CCA on the re-estimated coefficients.

    Each group has RECOVERY_N densities on a RECOVERY_PDF_GRID-point grid.
    The coefficient scale RECOVERY_PDF_SCALE keeps the synthesized sphere
    points inside the region where the tangent linearization is accurate;
    recovery error grows quadratically with it.
    """
    if mode not in ("separate", "pooled"):
        raise ValidationError("mode must be 'separate' or 'pooled'")
    if r < 1:
        raise ValidationError("r must be positive")
    n, grid = RECOVERY_N, Grid(RECOVERY_PDF_GRID)
    if rho_targets is None:
        rho_targets = 0.7 * 0.4 ** np.arange(r)
    rho_targets = np.asarray(rho_targets, dtype=float)
    if rho_targets.shape != (r,) or np.any(np.abs(rho_targets) >= 1):
        raise ValidationError("rho_targets must be r values in (-1, 1)")

    # step 1: ground-truth coefficients with block covariance [[I, D], [D, I]]
    rng = np.random.default_rng(rng_seed)
    cov = np.eye(2 * r)
    cov[:r, r:] = cov[r:, :r] = np.diag(rho_targets)
    Z = rng.standard_normal((n, 2 * r)) @ np.linalg.cholesky(cov).T
    Z = Z - Z.mean(axis=0)
    X1, X2 = Z[:, :r], Z[:, r:]
    rho_truth = cca(X1, X2).correlations

    # step 2: carrier densities
    carriers = [
        gen_pdf_group(PdfSimSpec(g, n, grid, _child_seed(rng_seed, k)))
        for k, g in enumerate(groups)
    ]

    # step 3: per-group means and eigenbases
    fit = tangent_mode_pipeline(carriers[0], carriers[1], rank=r)

    # step 4: synthesize new densities from the step-1 coefficients
    new1 = _synthesize(fit.mean_1, fit.basis_1, X1)
    new2 = _synthesize(fit.mean_2, fit.basis_2, X2)

    # steps 5-6: re-estimate under the requested mode and run CCA
    res = tangent_mode_pipeline(new1, new2, mode=mode, rank=r)
    rho_hat = cca(res.c1, res.c2).correlations
    return PdfRecovery(rho_truth, rho_hat, X1, X2)


def recovery_protocol_shape(
    regime: str,
    rng_seed: int = 0,
    n: int = RECOVERY_N,
    grid: Grid | None = None,
) -> ShapeRecovery:
    """Ground-truth recovery study for shapes.

    Generates the two correlated curve groups, runs tangent_mode_pipeline
    with rank RECOVERY_SHAPE_RANK in the separate layout, moves its group-1
    tangents and eigenbasis to group 2's mean by parallel transport for a
    second estimate, and returns the latent peak-location correlation next
    to both.
    """
    grid = grid or Grid(200)
    spec = CurveSimSpec(regime, n, grid, rng_seed)
    curves1, locs1 = gen_curve_group(spec, 1)
    curves2, locs2 = gen_curve_group(spec, 2)
    rho_truth = float(np.corrcoef(locs1, locs2)[0, 1])

    sep = tangent_mode_pipeline(curves1, curves2, "separate", rank=RECOVERY_SHAPE_RANK)
    rho_sep = cca(sep.c1, sep.c2).correlations

    # transported layout: move group 1's tangent data and its eigenbasis to
    # group 2's tangent space and read the coefficients there; transport is
    # an isometry, so the estimates change only by numerical error
    b1, source, target = sep.basis_1, sep.tangents_1.base, sep.tangents_2.base
    E = np.stack([e.v.values for e in b1.eigenfunctions])
    rows = _transport_rows(np.concatenate([sep.tangents_1.values, E]), source, target)
    moved = tuple(TangentVector(target, target.f.with_values(v)) for v in rows[n:])
    moved_basis = replace(b1, base=target, eigenfunctions=moved)
    c1 = coefficients(moved_basis, Tangents(target, rows[:n]))
    rho_tra = cca(c1, sep.c2).correlations

    return ShapeRecovery(rho_truth, rho_sep, rho_tra, (locs1, locs2))
