"""
Mobility function F(C), the viscosity-to-permeability ratio.

Three families are supported: constant, polynomial with nonnegative
coefficients, and exponential exp(R C).  F enters the momentum equation
only through pointwise multiplication on the quadrature grid followed by
projection onto the velocity basis; viscosity and permeability are never
represented separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MobilityOverflowError",
    "MobilitySpec",
    "evaluate",
    "lipschitz_check",
    "LipschitzReport",
]

# exp overflows double precision near 709.8; stay safely below.
_EXP_ARG_LIMIT = 700.0


class MobilityOverflowError(FloatingPointError):
    """Exponential mobility overflowed; the solver never clamps it.

    Inside a trial step the controller rejects the trial and retries with
    a smaller dt; at an accepted (or the initial) state it aborts the run.
    """


@dataclass(frozen=True)
class MobilitySpec:
    """One of the three mobility families.

    kind: "constant" | "polynomial" | "exponential"
    coefficients: [a] for constant (a >= 0); [a0, a1, ...] for polynomial
    (all >= 0); [R] for exponential (any finite R).
    """

    kind: str
    coefficients: tuple = field(default=(1.0,))

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        errs = self.validation_errors()
        if errs:
            raise ValueError("; ".join(errs))

    def validation_errors(self) -> list[str]:
        return MobilitySpec.check(self.kind, self.coefficients)

    @staticmethod
    def check(kind, coefficients) -> list[str]:
        errs = []
        if kind not in ("constant", "polynomial", "exponential"):
            errs.append(f"unknown mobility kind {kind!r}")
            return errs
        coefficients = tuple(coefficients)
        if not coefficients:
            errs.append("mobility coefficients must be non-empty")
            return errs
        if any(not np.isfinite(c) for c in coefficients):
            errs.append("mobility coefficients must be finite")
        if kind == "constant":
            if len(coefficients) != 1:
                errs.append("constant mobility takes exactly one coefficient")
            elif coefficients[0] < 0:
                errs.append("constant mobility requires a >= 0")
        elif kind == "polynomial":
            if any(c < 0 for c in coefficients):
                errs.append("polynomial mobility requires all coefficients >= 0")
        elif kind == "exponential" and len(coefficients) != 1:
            errs.append("exponential mobility takes exactly one coefficient R")
        return errs

    @staticmethod
    def constant(a: float) -> "MobilitySpec":
        return MobilitySpec("constant", (a,))

    @staticmethod
    def polynomial(*coeffs: float) -> "MobilitySpec":
        return MobilitySpec("polynomial", tuple(coeffs))

    @staticmethod
    def exponential(R: float) -> "MobilitySpec":
        return MobilitySpec("exponential", (R,))

    def derivative_values(self, c_grid: np.ndarray) -> np.ndarray:
        """Pointwise F'(C), used for H1 norms of F(C)."""
        if self.kind == "constant":
            return np.zeros_like(c_grid)
        if self.kind == "polynomial":
            dcoef = [i * a for i, a in enumerate(self.coefficients)][1:]
            if not dcoef:
                return np.zeros_like(c_grid)
            return np.polynomial.polynomial.polyval(c_grid, dcoef)
        R = self.coefficients[0]
        return R * evaluate(self, c_grid)


def evaluate(F: MobilitySpec, c_grid: np.ndarray) -> np.ndarray:
    """Pointwise mobility values on the grid.

    Exponential overflow raises MobilityOverflowError rather than
    silently clamping.
    """
    c = np.asarray(c_grid, dtype=float)
    if F.kind == "constant":
        return np.full_like(c, F.coefficients[0])
    if F.kind == "polynomial":
        return np.polynomial.polynomial.polyval(c, F.coefficients)
    R = F.coefficients[0]
    arg = R * c
    peak = float(np.max(np.abs(arg))) if arg.size else 0.0
    if not np.isfinite(peak) or peak > _EXP_ARG_LIMIT:
        raise MobilityOverflowError(
            f"exponential mobility overflow: |R*C| reached {peak:.3e} "
            f"(limit {_EXP_ARG_LIMIT})"
        )
    return np.exp(arg)


@dataclass(frozen=True)
class LipschitzReport:
    """Sampled L2->L2 difference-quotient survey for a mobility family."""

    max_ratio: float
    ratios: tuple  # (pair distance, ratio) sorted by decreasing distance
    diverging: bool
    h1_norms_F: tuple  # H1(Omega) norm of F(C1) per pair, for the record
    skipped_pairs: int


def lipschitz_check(F: MobilitySpec, sample_pairs, amplitude_box: float | None = None) -> LipschitzReport:
    """Estimate the Lipschitz ratio ||F(C1)-F(C2)|| / ||C1-C2|| over samples.

    `sample_pairs` is an iterable of (ScalarField, ScalarField) on a shared
    domain.  Quadrature L2 norms are used on both sides.  Zero-distance
    pairs are skipped.  The report flags divergence when the ratios of the
    closest pairs run far above the rest, which would falsify a
    Lipschitz-type bound on the sampled amplitude box.
    """
    entries = []
    h1_norms = []
    skipped = 0
    for c1, c2 in sample_pairs:
        dom = c1.domain
        g1 = dom.scalar_values(c1.coeffs)
        g2 = dom.scalar_values(c2.coeffs)
        if amplitude_box is not None:
            peak = max(np.max(np.abs(g1)), np.max(np.abs(g2)))
            if peak > amplitude_box * (1 + 1e-12):
                raise ValueError(
                    f"sample exceeds the stated amplitude box |C| <= {amplitude_box}: {peak}"
                )
        dist = np.sqrt(dom.grid.integrate((g1 - g2) ** 2))
        if dist == 0.0:
            skipped += 1
            continue
        diff = np.sqrt(dom.grid.integrate((evaluate(F, g1) - evaluate(F, g2)) ** 2))
        entries.append((float(dist), float(diff / dist)))

        f1 = evaluate(F, g1)
        c1x, c1y = dom.scalar_gradient_values(c1.coeffs)
        fp = F.derivative_values(g1)
        grad_sq = (fp * c1x) ** 2 + (fp * c1y) ** 2
        h1_norms.append(float(np.sqrt(dom.grid.integrate(f1**2 + grad_sq))))

    entries.sort(key=lambda e: -e[0])
    ratios = tuple(entries)
    if not entries:
        return LipschitzReport(0.0, (), False, tuple(h1_norms), skipped)

    max_ratio = max(r for _, r in entries)
    # Divergence heuristic: the closest quarter of the pairs should not sit
    # far above the others if the quotient stays bounded on the box.
    n = len(entries)
    if n >= 4:
        cut = max(1, n // 4)
        close = max(r for _, r in entries[-cut:])
        far = max(r for _, r in entries[:-cut])
        diverging = bool(far > 0 and close > 5.0 * far)
    else:
        diverging = False
    return LipschitzReport(float(max_ratio), ratios, diverging, tuple(h1_norms), skipped)
