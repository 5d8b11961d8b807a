"""
Mobility function F(C), the viscosity-to-permeability ratio.

Three families are supported: constant, polynomial with nonnegative
coefficients, and exponential exp(R C).  F enters the momentum equation
only through its values at the midpoint nodes, in the drag pairing
(F(C) u, w) and the implicit stage's matrix D_F(C) = (F(C) w_q, w_r);
viscosity and permeability are never represented separately.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._record import Record
from .domain import SpecError

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

    Inside a trial step, including the last stage that evaluates the
    trial's end state and its diagnostics, the controller rejects the
    trial and retries with a smaller dt.  Every accepted state is such an
    end state, so only an overflow at the initial state aborts a run.
    """


class MobilitySpec(Record):
    """One of the three mobility families.

    kind: "constant" | "polynomial" | "exponential"
    coefficients: [a] for constant (a >= 0); [a0, a1, ...] for polynomial
    (all >= 0); [R] for exponential (any finite R).
    """

    kind: str
    coefficients: tuple = (1.0,)

    def __post_init__(self):
        kind, coefficients = self.kind, tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        if kind not in ("constant", "polynomial", "exponential"):
            raise SpecError(f"unknown mobility kind {kind!r}")
        if not coefficients:
            raise SpecError("mobility coefficients must be non-empty")
        errs = []
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
        if errs:
            raise SpecError(*errs)

    @staticmethod
    def constant(a: float) -> "MobilitySpec":
        return MobilitySpec("constant", (a,))

    @staticmethod
    def polynomial(*coeffs: float) -> "MobilitySpec":
        return MobilitySpec("polynomial", tuple(coeffs))

    @staticmethod
    def exponential(R: float) -> "MobilitySpec":
        return MobilitySpec("exponential", (R,))

    def derivative_values(self, c_grid: np.ndarray, f_values: np.ndarray) -> np.ndarray:
        """Pointwise F'(C), used for H1 norms of F(C).

        f_values = evaluate(self, c_grid): the exponential's F' = R F
        reuses it rather than exponentiating again.
        """
        if self.kind == "exponential":
            return self.coefficients[0] * f_values
        return _polyval(c_grid, self._derivative_coefficients)

    @cached_property
    def _derivative_coefficients(self) -> np.ndarray:
        """F' of a constant or polynomial F, formed once per spec, read-only."""
        coefficients = _polyder(self.coefficients)
        coefficients.flags.writeable = False
        return coefficients


def _polyder(coefficients) -> np.ndarray:
    """F' coefficients, lowest degree first, or [0] for a constant: the
    products numpy.polynomial's polyder forms, so the same bits."""
    c = np.array(coefficients, dtype=float)
    return c[1:] * np.arange(1, c.size) if c.size > 1 else c * 0.0


def _polyval(x: np.ndarray, coefficients) -> np.ndarray:
    """sum_j c_j x^j by Horner's rule, a new array: numpy.polynomial's
    polyval operations in its order, so the same bits, a non-finite x's too."""
    values = x * 0.0
    values += coefficients[-1]
    for c in coefficients[-2::-1]:
        values *= x
        values += c
    return values


def evaluate(F: MobilitySpec, c_grid: np.ndarray) -> np.ndarray:
    """Pointwise mobility values on the grid, a new array.

    A polynomial goes by Horner's rule and the exponential is taken in
    place of its argument; numpy.polynomial is not loaded.  Exponential
    overflow raises MobilityOverflowError rather than silently clamping.
    """
    c = np.asarray(c_grid, dtype=float)
    if F.kind == "exponential":
        arg = np.multiply(F.coefficients[0], c, out=np.empty(c.shape))
        # Only a large positive R*C overflows; a negative one underflows
        # harmlessly to 0.  A NaN peak fails the test too.
        peak = np.maximum.reduce(arg, axis=None) if arg.size else 0.0
        if not peak <= _EXP_ARG_LIMIT:
            raise MobilityOverflowError(
                f"exponential mobility overflow: R*C reached {peak:.3e} "
                f"(limit {_EXP_ARG_LIMIT})"
            )
        return np.exp(arg, out=arg)
    if F.kind == "constant":
        values = np.empty(c.shape)
        values.fill(F.coefficients[0])
        return values
    return _polyval(c, F.coefficients)


class LipschitzReport(Record):
    """Sampled L2->L2 difference-quotient survey for a mobility family."""

    max_ratio: float
    ratios: tuple  # (pair distance, ratio) sorted by decreasing distance
    diverging: bool
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

    entries.sort(key=lambda e: -e[0])
    ratios = tuple(entries)
    if not entries:
        return LipschitzReport(0.0, (), False, skipped)

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
    return LipschitzReport(float(max_ratio), ratios, diverging, skipped)
