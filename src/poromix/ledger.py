"""
Energy ledger: the per-step record of every monitored functional.

One row per accepted integrator step.  Norm columns store squared norms.
`fq_u` (the mobility-weighted velocity norm) is NaN whenever F takes a
negative value at a midpoint node that assembles the drag, where sqrt(F) u
is undefined.
`res_C` / `res_u` are the energy-identity residuals over the segment ending
at the row's time; they are computed from work integrals carried inside
the ODE state, so a healthy run keeps them at the size of the local
integration error.
"""

from __future__ import annotations

from ._record import Record

__all__ = ["LedgerRow", "EnergyLedger", "CSV_COLUMNS"]

CSV_COLUMNS = [
    "t",
    "l2_C",
    "h1_semi_C",
    "h2_semi_C",
    "l2_u",
    "h1_semi_u",
    "fq_u",
    "dCdt_l2",
    "mass",
    "min_C",
    "res_C",
    "res_u",
    "blowup",
]


class LedgerRow(Record):
    t: float
    l2_C: float
    h1_semi_C: float
    h2_semi_C: float
    l2_u: float
    h1_semi_u: float
    fq_u: float
    dCdt_l2: float
    mass: float
    min_C: float
    res_C: float
    res_u: float
    blowup: int
    # Cumulative time integrals since t=0 (not serialized to CSV); these are
    # integrated alongside the state so identity checks need no re-quadrature.
    iw_c: float = 0.0
    iw_u: float = 0.0
    i_grad_c: float = 0.0
    i_lap_c: float = 0.0
    i_grad_u: float = 0.0
    i_fu: float = 0.0
    i_f: float = 0.0
    i_fdotu: float = 0.0
    i_cc: float = 0.0
    i_dcdt: float = 0.0
    # Instantaneous dual-norm majorant ingredients (also not in the CSV).
    h1_F_sq: float = 0.0
    l2_f: float = 0.0

    def csv_values(self):
        return [getattr(self, name) for name in CSV_COLUMNS]


class EnergyLedger:
    """Append-only sequence of ledger rows with CSV serialization."""

    def __init__(self):
        self.rows: list[LedgerRow] = []

    def append(self, row: LedgerRow):
        if self.rows and row.t <= self.rows[-1].t:
            raise ValueError(f"ledger times must increase: {row.t} after {self.rows[-1].t}")
        self.rows.append(row)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, idx):
        return self.rows[idx]

    def column(self, name: str):
        return [getattr(r, name) for r in self.rows]

    @property
    def final(self) -> LedgerRow:
        return self.rows[-1]

    def to_csv(self, fileobj):
        """Write the fixed-format CSV: 17 significant digits, one row per step."""
        fileobj.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            fileobj.write(",".join(f"{v:.17g}" for v in row.csv_values()) + "\n")

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.to_csv(fh)
