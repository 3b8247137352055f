"""Per-format instruction cost model.

The model assigns each kernel a cycle count built from the operation
census of the *reference kernels* (see :mod:`repro.kernels.reference`):
elements processed, non-empty rows visited, units decoded, commands
dispatched.  Constants are calibrated once against Table II's serial
band (DESIGN.md section 6) and then held fixed for every experiment.

The qualitative relationships the constants encode:

* CSR pays ``per_element`` (multiply-add, gather, loop) per nonzero and
  ``per_row`` per non-empty row (pointer load, accumulator write);
* CSR-DU adds a per-element delta decode and a per-unit header cost
  (flags/size parse plus one well-predicted dispatch branch) -- the
  paper's "coarse grain" argument is precisely that the per-unit cost
  amortizes over ``usize`` elements;
* CSR-VI adds one indirection per element (the ``val_ind`` gather);
* DCSR pays a dispatch *per command*, and a fraction of those branches
  mispredict (the Section III-B critique); RUN8 bodies behave like a
  small unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MachineModelError


@dataclass(frozen=True)
class KernelCost:
    """Cycle count broken down by source (one thread's kernel run)."""

    element_cycles: float
    row_cycles: float
    dispatch_cycles: float

    @property
    def total(self) -> float:
        return self.element_cycles + self.row_cycles + self.dispatch_cycles


@dataclass(frozen=True)
class CostModel:
    """Calibrated cycle costs (see module docstring).

    All values are cycles.  ``branch_miss_penalty`` is charged per
    *mispredicted* dispatch; ``dcsr_mispredict_rate`` is the fraction of
    DCSR command dispatches assumed to mispredict (fine-grained,
    data-dependent branching), against ``du_mispredict_rate`` for
    CSR-DU's per-unit dispatch (coarse-grained, highly biased).
    """

    per_element: float = 3.0
    per_row: float = 7.3
    du_decode_per_element: float = 1.9
    du_seq_decode_per_element: float = 0.5
    du_per_unit: float = 12.5
    vi_extra_per_element: float = 3.9
    dcsr_per_command: float = 4.0
    dcsr_per_element: float = 1.2
    branch_miss_penalty: float = 14.0
    du_mispredict_rate: float = 0.05
    dcsr_mispredict_rate: float = 0.35

    def __post_init__(self) -> None:
        # du_decode / vi_extra may be mildly negative: a 1-byte delta
        # load plus add can retire cheaper than a 4-byte index load.
        for field_name in (
            "per_element",
            "per_row",
            "du_per_unit",
            "dcsr_per_command",
            "dcsr_per_element",
            "branch_miss_penalty",
        ):
            if getattr(self, field_name) < 0:
                raise MachineModelError(f"{field_name} must be non-negative")
        for field_name in ("du_decode_per_element", "vi_extra_per_element"):
            if getattr(self, field_name) < -self.per_element:
                raise MachineModelError(
                    f"{field_name} cannot make elements free"
                )
        for rate in (self.du_mispredict_rate, self.dcsr_mispredict_rate):
            if not 0 <= rate <= 1:
                raise MachineModelError("mispredict rates must be in [0, 1]")

    # -- per-format costs ---------------------------------------------------
    def csr(self, nnz: int, rows: int) -> KernelCost:
        return KernelCost(
            element_cycles=self.per_element * nnz,
            row_cycles=self.per_row * rows,
            dispatch_cycles=0.0,
        )

    def csr_du(
        self, nnz: int, rows: int, units: int, seq_elements: int = 0
    ) -> KernelCost:
        dispatch = units * (
            self.du_per_unit
            + self.du_mispredict_rate * self.branch_miss_penalty
        )
        plain = nnz - seq_elements
        decode = (
            self.du_decode_per_element * plain
            + self.du_seq_decode_per_element * seq_elements
        )
        return KernelCost(
            element_cycles=self.per_element * nnz + decode,
            row_cycles=self.per_row * rows,
            dispatch_cycles=dispatch,
        )

    def csr_vi(self, nnz: int, rows: int) -> KernelCost:
        return KernelCost(
            element_cycles=(self.per_element + self.vi_extra_per_element) * nnz,
            row_cycles=self.per_row * rows,
            dispatch_cycles=0.0,
        )

    def csr_du_vi(
        self, nnz: int, rows: int, units: int, seq_elements: int = 0
    ) -> KernelCost:
        base = self.csr_du(nnz, rows, units, seq_elements)
        return replace(
            base,
            element_cycles=base.element_cycles + self.vi_extra_per_element * nnz,
        )

    def dcsr(self, nnz: int, rows: int, commands: int) -> KernelCost:
        dispatch = commands * (
            self.dcsr_per_command
            + self.dcsr_mispredict_rate * self.branch_miss_penalty
        )
        return KernelCost(
            element_cycles=(self.per_element + self.dcsr_per_element) * nnz,
            row_cycles=self.per_row * rows,
            dispatch_cycles=dispatch,
        )


def default_cost_model() -> CostModel:
    """The calibrated constants used by every benchmark (DESIGN.md sec 6)."""
    return CostModel()
