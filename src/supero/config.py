"""Resource budgets.

Every computation is deterministic, so a run is configured by its inputs
and these budgets alone; exhausting one raises ResourceLimitError.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Budgets bounding the exact computations.

    max_module_dim: refuse to build explicit modules larger than this.
    max_end_dim: bound on endomorphism/radical algebra dimension.
    max_hom_vars: bound on unknowns in each hom system (the values of a
        map on the fiber vectors of the source's flag record; every
        weight-matched entry when the source has none), in each
        (weight, parity) block of the C^1 of the extension cochain
        complex, in each glue-cocycle system (fiber dim x block
        unknowns) and in each singular-vector system of a truncated
        Verma module.  Library-only: no CLI flag sets it.
    iteration_budget: cap on the first-extension evaluations of one
        tilting sweep (one per candidate weight and parity of lam's
        block, plus one after each glue), the only library code that
        reads it.
    """

    max_module_dim: int = 4096
    max_end_dim: int = 512
    max_hom_vars: int = 20000
    iteration_budget: int = 48


DEFAULT_LIMITS = Limits()
