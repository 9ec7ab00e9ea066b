"""Resource budgets.

Every computation is deterministic, so a run is configured by its inputs
and these budgets alone; exhausting one raises ResourceLimitError.
"""

from collections import namedtuple


class Limits(namedtuple(
    "Limits", "max_module_dim max_end_dim max_hom_vars iteration_budget",
    defaults=(4096, 512, 20000, 48),
)):
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

    __slots__ = ()


DEFAULT_LIMITS = Limits()
