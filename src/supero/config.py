"""Resource limits and run configuration.

Every computation is deterministic.  The seed still travels with the
limits object and is embedded in reports, but nothing draws from it.
"""

from dataclasses import dataclass, replace

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class Limits:
    """Knobs bounding the exact computations.

    max_module_dim: refuse to build explicit modules larger than this.
    max_end_dim: bound on endomorphism/radical algebra dimension.
    max_hom_vars: bound on unknowns in hom solves (for the endomorphism
        ring of an induced module, the fiber system Hom_s(F, Res M) of
        the adjunction route), in the C^1 of the extension cochain
        complex and in each singular-vector system of a truncated Verma
        module.  Library-only: no CLI flag sets it.
    iteration_budget: cap on the first-extension evaluations of one
        tilting sweep (one per candidate weight and parity of lam's
        block, plus one after each glue) and on the peeling steps of one
        Kac flag.
    straighten_cache: entries kept per normal-ordering memo table.
    """

    max_module_dim: int = 4096
    max_end_dim: int = 512
    max_hom_vars: int = 20000
    iteration_budget: int = 48
    straighten_cache: int = 200_000
    seed: int = DEFAULT_SEED

    def with_seed(self, seed):
        return replace(self, seed=seed)


DEFAULT_LIMITS = Limits()
