"""Compute first extension groups between induced modules two ways.

By Eckmann-Shapiro, Ext^1(K(mu), M) = Hom_{g0}(L0(mu), H^1(g1, M)) for the
cochain complex of the odd raising part g1.  The first way counts it by
Weyl's character formula from the weight dimensions of H^1; the second
finds its highest-weight classes as cocycles killed by the simple even
raisings, and turns one of them into a glueing block.  The two counts must
agree, and gluing a nonzero class lowers the count by exactly one."""

from supero import (
    build_gl, install_grading, kac_module, parity_flip, KacExtensions,
    ext1_kac, ext1_with_representative, glue_extension, validate_module,
    end_ring,
)

g = install_grading(build_gl(1, 1), "compatible")
bottom = kac_module(g, (0, 0))
ke = KacExtensions(bottom)

print("Ext^1(K(mu) or its parity flip, K(0|0)) over a small scan:")
for a in range(-2, 2):
    for p in (0, 1):
        mu = (a, -a)
        weyl = ext1_kac(g, mu, bottom, parity=p)
        # counts the highest-weight classes and raises if they disagree
        classes, block = ext1_with_representative(ke, mu, p)
        tag = "PI " if p else "   "
        print(f"  {tag}K{g.weight_str(mu)}: weyl={weyl} classes={classes}")
        assert weyl == classes
        assert (block is None) == (weyl == 0)

print()
print("glueing the nonzero class at PI K(-1|1):")
mu = (-1, 1)
top = parity_flip(kac_module(g, mu))
dim, block = ext1_with_representative(ke, mu, 1)
print(f"  the block acts only through the odd raisings: "
      f"{sorted(g.label(x) for x in block)}")
E = glue_extension(bottom, top, block)
print(f"  new module: dim {E.dim}, axioms ok={validate_module(E)['passed']}, "
      f"indecomposable={end_ring(E)['local']}")
after = ext1_kac(g, mu, E, parity=1)
print(f"  Ext^1 at PI K(-1|1): {dim} before the glue, {after} after")
assert after == dim - 1
print("  this indecomposable is exactly the projective cover P(0|0)")
