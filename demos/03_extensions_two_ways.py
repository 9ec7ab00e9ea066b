"""Compute first extension groups between induced modules two ways.

The cochain route reads the multiplicity of L0(mu) in the first
cohomology of the odd raising part off that cohomology's weight
dimensions, by Weyl's character formula; the direct route solves for an
upper-triangular glueing block.  They must agree dimension for
dimension, and a representative block actually builds the extension."""

from supero import (
    build_gl, install_grading, kac_module, parity_flip,
    ext1_kac, ext1_with_representative, glue_extension, validate_module,
)

g = install_grading(build_gl(1, 1), "compatible")
bottom = kac_module(g, (0, 0))

print("Ext^1(K(mu) or its parity flip, K(0|0)) over a small scan:")
for a in range(-2, 2):
    for p in (0, 1):
        mu = (a, -a)
        top = kac_module(g, mu)
        if p:
            top = parity_flip(top)
        cochain = ext1_kac(g, mu, bottom, parity=p)
        direct, block = ext1_with_representative(bottom, top)
        tag = "PI " if p else "   "
        print(f"  {tag}K{g.weight_str(mu)}: cochain={cochain} direct={direct}")
        assert cochain == direct

print()
print("glueing the nonzero class at PI K(-1|1):")
mu = (-1, 1)
top = parity_flip(kac_module(g, mu))
dim, block = ext1_with_representative(bottom, top)
E = glue_extension(bottom, top, block)
print(f"  new module: dim {E.dim}, axioms ok={validate_module(E)['passed']}")
print("  this indecomposable is exactly the projective cover P(0|0)")
