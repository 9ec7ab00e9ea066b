"""Grow a tilting module by repeated extension and test the dualities.

U(0|0) is built from K(0|0) by glueing parity-flipped induced tops until
every extension group dies.  Dualizing projective covers
lands on tilting modules; dualizing induced modules lands on induced
modules at the reflected weight."""

from supero import (
    build_gl, install_grading, tilting_module, verify_kac_dual,
    verify_projective_dual,
)

g = install_grading(build_gl(1, 1), "compatible")

U = tilting_module(g, (0, 0))
print("U(0|0): dim", U.dim)
print("  flag bottom-up:", [(g.weight_str(w), "PI" if p else "") for w, p in U.meta["flag_bottom_up"]])
print("  local endomorphism ring:", U.meta["end_radical_dim"] + 1 == U.meta["end_even_dim"])

print()
print("dual of the induced module lands at the reflected weight:")
for lam in [(0, 0), (2, -1), (-1, 1)]:
    rep = verify_kac_dual(g, lam)
    print(f"  K{g.weight_str(lam)}* = K{g.weight_str(rep['partner'])}"
          f"  (parity flip={rep['parity']}, certified={rep['certified']})")

print()
print("dual of the projective cover is the tilting module:")
for lam in [(0, 0), (1, -1)]:
    rep = verify_projective_dual(g, lam)
    print(f"  P{g.weight_str(rep['projective_weight'])}* = U{g.weight_str(lam)}"
          f"  (isomorphic={rep['isomorphic']}, parity flip={rep['parity']})")
