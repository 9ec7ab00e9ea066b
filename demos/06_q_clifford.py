"""The Cartan subalgebra of q(n) is not commutative: its odd generators
square to the torus.  Simple modules over it are Clifford modules, and
their endomorphism rings distinguish two types."""

from supero import (
    build_q, clifford_module, end_ring, hom_dims, projective_cover_h, validate_module,
)

for n, lam in [(1, (0,)), (1, (1,)), (2, (1, -1)), (2, (1, 0)), (3, (1, -1, 2))]:
    q = build_q(n)
    h = q.subalgebra(q.h_ids(), family_tag="q-cartan")
    u = clifford_module(h, lam)
    d_e = sum(hom_dims(u, u))
    kind = "two odd generators pair up" if d_e == 1 else "a lone generator survives"
    print(f"q({n}) lam={lam}: dim {u.dim}, End dim {d_e}  ({kind})")

print()
print("covering the Clifford module by one induced h-module:")
q = build_q(2)
h = q.subalgebra(q.h_ids(), family_tag="q-cartan")
u = clifford_module(h, (1, -1))
P = projective_cover_h(h, u)
print(f"  cover of u(1,-1): dim {P.dim}, axioms ok={validate_module(P)['passed']},"
      f" End(P)_0 local={end_ring(P)['local']}, Hom(P, u) dims={hom_dims(P, u)}")
