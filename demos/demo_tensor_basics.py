"""Walk through the tensor algebra the solver is built on.

Shows the mode unfoldings and their Kronecker structure, a Tucker
round trip, and the hard-thresholding proximal operators.

Run:  python3 demos/demo_tensor_basics.py
"""

import numpy as np

from tslto import (
    fold,
    frobenius_norm,
    hard_threshold_l0,
    group_hard_threshold_l20,
    tucker_reconstruct,
    unfold,
)

rng = np.random.default_rng(0)

print("=== mode unfoldings ===")
x = np.empty((2, 2, 2))
for i in range(2):
    for j in range(2):
        for k in range(2):
            x[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
print("entries encode their own index (x[i,j,k] = 100i+10j+k, 1-based):")
for mode in (1, 2, 3):
    print(f"mode-{mode} unfolding:\n{unfold(x, mode).astype(int)}")
assert np.array_equal(fold(unfold(x, 2), 2, x.shape), x)
print("folding back is exact.\n")

print("=== Tucker structure ===")
g = rng.uniform(0, 10, (2, 2, 2))
u1, u2, u3 = (np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in (5, 4, 3))
t = tucker_reconstruct(g, u1, u2, u3)
# the unfolded reconstruction factors through a Kronecker product
lhs = unfold(t, 1)
rhs = u1 @ unfold(g, 1) @ np.kron(u3, u2).T
print("unfold(G x1 U1 x2 U2 x3 U3, 1) == U1 G_(1) (U3 (x) U2)^T :",
      frobenius_norm(lhs - rhs) < 1e-12)
print("tensor is", t.shape, "but parametrized by",
      g.size + u1.size + u2.size + u3.size, "numbers\n")

print("=== hard thresholding ===")
v = np.array([-3.0, -1.0, 0.5, 2.0, 2.9])
print("values:     ", v)
print("l0 prox t=4:", hard_threshold_l0(v, 4.0), " (zero iff v^2 <= 8)")
m = np.array([[3.0, 4.0], [1.0, 1.0]])
print("row norms^2 of\n", m, "\nare [25, 2]; group prox at t=2 keeps only "
      "the first row:\n", group_hard_threshold_l20(m, 2.0))
