"""Reverse-mode autodiff on a tape: build, differentiate, verify."""

import numpy as np

import finfusion.autodiff as ad

rng = np.random.default_rng(0)

# a tiny two-layer regression, written exactly like the model code
x = ad.Tensor(np.linspace(-1.0, 1.0, 64).reshape(-1, 1))
y = ad.Tensor(np.sin(2.5 * x.data))

w1 = ad.Tensor(rng.normal(0, 0.4, (1, 16)), requires_grad=True)
b1 = ad.Tensor(np.zeros(16), requires_grad=True)
w2 = ad.Tensor(rng.normal(0, 0.4, (16, 1)), requires_grad=True)
b2 = ad.Tensor(np.zeros(1), requires_grad=True)
params = [w1, b1, w2, b2]

def mse():
    h = ad.tanh(x @ w1 + b1)
    out = h @ w2 + b2
    return ((out - y) ** 2).mean()

with ad.Tape() as tape:
    loss = mse()
recorded = len(tape)  # backward takes every op off the tape as it replays it
ad.backward(loss, tape)
print(f"initial mse  {loss.item():.4f}   tape length {recorded}")
print(f"grad shapes  w1 {w1.grad.shape}  b1 {b1.grad.shape}  "
      f"w2 {w2.grad.shape}  b2 {b2.grad.shape}")

# plain gradient descent on the tape gradients
for step in range(400):
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        loss = mse()
    ad.backward(loss, tape)
    for p in params:
        p.data -= 0.5 * p.grad
print(f"after 400 gd {mse().item():.4f}")

print("\n== finite-difference check ==")
# perturbs every coordinate of w1 and compares against the tape gradient
err = ad.grad_check(lambda w: ((ad.tanh(x @ w + b1) @ w2 + b2 - y) ** 2).mean(),
                    w1)
print(f"max relative error vs central differences: {err:.2e}")
assert err < 1e-5

print("\n== softmax / logsumexp stability ==")
logits = ad.Tensor(np.array([[1000.0, 1000.5, 999.0]]))
print("softmax of huge logits:", np.round(ad.softmax(logits).data, 4))
print("logsumexp stays finite:", ad.logsumexp(logits).data)

print("\n== non-finite values are hard errors, not silent NaN ==")
big = ad.Tensor(np.full((1, 2), 1e308))
w = ad.Tensor(np.ones((2, 1)))
try:
    with np.errstate(over="ignore"):
        ad.matmul(big, w)   # overflows to inf inside the product
except ad.NumericalError as e:
    print("caught:", e)
try:
    ad.Tensor(np.array([1.0, np.nan]))
except ad.NumericalError as e:
    print("caught:", e)
