"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every learnable component in the package is built from the primitives here.
Ops record onto the innermost active ``Tape``; ``backward`` replays the tape
in exact reverse order, releasing each op as it replays it, so a tape serves
one backward. Tensors created outside a tape are plain values.

Broadcasting is deliberately narrow: equal shapes, scalars, or a lower-rank
operand aligned against the trailing dimensions (size-1 expansion allowed).
Anything fancier must go through an explicit reshape so backward rules stay
auditable.

Finiteness is checked at boundaries, not after every op. The public
``Tensor(...)`` constructor rejects non-finite input, and ``exp`` and
``log`` reject a non-finite result, since those are where a finite input
overflows or leaves the domain. Every other op lets NaN and inf flow
through; callers check what they consume once with ``require_finite``: the
training step its loss and gradients, forward-only passes their outputs.

Three fused ops, each one tape op with a hand-written backward, cover what
every layer repeats: ``linear`` (``x @ w + b``), ``attention`` (head split,
scaled scores, mask, softmax, ``attn @ v`` and head merge) and
``feed_forward`` (``linear``, ``relu``, ``linear``).

``feed_forward`` runs stacked (..., T, d) rows with T > 1 as flat
(rows, d) rows, in blocks of at most ``FF_BLOCK_BYTES`` of hidden, each
block through one gemm per layer, where numpy would run one small gemm per
stacked (T, d) matrix. At the default and README widths each row gets the
bits the stacked call gives it. T = 1 rows go through numpy's stacked call
in one pass, as do ``matmul`` and ``linear``.

The fused kernels (``linear``, ``feed_forward``, ``attention``,
``layer_norm``, ``softmax``) build their temporaries in place, but only in
arrays they have just allocated. No kernel writes into its inputs or into
the adjoint ``g`` its backward receives: ``add`` hands one ``g`` to both
parents. Each performs the same float operations in the same order as the
plain expression it replaces, so the in-place form changes no bit.

A tape op holds only what its backward reads. It keeps its leaf parents,
whose ``grad`` buffers ``backward`` fills, and names every other parent by
its node: the int one module-wide counter gave the result when it was
recorded, kept in the result's ``node`` slot. Its ``backward_fn`` captures
the arrays it reads and, of a parent whose value it does not read, just
the shape and flag, so an op result that no backward reads is freed once
the caller drops it.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "require_finite",
    "grad_check",
    "custom_op",
    "add",
    "sub",
    "mul",
    "pow_const",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "elu",
    "matmul",
    "linear",
    "feed_forward",
    "reduce_sum",
    "reduce_mean",
    "logsumexp",
    "softmax",
    "attention",
    "layer_norm",
    "cross_entropy",
    "reshape",
    "transpose",
    "concat",
    "slice_axis",
    "take_rows",
    "stack",
    "masked_fill_logits",
]

_EPS_MASK = -1e9  # additive mask value; exp underflows to exactly 0.0
# bytes of one feed-forward hidden block: a quarter of a 2 MiB per-core L2,
# so the bias and ReLU passes over a block, and the second gemm that reads
# it, find it in cache (256 rows at d_ff 256; one block at the README dims)
FF_BLOCK_BYTES = 512 * 1024


def require_finite(arr: np.ndarray, context: str) -> None:
    """Raise NumericalError naming ``context`` unless every value is finite."""
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values in {context}")


class Tensor:
    """A shaped float64 value, optionally a trainable leaf.

    ``requires_grad=True`` at construction marks a leaf: a ``grad`` buffer is
    allocated and ``backward`` accumulates into it. Tensors produced by ops
    carry the flag when a parent does, but keep ``grad=None``; their adjoints
    live only for the duration of a backward pass. A recorded result's
    ``node`` is its number from ``custom_op``'s one counter; it is None for
    every other tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, copy=True)
        require_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.node = None

    @classmethod
    def leaf(cls, arr: np.ndarray, grad: np.ndarray) -> "Tensor":
        """A trainable leaf that takes ownership of the float64 array ``arr``,
        and of ``grad``, zeros of its shape, as its gradient buffer, without
        the constructor's copy and finiteness check: for arrays the caller
        has just made and checked itself."""
        t = cls.__new__(cls)
        t.data, t.requires_grad, t.grad, t.node = arr, True, grad, None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ContractError(f"item() on tensor of size {self.size}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; all routes through the module-level primitives
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __pow__(self, exponent):
        return pow_const(self, exponent)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _TapeOp:
    """One recorded op: its own node, one entry per parent (the leaf tensor,
    the node of an op result, or None for a constant) and its backward."""

    __slots__ = ("node", "parents", "backward_fn")

    def __init__(self, node, parents, backward_fn):
        self.node = node
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable ops.

    Use as a context manager; ops executed inside record themselves when any
    input requires grad. One tape serves one single-threaded evaluation and
    one ``backward``, which takes every op off ``ops`` as it replays it.
    Every recorded result has a node no other result has, so a result
    recorded on another tape is a constant to this tape's ``backward``, and
    an op recorded after the replay takes a fresh node.
    """

    def __init__(self):
        self.ops: list[_TapeOp] = []
        self.replayed = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        assert popped is self, "tape context unwound out of order"
        return False

    def __len__(self) -> int:
        return len(self.ops)


_ACTIVE_TAPES: list[Tape] = []
_NODES = count()  # the node of every recorded result, across all tapes


def custom_op(data: np.ndarray, parents: Sequence[Tensor],
              backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    """Create an op result with a hand-written backward rule.

    ``backward_fn`` maps the output adjoint to one adjoint per parent (None
    for non-differentiable slots, and for parents that do not require grad,
    whose adjoint ``backward`` would drop). It captures only what it reads:
    a parent whose value its rule reads, and of every other parent just the
    shape and flag, since a captured tensor keeps its value alive until the
    tape goes. A recorded result's node is the next number of one
    module-wide counter. Extension point for fused primitives that live
    outside this module.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.requires_grad = False
    out.grad = out.node = None
    if _ACTIVE_TAPES:
        # one pass: a leaf by itself, an op result by its node
        tracked, refs = False, []
        for p in parents:
            if p.requires_grad:
                tracked = True
                refs.append(p if p.grad is not None else p.node)
            else:
                refs.append(None)
        if tracked:
            out.requires_grad = True
            out.node = node = next(_NODES)
            _ACTIVE_TAPES[-1].ops.append(_TapeOp(node, tuple(refs), backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate leaf gradients with d(loss)/d(leaf).

    Takes the ops off the tape in exact reverse execution order, keying each
    op result's adjoint by its node, so an op and the arrays its backward
    captured are freed once its adjoints are handed on, and the tape ends
    empty. A tape serves one call: a second raises ContractError. Calls on
    separate recordings accumulate into leaf ``grad`` buffers until they are
    cleared.
    """
    if loss.size != 1:
        raise ContractError("backward requires a scalar loss")
    if tape.replayed:
        raise ContractError("backward on a tape it has already replayed")
    tape.replayed = True
    adjoints: dict[int, np.ndarray] = {loss.node: np.ones_like(loss.data)}
    if loss.grad is not None:
        loss.grad += 1.0
    pop = adjoints.pop
    ops = tape.ops
    while ops:
        op = ops.pop()
        g = pop(op.node, None)
        if g is None:
            continue
        for ref, pg in zip(op.parents, op.backward_fn(g)):
            if pg is None or ref is None:
                continue
            if ref.__class__ is int:
                prev = adjoints.get(ref)
                adjoints[ref] = pg if prev is None else prev + pg
            else:
                ref.grad += pg


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a deterministic map from ``x`` to a scalar tensor. Relative
    error per coordinate is |analytic - fd| / max(1, |fd|).
    """
    if x.grad is None:
        raise ContractError("grad_check target must be a requires_grad leaf")
    saved_grad = x.grad.copy()
    x.zero_grad()
    with Tape() as tape:
        out = f(x)
    if out.size != 1:
        raise ContractError("grad_check function must return a scalar")
    backward(out, tape)
    analytic = x.grad.copy()
    x.grad[...] = saved_grad

    flat = x.data.flat
    fd = np.zeros(x.size)
    for i in range(x.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x).item()
        flat[i] = orig - eps
        lo = f(x).item()
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * eps)
    require_finite(fd, "finite-difference estimates")
    denom = np.maximum(1.0, np.abs(fd))
    rel = np.abs(analytic.ravel() - fd) / denom
    return float(rel.max()) if rel.size else 0.0


# ---------------------------------------------------------------------------
# broadcasting helpers

def _check_broadcast(a_shape: tuple, b_shape: tuple) -> None:
    """Permit equal shapes, scalars, and trailing-dimension expansion only."""
    if a_shape == b_shape:
        return
    small, big = sorted((a_shape, b_shape), key=len)
    offset = len(big) - len(small)
    for i, dim in enumerate(small):
        if dim != big[offset + i] and dim != 1 and big[offset + i] != 1:
            raise DimensionError(f"shapes {a_shape} and {b_shape} do not broadcast")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise binary ops

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    out = a.data + b.data
    a_shape, b_shape, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a_shape) if ra else None,
                _unbroadcast(g, b_shape) if rb else None)

    return custom_op(out, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    out = a.data - b.data
    a_shape, b_shape, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, a_shape) if ra else None,
                _unbroadcast(-g, b_shape) if rb else None)

    return custom_op(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.shape, b.shape)
    out = a.data * b.data
    # each side keeps the other's value only if its own gradient is needed
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return custom_op(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# elementwise unary ops

def pow_const(a: Tensor, exponent: float) -> Tensor:
    p = float(exponent)
    out = a.data ** p

    def bwd(g):
        return (g * p * a.data ** (p - 1.0),)

    return custom_op(out, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    require_finite(out, "exp")
    return custom_op(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    require_finite(out, "log")
    return custom_op(out, (a,), lambda g: (g / a.data,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return custom_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))
    return custom_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return custom_op(out, (a,), lambda g: (g * (a.data > 0.0),))


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    out = np.where(a.data > 0.0, a.data, alpha * a.data)

    def bwd(g):
        return (g * np.where(a.data > 0.0, 1.0, alpha),)

    return custom_op(out, (a,), bwd)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    ex = np.exp(np.minimum(a.data, 0.0))
    out = np.where(a.data > 0.0, a.data, alpha * (ex - 1.0))

    def bwd(g):
        return (g * np.where(a.data > 0.0, 1.0, alpha * ex),)

    return custom_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (..., m, k) left operand and a (..., k, n) or (k,)
    right one; leading batch dimensions must match or be absent."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 1:
        raise DimensionError(f"matmul needs a left operand of 2 or more dims and a right "
                             f"one of 1 or more: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else -1]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul batch dims disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    # a's gradient reads b's value and b's reads a's
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g):
        if len(b_shape) <= 2:
            # (..., m, k) x one shared (k, n) or (k,) weight: every stacked row
            # is a row of one 2-D product, so each gradient is a single gemm
            # (gemv) with no per-batch (k, n) stack to sum
            rows = None if a_data is None else a_data.reshape(-1, a_shape[-1])
            if len(b_shape) == 1:
                ga = None if b_data is None else g[..., None] * b_data
                return ga, None if rows is None else rows.T @ g.reshape(-1)
            g2 = g.reshape(-1, b_shape[1])
            ga = None if b_data is None else (g2 @ b_data.T).reshape(a_shape)
            return ga, None if rows is None else rows.T @ g2
        ga = None if b_data is None else np.matmul(g, np.swapaxes(b_data, -1, -2))
        gb = None if a_data is None else np.matmul(np.swapaxes(a_data, -1, -2), g)
        return (None if ga is None else _unbroadcast(ga, a_shape),
                None if gb is None else _unbroadcast(gb, b_shape))

    return custom_op(out, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``matmul(x, w) + b`` as one op: (..., k) rows against one shared (k, n)
    weight and (n,) bias, or a (k,) weight and (1,) bias. Each gradient is one
    2-D product or sum over the stacked rows."""
    n = w.shape[1] if w.ndim == 2 else 1
    if w.ndim not in (1, 2) or x.shape[-1:] != w.shape[:1] or b.ndim > 1 or b.size != n:
        raise DimensionError(f"linear shapes disagree: {x.shape} x {w.shape} + {b.shape}")
    # keep the stacked matmul: one flattened 2-D gemm takes another BLAS
    # path for T = 1 rows and moves their bits, and at the default dims it
    # is slower than the stacked gemms for the d x d and input projections
    # (feed_forward's d x d_ff layers are faster flat)
    out = np.matmul(x.data, w.data)
    out += b.data
    b_shape = b.shape

    def bwd(g):
        g2, w2 = g.reshape(-1, n), w.data.reshape(-1, n)
        gx = (g2 @ w2.T).reshape(x.shape) if x.requires_grad else None
        gw = x.data.reshape(-1, w2.shape[0]).T @ g2
        return gx, gw.reshape(w.shape), g2.sum(axis=0).reshape(b_shape)

    return custom_op(out, (x, w, b), bwd)


def _ff_block(rows, w1, b1, w2, b2, h=None, out=None) -> tuple:
    """One block of ``feed_forward``'s rows through both layers: the
    rectified hidden and the output, written into ``h`` and ``out`` if
    given."""
    h = np.matmul(rows, w1, out=h)
    h += b1
    np.maximum(h, 0.0, out=h)
    out = np.matmul(h, w2, out=out)
    out += b2
    return h, out


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``linear(relu(linear(x, w1, b1)), w2, b2)`` as one op: (..., d) rows
    through a (d, f) and an (f, d') layer, each with its bias.

    Stacked (..., T, d) rows with T > 1 go through both layers as flat
    (rows, d) rows, in blocks of at most ``FF_BLOCK_BYTES`` of hidden, each
    block one gemm per layer with its hidden rectified in place. At the
    default dims that usually costs less than numpy's stacked call and, at
    the default and README widths, gives each row the same bits. (BLAS may
    round a row by its place in the gemm's panel: with OpenBLAS 0.3.31's
    Haswell kernels, at a layer width of 1, 2 or 3 mod 8 and an inner width
    of 16 or more, the last bits can differ.) T = 1 rows, a single (d,) row
    and a one-column layer go through numpy's stacked call in one pass,
    which it runs as gemv, whose rounding of a row depends on how the rows
    are grouped. A recorded op writes the blocks into one (rows, f) array,
    the rectified hidden backward reads; its ``> 0`` mask is the
    pre-activation's. Unrecorded, one block buffer serves every block.
    Backward multiplies the hidden adjoint by that mask in place, the
    product ``relu``'s backward forms.
    """
    if (w1.ndim != 2 or w2.ndim != 2 or x.shape[-1:] != w1.shape[:1]
            or w1.shape[1:] != w2.shape[:1] or b1.shape != w1.shape[1:]
            or b2.shape != w2.shape[1:]):
        raise DimensionError(f"feed_forward shapes disagree: {x.shape} x {w1.shape} "
                             f"+ {b1.shape} x {w2.shape} + {b2.shape}")
    xd, w1d, w2d, b1d, b2d = x.data, w1.data, w2.data, b1.data, b2.data
    (d, f), n = w1d.shape, w2d.shape[1]
    if xd.ndim < 2 or xd.shape[-2] == 1 or f == 1 or n == 1:
        h, out = _ff_block(xd, w1d, b1d, w2d, b2d)
    else:
        rows = xd.reshape(-1, d)
        block = max(1, FF_BLOCK_BYTES // (8 * f))
        recorded = bool(_ACTIVE_TAPES) and any(
            p.requires_grad for p in (x, w1, b1, w2, b2))
        h = np.empty((len(rows) if recorded else min(block, len(rows)), f))
        out = np.empty((len(rows), n))
        for lo in range(0, len(rows), block):
            hi = min(lo + block, len(rows))
            _ff_block(rows[lo:hi], w1d, b1d, w2d, b2d,
                      h[lo:hi] if recorded else h[:hi - lo], out[lo:hi])
    out = out.reshape(xd.shape[:-1] + (n,))
    rx = x.requires_grad

    def bwd(g):
        g2, hidden = g.reshape(-1, n), h.reshape(-1, f)
        gh = g2 @ w2d.T
        gh *= hidden > 0.0
        gx = (gh @ w1d.T).reshape(xd.shape) if rx else None
        return (gx, xd.reshape(-1, d).T @ gh, gh.sum(axis=0),
                hidden.T @ g2, g2.sum(axis=0))

    return custom_op(out, (x, w1, b1, w2, b2), bwd)


# ---------------------------------------------------------------------------
# reductions

def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axes)
        return (np.broadcast_to(gg, shape).copy(),)

    return custom_op(out, (a,), bwd)


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    count = int(np.prod([a.shape[ax] for ax in axes])) if a.ndim else 1
    out = a.data.mean(axis=axes, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axes)
        return (np.divide(np.broadcast_to(gg, shape), count),)

    return custom_op(out, (a,), bwd)


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    ax = axis % a.ndim
    m = a.data.max(axis=ax, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=ax, keepdims=True)
    out = (m + np.log(total)).squeeze(ax)

    def bwd(g):
        soft = shifted / total
        return (np.expand_dims(g, ax) * soft,)

    return custom_op(out, (a,), bwd)


# ---------------------------------------------------------------------------
# fused neural-net primitives

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``; slices sum to 1."""
    ax = axis % a.ndim
    out = a.data - a.data.max(axis=ax, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)

    def bwd(g):
        ga = g - (g * out).sum(axis=ax, keepdims=True)
        ga *= out
        return (ga,)

    return custom_op(out, (a,), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              keep: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of (B, T, d) projections, from
    head split to head merge, as one op returning the (B, T, d) output.

    ``keep`` is a boolean (query, key) mask that broadcasts to (B, H, T, T);
    ``None`` means full attention. A masked logit is pushed low enough that
    its softmax weight, and so its gradient, is exactly 0.
    """
    b, t, d = q.shape
    if k.shape != q.shape or v.shape != q.shape or d % n_heads:
        raise DimensionError(f"attention needs equal q, k, v shapes with {n_heads} "
                             f"heads dividing d: {q.shape} {k.shape} {v.shape}")
    scale = 1.0 / np.sqrt(d // n_heads)

    def split(a):  # (B, T, d) -> (B, H, T, d / H)
        return a.reshape(b, t, n_heads, -1).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(b, t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the scores buffer becomes the softmax weights in place
    attn = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    attn *= scale
    if keep is not None:
        attn += np.where(keep, 0.0, _EPS_MASK)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)

    def bwd(g):
        gh = split(g)
        # gs = attn * (ga - sum(ga * attn)) * scale, built in the ga buffer
        gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale
        gk = np.matmul(qh.transpose(0, 1, 3, 2), gs).transpose(0, 1, 3, 2)
        gv = np.matmul(attn.transpose(0, 1, 3, 2), gh)
        return merge(np.matmul(gs, kh)), merge(gk), merge(gv)

    return custom_op(merge(np.matmul(attn, vh)), (q, k, v), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last dimension to zero mean, unit variance, then affine."""
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if d < 1:
        raise DimensionError("layer_norm needs a nonempty last dimension")
    # var is np.var's own sequence (centre, square, sum, divide), run on the
    # one centred array that then becomes xhat
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.square(xhat)
    inv = 1.0 / np.sqrt(out.sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data
    bias_shape = bias.shape

    def bwd(g):
        # gx = inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gain
        gx = g * gain.data
        tmp = gx * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= np.multiply(xhat, m2, out=tmp)
        gx *= inv
        ggain = _unbroadcast(np.multiply(g, xhat, out=tmp), gain.shape)
        return gx, ggain, _unbroadcast(g, bias_shape)

    return custom_op(out, (x, gain, bias), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class."""
    ids = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise DimensionError("cross_entropy expects (n, classes) logits")
    n, c = logits.shape
    if ids.shape != (n,):
        raise DimensionError(f"labels shape {ids.shape} does not match {n} rows")
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= c:
        raise IndexError("label outside [0, classes)")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    out = -logp[np.arange(n), ids].mean()

    def bwd(g):
        soft = np.exp(logp)
        soft[np.arange(n), ids] -= 1.0
        return (g * soft / n,)

    return custom_op(out, (logits,), bwd)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a: Tensor, shape) -> Tensor:
    new_shape = tuple(shape)
    out = a.data.reshape(new_shape)
    a_shape = a.shape
    return custom_op(out, (a,), lambda g: (g.reshape(a_shape),))


def transpose(a: Tensor, axes=None) -> Tensor:
    perm = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    inverse = np.argsort(perm)
    out = a.data.transpose(perm)
    return custom_op(out, (a,), lambda g: (g.transpose(inverse),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat of empty sequence")
    ax = axis % ts[0].ndim
    out = np.concatenate([t.data for t in ts], axis=ax)
    sizes = [t.shape[ax] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    flags = [t.requires_grad for t in ts]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) if r else None
                     for r, piece in zip(flags, np.split(g, splits, axis=ax)))

    return custom_op(out, tuple(ts), bwd)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    ax = axis % a.ndim
    idx = [slice(None)] * a.ndim
    idx[ax] = slice(start, stop)
    idx = tuple(idx)
    out = a.data[idx]
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[idx] = g
        return (full,)

    return custom_op(out, (a,), bwd)


def take_rows(table: Tensor, ids) -> Tensor:
    """Row gather (embedding lookup); backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= table.shape[0]:
        raise IndexError("row index outside table")
    out = table.data[idx]
    shape = table.shape

    def bwd(g):
        gt = np.zeros(shape)
        np.add.at(gt, idx, g)
        return (gt,)

    return custom_op(out, (table,), bwd)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in ts]
    return concat(expanded, axis=axis)


def masked_fill_logits(logits: Tensor, keep_mask: np.ndarray) -> Tensor:
    """Push masked-out logits to a value whose softmax weight underflows to 0."""
    penalty = Tensor(np.where(np.asarray(keep_mask, dtype=bool), 0.0, _EPS_MASK))
    return add(logits, penalty)
