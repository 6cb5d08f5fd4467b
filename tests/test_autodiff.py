"""Tensor arithmetic and reverse-mode gradient tests.

Hand-derived oracle values are frozen as literals; gradient correctness is
checked against central finite differences.
"""

import gc
import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finfusion import autodiff as ad
from finfusion.autodiff import (
    Tape,
    Tensor,
    backward,
    concat,
    cross_entropy,
    grad_check,
    layer_norm,
    logsumexp,
    masked_fill_logits,
    matmul,
    reduce_mean,
    reduce_sum,
    reshape,
    slice_axis,
    softmax,
    stack,
    take_rows,
    transpose,
)
from finfusion.errors import ContractError, DimensionError, NumericalError


# ---------------------------------------------------------------------------
# construction and invariants

def test_tensor_shape_times_values():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert t.size == 4
    assert np.prod(t.shape) == t.data.ravel().size


def test_leaf_allocates_grad_buffer():
    t = Tensor([1.0, 2.0], requires_grad=True)
    assert t.grad is not None
    assert t.grad.shape == t.data.shape
    assert np.all(t.grad == 0.0)


def test_non_leaf_has_no_grad_buffer():
    t = Tensor([1.0, 2.0])
    assert t.grad is None


def test_nan_input_rejected():
    with pytest.raises(NumericalError):
        Tensor([1.0, float("nan")])


def test_inf_produced_by_op_rejected():
    x = Tensor([1000.0])
    with pytest.raises(NumericalError):
        ad.exp(x)


def test_log_of_negative_rejected():
    with pytest.raises(NumericalError):
        ad.log(Tensor([-1.0]))


def test_all_lists_exactly_the_public_functions_and_classes():
    defined = {name for name, obj in vars(ad).items()
               if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == ad.__name__}
    assert sorted(ad.__all__) == sorted(defined)


# ---------------------------------------------------------------------------
# matmul

def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_value():
    # 1*3 + 2*4 = 11
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out.item() == 11.0


def test_matmul_zero():
    z = Tensor(np.zeros((2, 3)))
    m = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.all(matmul(z, m).data == 0.0)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


@pytest.mark.parametrize("b_shape", [(3,), (3, 2)])
def test_matmul_rejects_a_vector_left_operand(b_shape):
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros(b_shape)))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=(4, 5, 2))
    out = matmul(Tensor(a), Tensor(b))
    for i in range(4):
        assert np.allclose(out.data[i], a[i] @ b[i])


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])


def test_softmax_stability():
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 0.999999
    assert out.data[1] < 1e-6


def test_softmax_ln2():
    out = softmax(Tensor([math.log(2.0), 0.0]))
    assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_slices_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 9)))
    out = softmax(x, axis=-1)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 6))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 123.456)).data
    assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------------------
# layer_norm

def _ln(x, gain=None, bias=None):
    d = np.shape(x)[-1]
    g = Tensor(np.ones(d)) if gain is None else Tensor(gain)
    b = Tensor(np.zeros(d)) if bias is None else Tensor(bias)
    return layer_norm(Tensor(x), g, b)


def test_layer_norm_constant_vector():
    out = _ln([5.0, 5.0, 5.0])
    assert np.allclose(out.data, 0.0, atol=1e-2)


def test_layer_norm_already_normalized():
    out = _ln([1.0, -1.0])
    assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)


def test_layer_norm_gain_zero_gives_bias():
    out = _ln([3.0, 1.0, 4.0], gain=[0.0, 0.0, 0.0], bias=[7.0, 7.0, 7.0])
    assert np.allclose(out.data, 7.0)


def test_layer_norm_output_stats():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 16)) * 4 + 2
    out = _ln(x)
    assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


# ---------------------------------------------------------------------------
# cross_entropy

def test_cross_entropy_confident_correct():
    logits = Tensor([[100.0, 0.0, 0.0]])
    out = cross_entropy(logits, [0])
    assert out.item() < 1e-6


def test_cross_entropy_uniform_four_classes():
    logits = Tensor([[0.0, 0.0, 0.0, 0.0]])
    out = cross_entropy(logits, [2])
    assert abs(out.item() - math.log(4.0)) < 1e-12


def test_cross_entropy_two_zeros():
    out = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert abs(out.item() - math.log(2.0)) < 1e-12


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_is_mean_over_rows():
    logits = Tensor([[100.0, 0.0], [0.0, 0.0]])
    out = cross_entropy(logits, [0, 0])
    assert abs(out.item() - math.log(2.0) / 2.0) < 1e-9


# ---------------------------------------------------------------------------
# backward

def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        loss = x * x
    backward(loss, tape)
    assert x.grad == pytest.approx(6.0)


def test_backward_matmul_matches_fd():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)))

    def f(t):
        return reduce_sum(matmul(t, b))

    assert grad_check(f, a, eps=1e-4) < 1e-6


# (a shape, b shape, whether a is a transposed view)
_SHARED_WEIGHT_CASES = {
    "btk_kn": ((4, 6, 5), (5, 3), False),
    "t1": ((7, 1, 5), (5, 3), False),
    "4d": ((2, 3, 4, 5), (5, 3), False),
    "transposed_view": ((4, 6, 5), (5, 3), True),
    "vector_weight": ((4, 6, 5), (5,), False),
}


@pytest.mark.parametrize("case", sorted(_SHARED_WEIGHT_CASES))
def test_shared_weight_gradients_match_the_broadcast_reference(case):
    a_shape, b_shape, view = _SHARED_WEIGHT_CASES[case]
    rng = np.random.default_rng(21)
    # a transposed view is built from a (B, k, T) leaf
    x_shape = (a_shape[0], a_shape[2], a_shape[1]) if view else a_shape
    x = Tensor(rng.normal(size=x_shape), requires_grad=True)
    b = Tensor(rng.normal(size=b_shape), requires_grad=True)
    coeffs = rng.normal(size=a_shape[:-1] + b_shape[1:])
    with Tape() as tape:
        a = transpose(x, (0, 2, 1)) if view else x
        loss = reduce_sum(matmul(a, b) * coeffs)
    assert a.data.flags.c_contiguous != view
    backward(loss, tape)
    # reference: one product per stacked matrix, then a sum over the stack
    g, av = coeffs, a.data
    if b.ndim == 1:
        ga = g[..., None] * b.data
        gb = np.matmul(np.swapaxes(av, -1, -2), g[..., None])[..., 0]
    else:
        ga = np.matmul(g, b.data.T)
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
    gb = gb.reshape((-1,) + b_shape).sum(axis=0)
    got_a = np.swapaxes(x.grad, -1, -2) if view else x.grad
    for got, ref in ((got_a, ga), (b.grad, gb)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 3, 5), (5, 4)), ((3, 1, 4), (4, 2)), ((2, 2, 3, 4), (4, 3)), ((2, 3, 4), (4,))],
    ids=["btk_kn", "t1", "4d", "vector_weight"])
def test_grad_check_of_a_shared_weight(a_shape, b_shape):
    rng = np.random.default_rng(22)
    a = rng.normal(size=a_shape)
    w = Tensor(rng.normal(size=b_shape), requires_grad=True)

    def f(t):
        return reduce_sum(ad.tanh(matmul(a, t)))

    assert grad_check(f, w, eps=1e-5) < 1e-7


def test_backward_detached_leaf_untouched():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(y * y)
    backward(loss, tape)
    assert np.all(x.grad == 0.0)
    assert y.grad[0] == pytest.approx(6.0)


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.matmul,
                                lambda a, b: concat([a, b], axis=0)])
@pytest.mark.parametrize("trained", [0, 1])
def test_binary_ops_give_no_adjoint_to_a_constant_parent(op, trained):
    # a position table, mask or scalar weight gets no adjoint to drop
    rng = np.random.default_rng(3)
    parents = [Tensor(rng.normal(size=(2, 2))) for _ in range(2)]
    parents[trained] = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with Tape() as tape:
        out = op(*parents)
    grads = tape.ops[-1].backward_fn(np.ones_like(out.data))
    assert grads[1 - trained] is None
    assert grads[trained].shape == (2, 2)


def test_backward_accumulates_across_calls():
    x = Tensor(2.0, requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = x * x
        backward(loss, tape)
    assert x.grad == pytest.approx(8.0)
    x.zero_grad()
    with Tape() as tape:
        loss = x * x
    backward(loss, tape)
    assert x.grad == pytest.approx(4.0)


def test_backward_empties_the_tape():
    x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(ad.tanh(x * x))
    assert len(tape) == 3
    backward(loss, tape)
    assert len(tape) == 0


def test_a_second_backward_on_a_replayed_tape_is_refused():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        loss = x * x
    backward(loss, tape)
    with pytest.raises(ContractError, match="already replayed"):
        backward(loss, tape)
    # the refused call added nothing
    assert x.grad == pytest.approx(4.0)


def test_an_op_recorded_after_the_replay_takes_a_fresh_node():
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        first = [x * x, x * 3.0]
        backward(first[0] + first[1], tape)
        later = [x * x, x * 5.0]
    earlier = {t.node for t in first}
    assert len(earlier) == 2 and len({t.node for t in later}) == 2
    assert not earlier & {t.node for t in later}
    assert len(tape) == 2


def test_backward_rejects_vector_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = x * x
    with pytest.raises(ContractError):
        backward(loss, tape)


def test_backward_fanout_sums_adjoints():
    # loss = x*x + 3x => grad 2x + 3
    x = Tensor(5.0, requires_grad=True)
    with Tape() as tape:
        loss = x * x + x * 3.0
    backward(loss, tape)
    assert x.grad == pytest.approx(13.0)


def test_chain_rule_composition():
    # d/dx tanh(x^2) = (1 - tanh^2(x^2)) * 2x at x = 0.7
    x = Tensor(0.7, requires_grad=True)
    with Tape() as tape:
        loss = ad.tanh(x * x)
    backward(loss, tape)
    expected = (1.0 - math.tanh(0.49) ** 2) * 1.4
    assert x.grad == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# what a tape keeps alive
#
# The cycle collector is off in these tests, so a value that a reference
# cycle keeps alive counts as retained.

def _residual_net(x, w, keep=None):
    """A residual add, a reshape and tanh; ``keep`` collects every op result
    when the caller holds on to them."""
    keep = [] if keep is None else keep
    h = ad.mul(x, Tensor(2.0))
    r = ad.add(h, x)           # a residual sum: no backward reads it
    flat = reshape(r, (-1,))   # a reshape source: its backward reads a shape
    t = ad.tanh(flat)          # tanh's backward reads its own output
    m = matmul(reshape(t, x.shape), w)
    keep += [h, r, flat, t, m]
    return reduce_sum(m * m)


@pytest.fixture
def no_cycle_collector():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_tape_frees_an_op_result_no_backward_reads(no_cycle_collector):
    rng = np.random.default_rng(40)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with Tape() as tape:
        h = ad.mul(x, Tensor(2.0))
        r = ad.add(h, x)
        flat = reshape(r, (-1,))
        t = ad.tanh(flat)
        loss = reduce_sum(t)
        dropped = [weakref.ref(a.data) for a in (h, r, flat)]
        kept = weakref.ref(t.data)
        del h, r, flat, t
        assert [ref() is None for ref in dropped] == [True] * 3
        # tanh's backward reads its output, so the tape keeps it
        assert kept() is not None
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(3.0 * x.data) ** 2),
                               rtol=1e-12)
    # nothing refers back to the tape, so dropping it frees what it kept
    tape_ref = weakref.ref(tape)
    del tape, loss
    assert tape_ref() is None and kept() is None


def test_gradients_do_not_depend_on_what_the_caller_keeps(no_cycle_collector):
    rng = np.random.default_rng(41)
    arrays = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))
    grads = []
    for keep in ([], None):
        x, w = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            loss = _residual_net(x, w, keep)
        backward(loss, tape)
        grads.append((x.grad.tobytes(), w.grad.tobytes()))
    assert grads[0] == grads[1]


def test_an_outer_tape_result_is_a_constant_to_an_inner_backward():
    x = Tensor(1.5, requires_grad=True)
    with Tape() as outer:
        y = x * x
        with Tape() as inner:
            loss = y * x
    assert len(outer) == 1 and len(inner) == 1
    backward(loss, inner)
    # d(y * x)/dx with y held constant: the inner backward stops at y
    assert len(outer) == 1 and len(inner) == 0
    assert x.grad == pytest.approx(2.25)


def test_backward_frees_an_op_before_it_replays_the_next(no_cycle_collector):
    """An array that only one op's backward holds is freed by the time an
    op recorded before it, and so replayed after it, runs its backward."""
    x = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    seen = []

    def spy(t):
        # an identity op whose backward looks at the tanh output
        def bwd(g):
            seen.append(captured() is None)
            return (g,)
        return ad.custom_op(t.data.copy(), (t,), bwd)

    with Tape() as tape:
        h = spy(x)
        y = ad.tanh(h)   # tanh's backward holds its output, and only it
        captured = weakref.ref(y.data)
        loss = reduce_sum(y)
        del h, y
    assert captured() is not None
    backward(loss, tape)
    assert seen == [True]
    np.testing.assert_allclose(x.grad, 1.0 - np.tanh(x.data) ** 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# grad_check harness

def test_grad_check_sum_of_squares():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    err = grad_check(lambda t: reduce_sum(t * t), x, eps=1e-4)
    assert err < 1e-6


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    err = grad_check(lambda t: cross_entropy(t, [0, 3, 1, 4]), x, eps=1e-4)
    assert err < 1e-4


def test_grad_check_restores_grad_state():
    x = Tensor([1.0, 2.0], requires_grad=True)
    x.grad[...] = [9.0, 9.0]
    grad_check(lambda t: reduce_sum(t * t), x)
    assert np.all(x.grad == 9.0)


# ---------------------------------------------------------------------------
# per-op finite-difference sweep

_UNARY_OPS = [
    ("exp", ad.exp, (-1.0, 1.0)),
    ("log", ad.log, (0.2, 3.0)),
    ("tanh", ad.tanh, (-2.0, 2.0)),
    ("sigmoid", ad.sigmoid, (-3.0, 3.0)),
    ("relu", ad.relu, (0.3, 2.0)),
    ("leaky_relu", ad.leaky_relu, (-2.0, -0.3)),
    ("elu", ad.elu, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,box", _UNARY_OPS, ids=[n for n, _, _ in _UNARY_OPS])
def test_unary_gradients(name, op, box):
    rng = np.random.default_rng(hash(name) % (2**32))
    lo, hi = box
    raw = rng.uniform(lo, hi, size=(3, 4))
    # keep relu/elu away from the kink where fd is invalid
    if name in ("relu", "leaky_relu", "elu"):
        raw = np.where(np.abs(raw) < 0.05, 0.3, raw)
    x = Tensor(raw, requires_grad=True)
    err = grad_check(lambda t: reduce_sum(op(t)), x, eps=1e-5)
    assert err < 1e-6, f"{name} gradient error {err}"


def test_binary_broadcast_gradients():
    rng = np.random.default_rng(33)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
    for op in (ad.add, ad.sub, ad.mul):
        assert grad_check(lambda t: reduce_sum(op(t, b)), a) < 1e-6
        assert grad_check(lambda t: reduce_sum(op(a, t)), b) < 1e-6


def test_broadcast_rejects_leading_mismatch():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4))))


def test_reduce_and_shape_gradients():
    rng = np.random.default_rng(44)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w1 = rng.normal(size=(3, 4))
    w2 = rng.normal(size=(3, 4))
    cases = [
        lambda t: reduce_sum(t),
        lambda t: reduce_sum(reduce_mean(t, axis=0)),
        lambda t: reduce_sum(t, axis=1, keepdims=True).mean(),
        lambda t: reduce_sum(logsumexp(t, axis=-1)),
        lambda t: reduce_sum(reshape(t, (2, 6)) * 2.0),
        lambda t: reduce_sum(transpose(t) * 1.5),
        lambda t: reduce_sum(slice_axis(t, 1, 1, 3)),
        lambda t: reduce_sum(concat([t, t], axis=0)),
        lambda t: reduce_sum(softmax(t, axis=-1) * w1),
        lambda t: reduce_sum(layer_norm(t, Tensor(np.ones(4)), Tensor(np.zeros(4))) * w2),
    ]
    for i, f in enumerate(cases):
        err = grad_check(f, x)
        assert err < 1e-5, f"case {i} gradient error {err}"


def test_take_rows_gradient_scatter_adds():
    table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    with Tape() as tape:
        picked = take_rows(table, [0, 2, 0])
        loss = reduce_sum(picked)
    backward(loss, tape)
    assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_take_rows_out_of_range():
    with pytest.raises(IndexError):
        take_rows(Tensor(np.zeros((3, 2))), [3])


def test_logsumexp_stability():
    out = logsumexp(Tensor([1000.0, 1000.0]), axis=-1)
    assert out.item() == pytest.approx(1000.0 + math.log(2.0))


def test_stack_builds_new_axis():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    out = stack([a, b], axis=0)
    assert out.shape == (2, 2)
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_masked_fill_removes_weight():
    logits = Tensor([5.0, 1.0, 3.0])
    masked = masked_fill_logits(logits, np.array([True, False, True]))
    w = softmax(masked).data
    assert w[1] == 0.0
    assert np.allclose(w.sum(), 1.0)
    # weights over surviving entries match softmax of the reduced problem
    ref = softmax(Tensor([5.0, 3.0])).data
    assert np.allclose([w[0], w[2]], ref, atol=1e-15)


# ---------------------------------------------------------------------------
# determinism and properties

def test_ops_deterministic():
    rng = np.random.default_rng(55)
    x = rng.normal(size=(4, 4))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x)).data
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_softmax_sums_to_one_property(xs):
    out = softmax(Tensor(xs))
    assert abs(out.data.sum() - 1.0) < 1e-6
    assert np.all(out.data >= 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_add_mul_grads_property(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(0.5, 2.0, size=(2, 3)), requires_grad=True)
    err = grad_check(lambda t: reduce_sum(t * t + ad.log(t)), x)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# fused ops against the unfused compositions they replace

def _rel_err(got, want):
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / scale) if scale else float(np.abs(got).max())


def _value_and_grads(f, arrays, coeffs):
    """f's output and the gradient of sum(f * coeffs) for each input array."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = f(*leaves)
        loss = reduce_sum(out * Tensor(coeffs))
    backward(loss, tape)
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((3, 4, 5), (5, 6), (6,)),   # stacked (B, T, k) input
    ((3, 1, 5), (5, 6), (6,)),   # T = 1
    ((4, 5), (5, 6), (6,)),
    ((3, 4, 5), (5,), (1,)),     # 1-D weight with a (1,) bias
])
def test_linear_matches_matmul_plus_bias(x_shape, w_shape, b_shape):
    rng = np.random.default_rng(21)
    arrays = [rng.normal(size=s) for s in (x_shape, w_shape, b_shape)]
    coeffs = rng.normal(size=np.matmul(arrays[0], arrays[1]).shape)
    got = _value_and_grads(ad.linear, arrays, coeffs)
    want = _value_and_grads(lambda x, w, b: matmul(x, w) + b, arrays, coeffs)
    assert got[0].tobytes() == want[0].tobytes()
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert _rel_err(g, w) <= 1e-12


def test_linear_rejects_mismatched_shapes():
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        ad.linear(x, Tensor(np.ones((5, 2))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        ad.linear(x, Tensor(np.ones((4, 2))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        ad.linear(x, Tensor(np.ones((4, 2, 1))), Tensor(np.zeros(1)))


def _unfused_attention(q, k, v, n_heads, keep):
    """The head split, scaled scores, mask, softmax, ``attn @ v`` and head
    merge as separate ops, as ``multi_head_attention`` once composed them."""
    b, t, d = q.shape
    dh = d // n_heads

    def split(a):
        return transpose(reshape(a, (b, t, n_heads, dh)), (0, 2, 1, 3))

    scores = matmul(split(q), transpose(split(k), (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if keep is not None:
        scores = masked_fill_logits(scores, np.broadcast_to(keep, scores.shape))
    attn = softmax(scores, axis=-1)
    return reshape(transpose(matmul(attn, split(v)), (0, 2, 1, 3)), (b, t, d))


_PAD = np.array([[True, True, True, False, False], [True, True, True, True, True],
                 [True, False, False, False, False]])
_MASKS = {
    "none": lambda b, t: None,
    "key-padding": lambda b, t: _PAD[:b, :t][:, None, None, :],
    # the fusion layer's modality presence: any subset with one present
    "presence": lambda b, t: np.array([[True, False, True, True, False],
                                       [False, True, False, False, True],
                                       [True, True, True, True, True]])[:b, :t][:, None, None, :],
    "causal": lambda b, t: np.tril(np.ones((t, t), dtype=bool)),
}


@pytest.mark.parametrize("mask", sorted(_MASKS))
@pytest.mark.parametrize("t", [1, 5])
def test_attention_matches_the_unfused_composition(mask, t):
    rng = np.random.default_rng(22)
    b, d, n_heads = 3, 8, 2
    keep = _MASKS[mask](b, t)
    if keep is not None and t == 1:
        keep = np.ones_like(keep)  # one key, and every query needs a key
    arrays = [rng.normal(size=(b, t, d)) for _ in range(3)]
    coeffs = rng.normal(size=(b, t, d))
    got = _value_and_grads(lambda q, k, v: ad.attention(q, k, v, n_heads, keep),
                           arrays, coeffs)
    want = _value_and_grads(lambda q, k, v: _unfused_attention(q, k, v, n_heads, keep),
                            arrays, coeffs)
    assert got[0].tobytes() == want[0].tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert _rel_err(g, w) <= 1e-12


def test_attention_masked_key_gets_exactly_zero_weight_and_gradient():
    rng = np.random.default_rng(23)
    b, t, d = 3, 5, 8
    keep = _PAD[:, None, None, :]
    arrays = [rng.normal(size=(b, t, d)) for _ in range(3)]
    out, _, gk, gv = _value_and_grads(lambda q, k, v: ad.attention(q, k, v, 2, keep),
                                      arrays, rng.normal(size=(b, t, d)))
    # a masked key's weight is exactly 0: no change to its k or v row moves
    # the output by a bit
    q, k, v = (a.copy() for a in arrays)
    k[~_PAD] += rng.normal(size=k[~_PAD].shape) * 100.0
    v[~_PAD] += rng.normal(size=v[~_PAD].shape) * 100.0
    moved = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2, keep).data
    assert moved.tobytes() == out.tobytes()
    assert np.all(gk[~_PAD] == 0.0) and np.all(gv[~_PAD] == 0.0)
    assert np.all(gv[_PAD] != 0.0)
    # a lone key's weight is 1 whatever its logit, so its key gradient is 0 too
    assert np.all(gk[:2][_PAD[:2]] != 0.0)


def test_attention_rejects_bad_shapes():
    x = Tensor(np.ones((2, 3, 6)))
    with pytest.raises(DimensionError):
        ad.attention(x, x, x, 4)
    with pytest.raises(DimensionError):
        ad.attention(x, Tensor(np.ones((2, 4, 6))), x, 2)


# ---------------------------------------------------------------------------
# the in-place kernels against their out-of-place reference forms
#
# Each reference computes its kernel out of place, with a fresh array for
# every intermediate and the same float operations in the same order. The
# in-place kernels must match them bit for bit.

def _ref_linear(x, w, b):
    n = w.shape[1] if w.ndim == 2 else 1
    out = np.matmul(x.data, w.data) + b.data

    def bwd(g):
        g2, w2 = g.reshape(-1, n), w.data.reshape(-1, n)
        gx = (g2 @ w2.T).reshape(x.shape) if x.requires_grad else None
        gw = x.data.reshape(-1, w2.shape[0]).T @ g2
        return gx, gw.reshape(w.shape), g2.sum(axis=0).reshape(b.shape)

    return ad.custom_op(out, (x, w, b), bwd)


def _ref_feed_forward(x, w1, b1, w2, b2):
    # the unfused layer: linear, relu (whose backward is a bool-mask
    # product), linear
    return _ref_linear(ad.relu(_ref_linear(x, w1, b1)), w2, b2)


def _kinked_inputs(x_shape):
    """feed_forward inputs whose first three hidden units see a
    pre-activation of exactly 0 on every row."""
    def make(rng):
        x, w1, b1, w2, b2 = (rng.normal(size=s)
                             for s in (x_shape, (5, 6), (6,), (6, 4), (4,)))
        w1[:, :3] = 0.0
        b1[:3] = 0.0
        return x, w1, b1, w2, b2
    return make


def _ref_attention(q, k, v, n_heads, keep):
    b, t, d = q.shape
    scale = 1.0 / np.sqrt(d // n_heads)

    def split(a):
        return a.reshape(b, t, n_heads, -1).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(b, t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if keep is not None:
        scores = scores + np.where(np.broadcast_to(keep, scores.shape), 0.0, -1e9)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gh = split(g)
        ga = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True)) * scale
        gk = np.matmul(qh.transpose(0, 1, 3, 2), gs).transpose(0, 1, 3, 2)
        gv = np.matmul(attn.transpose(0, 1, 3, 2), gh)
        return merge(np.matmul(gs, kh)), merge(gk), merge(gv)

    return ad.custom_op(merge(np.matmul(attn, vh)), (q, k, v), bwd)


def _ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gain.data + bias.data

    def bwd(g):
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gg - m1 - xhat * m2)
        ggain = ad._unbroadcast(g * xhat, gain.shape)
        gbias = ad._unbroadcast(g, bias.shape)
        return gx, ggain, gbias

    return ad.custom_op(out, (x, gain, bias), bwd)


def _ref_softmax(a, axis=-1):
    ax = axis % a.ndim
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - inner),)

    return ad.custom_op(out, (a,), bwd)


def _ref_reduce_mean(a, axis=None, keepdims=False):
    axes = tuple(range(a.ndim)) if axis is None else \
        tuple(ax % a.ndim for ax in np.atleast_1d(axis))
    count = int(np.prod([a.shape[ax] for ax in axes]))
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, a.shape).copy() / count,)

    return ad.custom_op(out, (a,), bwd)


def _kernel_cases():
    """(id, kernel, reference, inputs) for every rewritten kernel; inputs
    are the input shapes, or a function of the rng that builds the arrays."""
    cases = [(f"linear-{x}x{w}", ad.linear, _ref_linear, (x, w, b))
             for x, w, b in [((3, 4, 5), (5, 6), (6,)), ((3, 1, 5), (5, 6), (6,)),
                             ((4, 5), (5, 6), (6,)), ((3, 4, 5), (5,), (1,))]]
    for x in [(3, 4, 5), (3, 1, 5), (4, 5)]:
        cases.append((f"feed_forward-{x}", ad.feed_forward, _ref_feed_forward,
                      (x, (5, 6), (6,), (6, 4), (4,))))
    for x in [(3, 4, 5), (1, 1, 5)]:
        cases.append((f"feed_forward-kinked-{x}", ad.feed_forward, _ref_feed_forward,
                      _kinked_inputs(x)))
    for mask in sorted(_MASKS):
        for t in (1, 5):
            keep = _MASKS[mask](3, t)
            if keep is not None and t == 1:
                keep = np.ones_like(keep)
            cases.append((f"attention-{mask}-t{t}",
                          lambda q, k, v, keep=keep: ad.attention(q, k, v, 2, keep),
                          lambda q, k, v, keep=keep: _ref_attention(q, k, v, 2, keep),
                          ((3, t, 8),) * 3))
    for x in [(3, 5, 8), (4, 6), (7,)]:
        cases.append((f"layer_norm-{x}", layer_norm, _ref_layer_norm,
                      (x, x[-1:], x[-1:])))
    for axis in (-1, 0, 1):
        cases.append((f"softmax-axis{axis}", lambda a, axis=axis: softmax(a, axis),
                      lambda a, axis=axis: _ref_softmax(a, axis), ((3, 4, 5),)))
    for axis, keepdims in [(None, False), (1, False), (-1, True), ((0, 2), False)]:
        cases.append((f"reduce_mean-{axis}-{keepdims}",
                      lambda a, axis=axis, kd=keepdims: reduce_mean(a, axis, kd),
                      lambda a, axis=axis, kd=keepdims: _ref_reduce_mean(a, axis, kd),
                      ((3, 4, 5),)))
    return cases


_KERNELS = {name: case for name, *case in _kernel_cases()}


def _kernel_inputs(inputs, rng):
    return list(inputs(rng)) if callable(inputs) else [rng.normal(size=s) for s in inputs]


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_equals_its_out_of_place_reference_bit_for_bit(name):
    kernel, reference, inputs = _KERNELS[name]
    rng = np.random.default_rng(24)
    arrays = _kernel_inputs(inputs, rng)
    coeffs = rng.normal(size=reference(*map(Tensor, arrays)).shape)
    got = _value_and_grads(kernel, arrays, coeffs)
    want = _value_and_grads(reference, arrays, coeffs)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_writes_into_neither_its_inputs_nor_its_adjoint(name):
    kernel, _, inputs = _KERNELS[name]
    rng = np.random.default_rng(25)
    leaves = [Tensor(a, requires_grad=True) for a in _kernel_inputs(inputs, rng)]
    inputs = [t.data.copy() for t in leaves]
    with Tape() as tape:
        out = kernel(*leaves)
    value = out.data.copy()
    g = rng.normal(size=out.shape)
    g_before = g.copy()
    first = tape.ops[-1].backward_fn(g)
    # a second backward from the same saved state gives the same bytes, so
    # the first wrote into nothing the op keeps
    second = tape.ops[-1].backward_fn(g)
    assert g.tobytes() == g_before.tobytes()
    assert out.data.tobytes() == value.tobytes()
    for t, before in zip(leaves, inputs):
        assert t.data.tobytes() == before.tobytes()
    for a, b in zip(first, second):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


def test_feed_forward_masks_a_non_finite_adjoint_as_relu_does():
    # relu's backward multiplies by its mask, so an infinite adjoint at a
    # dead hidden unit becomes NaN and the step's finiteness check sees it;
    # a select would zero it. (A select's +0.0 for a negative adjoint's -0.0
    # leaves no trace here: the two gemms and the sum that read the masked
    # adjoint all add onto +0.0.)
    rng = np.random.default_rng(28)
    arrays = list(_kinked_inputs((3, 4, 5))(rng))
    coeffs = rng.normal(size=(3, 4, 4))
    coeffs[1, 2, 0] = np.inf

    def grads(f):  # of sum(f * coeffs), whose adjoint Tensor() would reject
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            out = f(*leaves)
            loss = ad.custom_op(np.sum(out.data * coeffs), (out,), lambda g: (g * coeffs,))
        backward(loss, tape)
        return [t.grad for t in leaves]

    with np.errstate(invalid="ignore"):
        got, want = grads(ad.feed_forward), grads(_ref_feed_forward)
    assert np.isnan(got[2][:3]).all()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_feed_forward_matches_finite_differences_away_from_the_kink():
    rng = np.random.default_rng(27)
    x, w1, b1, w2, b2 = (Tensor(rng.normal(size=s), requires_grad=True)
                         for s in ((2, 3, 4), (4, 6), (6,), (6, 4), (4,)))
    pre = np.matmul(x.data, w1.data) + b1.data
    assert np.abs(pre).min() > 1e-2  # no pre-activation within eps of 0
    coeffs = Tensor(rng.normal(size=(2, 3, 4)))

    def loss(*args):
        return reduce_sum(ad.tanh(ad.feed_forward(*args)) * coeffs)

    leaves = [x, w1, b1, w2, b2]
    for i, target in enumerate(leaves):
        def f(t, i=i):
            return loss(*(t if j == i else leaf for j, leaf in enumerate(leaves)))
        assert grad_check(f, target) < 1e-6, i


def test_feed_forward_rejects_mismatched_shapes():
    x = Tensor(np.ones((2, 3, 4)))
    w1, b1, w2, b2 = (Tensor(np.ones(s)) for s in ((4, 6), (6,), (6, 4), (4,)))
    ad.feed_forward(x, w1, b1, w2, b2)
    for bad in ((x, w2, b1, w2, b2), (x, w1, b2, w2, b2), (x, w1, b1, w1, b2),
                (x, w1, b1, w2, b1), (x, Tensor(np.ones(4)), b1, w2, b2)):
        with pytest.raises(DimensionError):
            ad.feed_forward(*bad)


# Stacked (B, T, d) rows at the default dims (d_model 64, d_ff 256): a
# feed-forward block holds 256 rows there, and each B * T below with T > 1
# spans three blocks plus a remainder; T = 1 rows are one stacked call
_DEFAULT_FF_DIMS = (64, 256)
_ROWS_BY_T = {1: 800, 2: 400, 4: 200, 30: 27}


def _default_ff_arrays(t, seed):
    d, f = _DEFAULT_FF_DIMS
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s) for s in ((_ROWS_BY_T[t], t, d), (d, f), (f,), (f, d), (d,))]


def test_the_default_dims_span_three_feed_forward_blocks_and_a_remainder():
    d, f = _DEFAULT_FF_DIMS
    assert ad.FF_BLOCK_BYTES // (8 * f) == 256
    for t, b in _ROWS_BY_T.items():
        if t > 1:
            blocks, rest = divmod(b * t, 256)
            assert blocks == 3 and rest > 0, t


@pytest.mark.parametrize("t", sorted(_ROWS_BY_T))
def test_linear_equals_the_stacked_matmul_bit_for_bit(t):
    x, w, b, _, _ = _default_ff_arrays(t, 31)
    want = np.matmul(x, w) + b
    got = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("recorded", [False, True])
@pytest.mark.parametrize("t", sorted(_ROWS_BY_T))
def test_feed_forward_equals_the_stacked_matmuls_bit_for_bit(t, recorded):
    # the unblocked layer: two stacked matmuls over every row at once
    arrays = _default_ff_arrays(t, 32)
    x, w1, b1, w2, b2 = arrays
    want = np.matmul(np.maximum(np.matmul(x, w1) + b1, 0.0), w2) + b2
    leaves = [Tensor(a, requires_grad=recorded) for a in arrays]
    with Tape() as tape:
        got = ad.feed_forward(*leaves).data
    assert len(tape) == int(recorded)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("t", sorted(_ROWS_BY_T))
def test_feed_forward_blocks_give_the_single_block_adjoints(t, monkeypatch):
    arrays = _default_ff_arrays(t, 33)
    coeffs = np.random.default_rng(34).normal(size=arrays[0].shape)
    blocked = _value_and_grads(ad.feed_forward, arrays, coeffs)
    monkeypatch.setattr(ad, "FF_BLOCK_BYTES", 1 << 40)
    single = _value_and_grads(ad.feed_forward, arrays, coeffs)
    for g, w in zip(blocked, single):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_an_unrecorded_feed_forward_holds_one_hidden_block():
    # 810 rows: the full hidden would take 1.66 MB, one block 512 KiB
    x, w1, b1, w2, b2 = map(Tensor, _default_ff_arrays(30, 36))
    hidden_bytes = x.shape[0] * x.shape[1] * w1.shape[1] * 8
    ad.feed_forward(x, w1, b1, w2, b2)  # warm up
    tracemalloc.start()
    try:
        out = ad.feed_forward(x, w1, b1, w2, b2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ad.FF_BLOCK_BYTES + out.data.nbytes + (128 << 10) < hidden_bytes


@pytest.mark.parametrize("x_shape", [(2, 5, 4), (10, 1, 4), (10, 4)])
def test_feed_forward_matches_finite_differences_over_several_blocks(x_shape,
                                                                     monkeypatch):
    # three hidden rows per block: the (2, 5) and the flat ten rows make three
    # blocks and a remainder, and grad_check's unrecorded evaluations reuse
    # one block buffer; the T = 1 rows are one stacked call
    monkeypatch.setattr(ad, "FF_BLOCK_BYTES", 3 * 8 * 6)
    rng = np.random.default_rng(35)
    leaves = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in (x_shape, (4, 6), (6,), (6, 3), (3,))]
    pre = np.matmul(leaves[0].data, leaves[1].data) + leaves[2].data
    assert np.abs(pre).min() > 1e-3  # no pre-activation within eps of 0
    coeffs = Tensor(rng.normal(size=x_shape[:-1] + (3,)))

    def loss(*args):
        return reduce_sum(ad.tanh(ad.feed_forward(*args)) * coeffs)

    for i, target in enumerate(leaves):
        def f(t, i=i):
            return loss(*(t if j == i else leaf for j, leaf in enumerate(leaves)))
        assert grad_check(f, target) < 1e-6, i


def test_residual_graph_with_shared_adjoints_matches_finite_differences():
    # each add hands one adjoint array to both parents, and the parent made
    # last runs its backward first: a kernel that wrote into that array
    # would corrupt its sibling's gradient
    rng = np.random.default_rng(26)
    x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
    gain = Tensor(rng.normal(size=8) + 1.0)
    bias = Tensor(rng.normal(size=8))
    coeffs = Tensor(rng.normal(size=(2, 4, 8)))
    causal = np.tril(np.ones((4, 4), dtype=bool))

    def f(t):
        h = layer_norm(t, gain, bias)
        h = ad.add(h, ad.attention(h, h, h, 2, causal))
        h = ad.add(ad.attention(h, h, h, 2), layer_norm(h, gain, bias))
        h = ad.add(layer_norm(h, gain, bias), ad.attention(h, h, h, 2, causal))
        h = ad.add(h, softmax(h, axis=-1))
        return reduce_sum(reduce_mean(ad.add(h, h) * coeffs, axis=1))

    assert grad_check(f, x) < 1e-6
