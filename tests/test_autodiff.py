import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import topology
from connectogen.errors import DimensionError, PreconditionError, TapeError

import oracles
from oracles import finite_difference


def rel_err(a, b):
    denom = max(np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def grad_of(build_loss, param_value):
    """Analytic gradient of build_loss(param_tensor) w.r.t. the parameter."""
    p = ad.parameter(param_value)
    with ad.Tape() as tape:
        loss = build_loss(p)
    return ad.backward(tape, loss)[p.node_id].data


class TestForwardExamples:
    def test_matmul_identity(self):
        a = ad.constant([[1, 2], [3, 4]])
        out = ad.matmul(a, ad.constant(np.eye(2)))
        assert np.array_equal(out.data, [[1, 2], [3, 4]])

    def test_matmul_identity_column(self):
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant([[5], [7]]))
        assert np.array_equal(out.data, [[5], [7]])

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3, 1\)"):
            ad.matmul(ad.constant(np.eye(2)), ad.constant(np.zeros((3, 1))))

    def test_relu(self):
        assert np.array_equal(ad.relu(ad.constant([-1, 0, 2])).data, [[0, 0, 2]])

    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant([[0.0]])).item() == 0.5

    def test_elementwise_shape_error(self):
        with pytest.raises(DimensionError):
            ad.add(ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((2, 3))))

    def test_mean(self):
        assert ad.mean(ad.constant([2.0, 4.0])).item() == 3.0

    def test_reduction_empty_errors(self):
        with pytest.raises(PreconditionError):
            ad.mean(ad.constant(np.zeros((0, 3))))


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        x = ad.parameter([1.0, 1.0, 1.0])
        with ad.Tape() as tape:
            loss = oracles.sum_all(x)
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads[x.node_id].data, [[1.0, 1.0, 1.0]])

    def test_grad_sum_square(self):
        g = grad_of(lambda x: oracles.sum_all(ad.mul(x, x)), np.array([[1.0, 2.0]]))
        assert np.allclose(g, [[2.0, 4.0]])

    def test_backward_twice_errors(self):
        x = ad.parameter([[1.0]])
        with ad.Tape() as tape:
            loss = oracles.sum_all(x)
        ad.backward(tape, loss)
        with pytest.raises(TapeError):
            ad.backward(tape, loss)

    def test_nonscalar_loss_errors(self):
        x = ad.parameter([[1.0, 2.0]])
        with ad.Tape() as tape:
            out = ad.mul(x, x)
        with pytest.raises(PreconditionError):
            ad.backward(tape, out)

    def test_detached_loss_errors(self):
        x = ad.parameter([[1.0]])
        with ad.Tape() as tape:
            oracles.sum_all(x)
        detached = ad.constant([[1.0]])
        with pytest.raises(TapeError):
            ad.backward(tape, detached)

    def test_tensor_cannot_join_second_live_tape(self):
        x = ad.parameter([[1.0]])
        with ad.Tape():
            oracles.sum_all(x)
            with ad.Tape():
                with pytest.raises(TapeError):
                    oracles.sum_all(x)

    def test_unreached_leaf_gets_zero_gradient(self):
        x = ad.parameter([[1.0]])
        y = ad.parameter([[2.0, 3.0]])
        with ad.Tape() as tape:
            loss = oracles.sum_all(x)
            oracles.sum_all(y)  # on tape, but not feeding the loss
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads[y.node_id].data, [[0.0, 0.0]])

    def test_chain_rule_three_op_pipeline(self):
        # loss = mean(relu(W @ x)); hand derivation: d/dW = mask * (1/n) x^T rows
        W0 = np.array([[1.0, -2.0], [0.5, 1.5]])
        x0 = np.array([[2.0], [1.0]])

        def build(W):
            return ad.mean(ad.relu(ad.matmul(W, ad.constant(x0))))

        g = grad_of(build, W0)
        pre = W0 @ x0
        mask = (pre > 0).astype(float)
        hand = (mask / 2.0) @ x0.T
        assert np.allclose(g, hand, atol=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(5)
        w0 = rng.standard_normal((3, 3))
        x0 = rng.standard_normal((3, 2))

        def run():
            w = ad.parameter(w0.copy())
            with ad.Tape() as tape:
                out = ad.sigmoid(ad.matmul(w, ad.constant(x0)))
                loss = ad.mean(ad.mul(out, out))
            return loss.item(), ad.backward(tape, loss)[w.node_id].data

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


def _unary_cases():
    rng = np.random.default_rng(42)
    pos = lambda shape: rng.uniform(0.5, 2.0, size=shape)
    anys = lambda shape: rng.standard_normal(shape) + 0.05  # keep off relu/abs kinks
    return [
        ("relu", ad.relu, anys),
        ("sigmoid", ad.sigmoid, anys),
        ("absolute", oracles.absolute, anys),
        ("sqrt", ad.sqrt, pos),
        ("log", ad.log, pos),
        ("clip", lambda x: ad.clip(x, -0.4, 0.4), anys),
        ("scale", lambda x: ad.scale(x, -1.7), anys),
        ("split_rows", lambda x: ad.vstack(oracles.split_rows(x, 1)[::-1]), anys),
        ("transpose", ad.transpose, anys),
    ]


@pytest.mark.parametrize("name,op,sampler", _unary_cases(), ids=lambda c: str(c)[:12])
def test_unary_gradients_match_finite_differences(name, op, sampler):
    for case in range(5):
        x0 = np.asarray(sampler((3, 4)), dtype=float)

        def loss_of(arr):
            t = ad.Tensor(arr)
            out = op(t)
            return ((out.data + 0.3) ** 2).mean()

        def build(x):
            out = op(x)
            shifted = ad.add(out, ad.constant(np.full(out.shape, 0.3)))
            return ad.mean(ad.mul(shifted, shifted))

        g = grad_of(build, x0)
        fd = finite_difference(lambda arr: loss_of(arr), x0)
        assert rel_err(g, fd) < 1e-5, f"{name} case {case}"


def test_binary_and_structural_gradients():
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal((3, 3))
    b0 = rng.standard_normal((3, 3))

    for op in (ad.add, ad.sub, ad.mul, ad.matmul):
        def build(a):
            return ad.mean(ad.mul(op(a, ad.constant(b0)), op(a, ad.constant(b0))))

        def np_loss(arr):
            t = op(ad.Tensor(arr), ad.constant(b0)).data
            return (t * t).mean()

        g = grad_of(build, a0)
        assert rel_err(g, finite_difference(np_loss, a0)) < 1e-5

    parts0 = rng.standard_normal((2, 3))

    def build_vstack(a):
        stacked = ad.vstack([a, ad.constant(parts0)])
        return ad.mean(ad.mul(stacked, stacked))

    def np_vstack(arr):
        s = np.vstack([arr, parts0])
        return (s * s).mean()

    g = grad_of(build_vstack, a0)
    assert rel_err(g, finite_difference(np_vstack, a0)) < 1e-5


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.matmul],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("side", ["second", "both"])
def test_binary_gradients_with_the_parameter_second_or_both(op, side):
    rng = np.random.default_rng(8)
    a0 = rng.standard_normal((3, 3))
    b0 = rng.standard_normal((3, 3))

    def inputs(b):
        return (ad.constant(a0), b) if side == "second" else (b, b)

    def build(b):
        y = op(*inputs(b))
        return ad.mean(ad.mul(y, y))

    def np_loss(arr):
        t = op(*inputs(ad.Tensor(arr))).data
        return (t * t).mean()

    assert rel_err(grad_of(build, b0), finite_difference(np_loss, b0)) < 1e-5


def test_batched_primitives_gradients():
    rng = np.random.default_rng(11)
    r = 4
    f = r * (r - 1) // 2
    feats0 = rng.uniform(0.1, 1.0, size=(3, f))
    x0 = rng.standard_normal((3, r))

    w0 = rng.standard_normal((3, r))

    def np_ec(arr):
        y = topology.batched_eigenvector_rows(ad.Tensor(arr), r).data
        return (y * w0).mean()

    g = grad_of(lambda x: ad.mean(ad.mul(topology.batched_eigenvector_rows(x, r),
                                         ad.constant(w0))), feats0)
    assert rel_err(g, finite_difference(np_ec, feats0)) < 1e-5

    # one (2, 2) adjacency over three blocks, then a (3, 2, 2) stack over
    # stacked and over shared rows
    adj0 = rng.uniform(size=(2, 2))
    tall0 = rng.standard_normal((6, 3))
    stack0 = rng.uniform(size=(3, 2, 2))
    for adjs, x0 in ((adj0, tall0), (stack0, rng.standard_normal((6, 3))),
                     (stack0, rng.standard_normal((2, 3)))):
        def sq_stack(x, adjs=adjs):
            y = ad.stack_matmul(adjs, x)
            return ad.mean(ad.mul(y, y))

        g = grad_of(sq_stack, x0)
        assert rel_err(g, finite_difference(lambda arr: sq_stack(ad.Tensor(arr)).item(),
                                            x0)) < 1e-5

    # three blocks, each through its own weight: the rows and every weight
    rows0 = rng.standard_normal((6, 3))
    weights0 = [rng.standard_normal((3, 4)) for _ in range(3)]

    def sq_blocks(values, which):
        inputs = [rows0] + weights0
        tensors = [ad.constant(v) for v in inputs]
        tensors[which] = values
        y = ad.per_block_matmul(tensors[0], tensors[1:])
        return ad.mean(ad.mul(y, y))

    for which, x0 in enumerate([rows0] + weights0):
        g = grad_of(lambda t: sq_blocks(t, which), x0)
        fd = finite_difference(lambda arr: sq_blocks(ad.Tensor(arr), which).item(), x0)
        assert rel_err(g, fd) < 1e-5, f"input {which}"


class TestBlockPrimitives:
    def test_stack_matmul_one_matrix_is_per_block_matmul(self):
        rng = np.random.default_rng(12)
        adj = rng.uniform(size=(4, 4))
        tall = rng.standard_normal((12, 5))
        out = ad.stack_matmul(adj, ad.constant(tall)).data
        for b in range(3):
            assert np.array_equal(out[4 * b:4 * b + 4], adj @ tall[4 * b:4 * b + 4])

    def test_stack_matmul_one_matrix_shape_errors(self):
        with pytest.raises(DimensionError):  # 7 rows are not blocks of 3
            ad.stack_matmul(np.eye(3), ad.constant(np.zeros((7, 2))))
        with pytest.raises(DimensionError):  # not square
            ad.stack_matmul(np.zeros((2, 3)), ad.constant(np.zeros((6, 2))))
        with pytest.raises(DimensionError):  # neither a matrix nor a stack
            ad.stack_matmul(np.zeros((1, 2, 2, 2)), ad.constant(np.zeros((6, 2))))

    def test_split_rows_blocks_and_errors(self):
        x = ad.constant(np.arange(12.0).reshape(6, 2))
        parts = oracles.split_rows(x, 2)
        assert [p.data.tolist() for p in parts] == [[[0, 1], [2, 3]], [[4, 5], [6, 7]],
                                                     [[8, 9], [10, 11]]]
        with pytest.raises(DimensionError):
            oracles.split_rows(x, 4)

    def test_stack_matmul_is_per_block_matmul(self):
        rng = np.random.default_rng(15)
        adjs = rng.uniform(size=(3, 4, 4))
        tall = rng.standard_normal((12, 5))
        shared = rng.standard_normal((4, 5))
        out = ad.stack_matmul(adjs, ad.constant(tall)).data
        out_shared = ad.stack_matmul(adjs, ad.constant(shared)).data
        for b in range(3):
            assert np.array_equal(out[4 * b:4 * b + 4], adjs[b] @ tall[4 * b:4 * b + 4])
            assert np.array_equal(out_shared[4 * b:4 * b + 4], adjs[b] @ shared)
        with pytest.raises(DimensionError):  # 8 rows are neither 4 nor 3x4
            ad.stack_matmul(adjs, ad.constant(np.zeros((8, 5))))
        with pytest.raises(DimensionError):
            ad.stack_matmul(np.zeros((3, 4, 5)), ad.constant(tall))

    def test_per_block_matmul_is_per_block_matmul(self):
        rng = np.random.default_rng(16)
        tall = rng.standard_normal((12, 5))
        weights = [rng.standard_normal((5, 2)) for _ in range(3)]
        out = ad.per_block_matmul(ad.constant(tall), [ad.constant(w) for w in weights]).data
        for b in range(3):
            assert np.array_equal(out[4 * b:4 * b + 4], tall[4 * b:4 * b + 4] @ weights[b])
        with pytest.raises(DimensionError):  # 12 rows are not 5 blocks
            ad.per_block_matmul(ad.constant(tall), [ad.constant(weights[0])] * 5)
        with pytest.raises(DimensionError):  # weights of different shapes
            ad.per_block_matmul(ad.constant(tall), [ad.constant(weights[0]),
                                                    ad.constant(np.zeros((5, 3)))])

    def test_out_receives_the_result(self):
        rng = np.random.default_rng(17)
        buffer = np.zeros((10, 3))
        x = ad.constant(rng.standard_normal((8, 2)))
        y = ad.per_block_matmul(x, [ad.constant(rng.standard_normal((2, 3)))] * 2,
                                out=buffer[2:])
        assert np.shares_memory(y.data, buffer) and np.array_equal(buffer[2:], y.data)
        z = ad.stack_matmul(rng.uniform(size=(2, 3, 3)), ad.constant(np.ones((3, 3))),
                            out=buffer[:6])
        assert np.shares_memory(z.data, buffer) and np.array_equal(buffer[:6], z.data)
        with pytest.raises(DimensionError):  # not C-contiguous
            ad.stack_matmul(rng.uniform(size=(2, 3, 3)), ad.constant(np.ones((3, 3))),
                            out=np.zeros((3, 6)).T)

    def test_slice_rows_bounds(self):
        x = ad.constant(np.arange(6.0).reshape(3, 2))
        assert ad.slice_rows(x, 1, 3).data.tolist() == [[2, 3], [4, 5]]
        for start, stop in ((2, 2), (-1, 2), (1, 4)):
            with pytest.raises(DimensionError):
                ad.slice_rows(x, start, stop)

    def test_unused_split_block_gets_zero_gradient(self):
        x = ad.parameter(np.ones((4, 1)))
        with ad.Tape() as tape:
            loss = oracles.sum_all(oracles.split_rows(x, 2)[1])
        assert ad.backward(tape, loss)[x.node_id].data.ravel().tolist() == [0, 0, 1, 1]


def test_grad_mean_abs_diff_matches_fd():
    rng = np.random.default_rng(19)
    x0 = rng.standard_normal((1, 6))
    y0 = rng.standard_normal((1, 6))

    def build(x):
        return ad.mean(oracles.absolute(ad.sub(x, ad.constant(y0))))

    g = grad_of(build, x0)
    fd = finite_difference(lambda arr: np.abs(arr - y0).mean(), x0)
    assert rel_err(g, fd) < 1e-5


class TestMeanAbsDiff:
    """The fused L1 op against the mean(absolute(sub(...))) chain it replaces."""

    @staticmethod
    def _value_and_grad(fused, x0, target):
        x = ad.parameter(x0)
        with ad.Tape() as tape:
            if fused:
                term = ad.mean_abs_diff(x, target)
            else:
                term = ad.mean(oracles.absolute(ad.sub(x, ad.constant(target))))
            loss = ad.scale(term, 5.0)  # an upstream gradient other than 1
        return term.data, ad.backward(tape, loss)[x.node_id].data

    def test_bitwise_equal_to_composed_ops_with_ties(self):
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal((12, 35))
        target = rng.standard_normal((12, 35))
        target[::3] = x0[::3]  # exact ties, where sign(0) = 0
        value, grad = self._value_and_grad(True, x0, target)
        ref_value, ref_grad = self._value_and_grad(False, x0, target)
        assert value.tobytes() == ref_value.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.all(grad[::3] == 0.0) and np.all(grad[1::3] != 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.mean_abs_diff(ad.parameter(np.zeros((2, 3))), np.zeros((3, 2)))


def _keeping(x, arr):
    """An op whose backward hands ``arr``, an array it keeps, to ``x``."""
    return ad._emit(ad._result(x.data.copy()), [x], lambda g: (arr,))


class TestOpContract:
    """An op's backward returns one gradient per input, in input order."""

    def test_gradient_for_a_constant_input_is_ignored(self):
        c, x = ad.constant([[3.0, 4.0]]), ad.parameter([[1.0, 2.0]])
        with ad.Tape() as tape:
            out = ad._emit(ad._result(c.data + x.data), [c, x],
                           lambda g: (np.full((1, 2), 7.0), g * 2.0))
            loss = oracles.sum_all(out)
        grads = ad.backward(tape, loss)
        assert c.node_id is None and list(grads) == [x.node_id]
        assert np.array_equal(grads[x.node_id].data, [[2.0, 2.0]])

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_gradients_raises(self, count):
        x, y = ad.parameter([[1.0]]), ad.parameter([[2.0]])
        with ad.Tape() as tape:
            loss = ad._emit(ad._result(x.data + y.data), [x, y], lambda g: (g,) * count)
        with pytest.raises(ValueError, match=r"zip\(\) argument 2 is (shorter|longer)"):
            ad.backward(tape, loss)


class TestStreamedBackward:
    def test_each_leaf_handed_over_once_right_after_its_first_use(self):
        p, q, u = (ad.parameter(np.full((1, 2), v)) for v in (1.5, -0.5, 2.0))
        with ad.Tape() as tape:
            a = ad.scale(q, 2.0)  # record 0, q's first use
            b = ad.mul(p, p)  # record 1, p's first use
            loss = oracles.sum_all(ad.mul(ad.add(a, b), q))
            ad.relu(u)  # after the loss, so u gets no gradient
        events = []
        tape._records = [
            (out_id, ids, lambda g, i=i, fn=fn: events.append(("record", i)) or fn(g))
            for i, (out_id, ids, fn) in enumerate(tape._records)]
        grads = {}

        def consume(node_id, g):
            events.append(("leaf", node_id))
            grads[node_id] = g

        assert ad.backward(tape, loss, consume) is None
        leaves = [e for e in events if e[0] == "leaf"]
        assert sorted(leaves) == sorted(("leaf", i) for i in tape._leaves)
        at = events.index(("leaf", p.node_id))
        assert events[at - 1:at + 2] == [("record", 1), ("leaf", p.node_id), ("record", 0)]
        assert events[-1] == ("leaf", q.node_id)
        assert np.array_equal(grads[p.node_id], [[-1.5, -1.5]])  # 2 p q
        assert np.array_equal(grads[u.node_id], [[0.0, 0.0]])

    def test_adam_steps_a_parameter_before_earlier_records_run(self):
        p, q = ad.parameter([[1.5, -1.0]]), ad.parameter([[0.5, 2.0]])
        p0 = p.data.copy()
        with ad.Tape() as tape:
            a = ad.scale(q, 2.0)  # record 0, recorded before p's first use
            loss = oracles.sum_all(ad.mul(ad.add(a, ad.mul(p, p)), a))
        seen = []
        out_id, ids, fn = tape._records[0]
        tape._records[0] = (out_id, ids, lambda g: seen.append(p.data.copy()) or fn(g))
        ad.Adam([p, q], lr=0.1).step(tape, loss)
        assert len(seen) == 1
        assert not np.array_equal(seen[0], p0)  # stepped before record 0 ran
        assert np.array_equal(seen[0], p.data)  # and not stepped again

    def test_later_contributions_never_land_in_an_op_array(self):
        rng = np.random.default_rng(4)
        held = [rng.standard_normal((2, 3)) for _ in range(4)]
        kept = [h.copy() for h in held]
        x = ad.parameter(np.zeros((2, 3)))
        with ad.Tape() as tape:
            terms = [ad.mean(_keeping(x, h)) for h in held]
            loss = ad.add(ad.add(terms[0], terms[1]), ad.add(terms[2], terms[3]))
        grad = ad.backward(tape, loss)[x.node_id].data
        # records run in reverse, so the sum starts from the last op's array
        assert grad.tobytes() == (((kept[3] + kept[2]) + kept[1]) + kept[0]).tobytes()
        assert all(np.array_equal(h, k) for h, k in zip(held, kept))
        assert not any(np.shares_memory(grad, h) for h in held)


class TestAdam:
    def test_zero_gradient_leaves_param_unchanged(self):
        p = ad.parameter([[1.0, -2.0]])
        st = ad.AdamState.for_param(p)
        oracles.adam_step(st, p, np.zeros((1, 2)), lr=0.1)
        assert np.array_equal(p.data, [[1.0, -2.0]])

    def test_single_step_matches_hand_computation(self):
        # fresh state, g: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
        lr, g = 0.05, 3.0
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_param(p)
        oracles.adam_step(st, p, np.array([[g]]), lr)
        expected = -lr * g / (np.sqrt(g * g) + 1e-8)
        assert abs(p.data[0, 0] - expected) < 1e-15

    def test_quadratic_convergence(self):
        # minimize (w-3)^2 for 100 steps
        w = ad.parameter([[0.0]])
        st = ad.AdamState.for_param(w)
        for _ in range(100):
            grad = 2.0 * (w.data - 3.0)
            oracles.adam_step(st, w, grad, lr=0.1)
        assert abs(w.data[0, 0] - 3.0) < 0.1

    def test_shape_mismatch(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_param(p)
        with pytest.raises(DimensionError):
            oracles.adam_step(st, p, np.zeros((2, 2)), lr=1e-4)

    def test_adam_in_place_matches_adam_step(self):
        # three steps over parameters of different shapes, one of them off
        # the tape (zero gradient) and two updated in chunks, the last chunk
        # short: bitwise the functional update, fed the gradients of the same
        # loss on copies of the parameters
        rng = np.random.default_rng(21)
        chunk = ad._ADAM_CHUNK
        shapes = [(3, 4), (4, 1), (2, 2), (chunk + 1, 1), (1, 3 * chunk - 7)]
        params = [ad.parameter(rng.standard_normal(s)) for s in shapes]
        refs = [ad.parameter(p.data.copy()) for p in params]
        opt = ad.Adam(params, lr=0.01)
        states = [ad.AdamState.for_param(p) for p in refs]
        m_arrays = [st.m for st in opt.states]

        def loss_of(ps):
            loss = ad.add(oracles.sum_all(ad.mul(ps[0], ps[0])),
                          oracles.sum_all(ad.sigmoid(ps[1])))
            for wide in ps[3:]:
                loss = ad.add(loss, oracles.sum_all(ad.sigmoid(ad.mul(wide, wide))))
            return loss

        for _ in range(3):
            with ad.Tape() as tape:
                loss = loss_of(params)
            opt.step(tape, loss)
            with ad.Tape() as tape:
                loss = loss_of(refs)
            grads = ad.backward(tape, loss)
            for ref, st in zip(refs, states):
                g = grads[ref.node_id] if ref._tape is tape else np.zeros(ref.shape)
                oracles.adam_step(st, ref, g, lr=0.01)
            for p, ref, st, mine in zip(params, refs, states, opt.states):
                assert np.array_equal(p.data, ref.data)
                assert np.array_equal(mine.m, st.m) and np.array_equal(mine.v, st.v)
        assert all(st.m is m for st, m in zip(opt.states, m_arrays))  # updated in place

    def test_step_steps_unreached_params_with_zero(self):
        used, idle, off_tape = (ad.parameter([[1.0, -2.0]]) for _ in range(3))
        opt = ad.Adam([used, idle, off_tape], lr=0.1)
        with ad.Tape() as tape:
            loss = oracles.sum_all(ad.mul(used, used))
            oracles.sum_all(idle)  # on the tape, but not feeding the loss
        opt.step(tape, loss)
        assert [st.step for st in opt.states] == [1, 1, 1]
        assert not np.array_equal(used.data, [[1.0, -2.0]])
        for p, st in zip((idle, off_tape), opt.states[1:]):
            assert np.array_equal(p.data, [[1.0, -2.0]])
            assert not st.m.any() and not st.v.any()

    def test_step_counter_increases(self):
        p = ad.parameter([[0.0]])
        st = ad.AdamState.for_param(p)
        for expected in (1, 2, 3):
            oracles.adam_step(st, p, np.array([[1.0]]), lr=1e-4)
            assert st.step == expected
