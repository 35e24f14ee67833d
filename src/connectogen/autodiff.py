"""Dense-matrix reverse-mode automatic differentiation with an explicit tape.

All values are 2-D row-major float64 matrices.  A forward pass records
primitive applications on the active :class:`Tape`; :func:`backward` replays
the records in reverse to accumulate gradients for every ``requires_grad``
leaf.  Tapes are single-use: one forward pass, one backward pass, then a
fresh tape for the next step.

The backward hands each leaf's gradient over as soon as the first record
that reads the leaf has run, and :meth:`Adam.step` steps the parameter
right there, so a step never holds every parameter's gradient at once.
That relies on three rules:

- a parameter is stepped only after every record that reads its array has
  run, which holds because every op that reads a parameter takes it as an
  input;
- no constant that aliases a parameter sits on the tape of the optimizer
  that steps it (``models.frozen(disc)`` is safe in the generator step
  because the generator optimizer does not step the discriminator);
- a consumer never mutates the gradient it receives, so ops may hand one
  array to several inputs; the backward itself adds in place only into a
  sum it allocated.

There is no broadcasting except scalar*tensor; binary ops demand equal
shapes.  Subgradient conventions: relu'(0) = 0, sign(0) = 0.

A batch of B equal blocks travels as one tall (B*n, c) matrix.  The block
primitives apply a constant adjacency, one (n, n) matrix or a (B, n, n)
stack, as a plain numpy array (:func:`stack_matmul`), or one weight tensor
per block (:func:`per_block_matmul`), so a step over B blocks records as
many ops as a step over one.

Wide weights make a step memory-bound, so three places keep their traffic
low: :func:`matmul` forms its right operand's gradient as a C-contiguous
(g^T a)^T, :func:`gram` forms w^T w and its gradient without a transposed
copy of w, and :class:`Adam` updates a parameter chunk by chunk, each chunk
small enough to stay in a core's L2 cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, TapeError

class _ThreadTapes(threading.local):
    def __init__(self):
        self.stack = []


_local = _ThreadTapes()


def _tape_stack() -> list:
    return _local.stack


def _active_tape():
    stack = _local.stack
    return stack[-1] if stack else None


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    """A 2-D float64 matrix, optionally tracked on a tape."""

    __slots__ = ("data", "requires_grad", "_tape", "_node_id")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_matrix(values)
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._node_id = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def node_id(self):
        return self._node_id

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"


def _result(data: np.ndarray) -> Tensor:
    """Wrap an op's output, which is already a 2-D float64 array, skipping
    the validation and copy of :func:`_as_matrix`."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out._tape = None
    out._node_id = None
    return out


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient.  Every input node id precedes its output node
    id, so reverse iteration visits each node exactly once.
    """

    def __init__(self):
        self._records = []  # (out_id, backward_fn)
        self._leaves = {}  # node_id -> Tensor
        # (index of the first record that reads the leaf, leaf node_id), in
        # record order: backward hands a leaf's gradient over right after
        # that record, the last one to contribute to it, has run
        self._first_uses = []
        self._next_id = 0
        self.consumed = False
        self.closed = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.closed = True
        return False

    @property
    def live(self) -> bool:
        return not (self.closed or self.consumed)

    def node_for(self, t: Tensor) -> int:
        """Return (registering if needed) the node id of ``t`` on this tape."""
        if t._tape is self and t._node_id is not None:
            return t._node_id
        if t._tape is not None and t._tape is not self and t._tape.live:
            raise TapeError("tensor already participates in another live tape")
        node_id = self._next_id
        self._next_id += 1
        t._tape = self
        t._node_id = node_id
        self._leaves[node_id] = t
        # only _emit registers leaves, and it records their op next
        self._first_uses.append((len(self._records), node_id))
        return node_id

    def emit(self, out: Tensor, backward_fn) -> None:
        """Record an op output; ``backward_fn(g)`` yields (in_id, grad) pairs."""
        node_id = self._next_id
        self._next_id += 1
        out._tape = self
        out._node_id = node_id
        self._records.append((node_id, backward_fn))


def backward(tape: Tape, loss: Tensor, consume=None) -> dict[int, Tensor] | None:
    """Gradients of a scalar loss w.r.t. every requires_grad leaf on ``tape``.

    Seeds d(loss) = 1 and visits records once in reverse order, dropping
    each record (and the forward values it holds) once it has run.  A leaf's
    gradient is final once the first record that reads the leaf has run, so
    it is handed over right then, as ``consume(node_id, grad)`` with a numpy
    array (zeros for a leaf the loss does not reach), once per leaf.  The
    consumer may change the leaf at once, as :meth:`Adam.step` does,
    since every record still to run precedes the leaf's first use; it may
    not if a constant on the tape aliases the leaf's array.  It must not
    mutate ``grad``, which may be an array an op also handed elsewhere.
    Without ``consume``, returns a map from leaf node id to gradient tensor.
    """
    if tape.consumed:
        raise TapeError("backward already ran on this tape")
    if loss._tape is not tape or loss._node_id is None:
        raise TapeError("loss tensor is not recorded on this tape")
    if loss.shape != (1, 1):
        raise PreconditionError(f"loss must be 1x1, got {loss.shape}")
    if consume is not None:
        _stream_gradients(tape, loss, consume)
        return None
    collected = {}
    handed_out = set()

    def collect(node_id, g):
        if id(g) in handed_out:
            g = g.copy()  # two leaves must not share one gradient array
        handed_out.add(id(g))
        collected[node_id] = Tensor(g)

    _stream_gradients(tape, loss, collect)
    return {node_id: collected[node_id] for node_id in tape._leaves}


def _stream_gradients(tape: Tape, loss: Tensor, consume) -> None:
    """The loop of :func:`backward`, handing each leaf's gradient to ``consume``."""
    tape.consumed = True
    records, first_uses, leaves = tape._records, tape._first_uses, tape._leaves
    grads: dict[int, np.ndarray] = {loss._node_id: np.ones((1, 1))}
    # an op may hand one array to several inputs, or keep it, so a second
    # contribution is summed into a new array, which alone later ones may
    # add to in place
    owned = set()
    while records:
        out_id, backward_fn = records.pop()
        g_out = grads.pop(out_id, None)
        if g_out is not None:
            owned.discard(out_id)
            for in_id, g_in in backward_fn(g_out):
                acc = grads.get(in_id)
                if acc is None:
                    grads[in_id] = g_in
                elif in_id in owned:
                    acc += g_in
                else:
                    grads[in_id] = acc + g_in
                    owned.add(in_id)
        while first_uses and first_uses[-1][0] == len(records):
            _, leaf_id = first_uses.pop()
            owned.discard(leaf_id)
            consume(leaf_id, grads.pop(leaf_id) if leaf_id in grads
                    else np.zeros_like(leaves[leaf_id].data))


def _binary_setup(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _emit(out: Tensor, inputs: list[Tensor], backward_fn_builder) -> Tensor:
    """Record ``out`` if a tape is active and any input requires grad."""
    stack = _local.stack
    if not stack:
        return out
    tape = stack[-1]
    ids = []
    needs = False
    for t in inputs:
        if t.requires_grad:
            needs = True
            ids.append(tape.node_for(t))
        else:
            ids.append(None)
    if not needs:
        return out
    out.requires_grad = True
    tape.emit(out, backward_fn_builder(ids))
    return out


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    out = _result(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def build(ids):
        ia, ib = ids

        def bw(g):
            contrib = []
            if ia is not None:
                contrib.append((ia, g @ b_data.T))
            if ib is not None:
                # OpenBLAS runs g^T a up to twice as fast as a^T g when a is
                # the f-wide input of a projection.  The C-contiguous copy
                # spares the strided add where the Gram's gradient joins W1's
                # and pays for itself at the AAL size
                contrib.append((ib, np.ascontiguousarray((g.T @ a_data).T)))
            return contrib

        return bw

    return _emit(out, [a, b], build)


def gram(w: Tensor) -> Tensor:
    """w^T w, one op whose backward is the single product w (g + g^T)."""
    w_data = w.data
    out = _result(w_data.T @ w_data)

    def build(ids):
        (iw,) = ids
        return lambda g: [(iw, w_data @ (g + g.T))]

    return _emit(out, [w], build)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_setup(a, b, "add")
    out = _result(a.data + b.data)

    def build(ids):
        ia, ib = ids
        return lambda g: [(i, g) for i in (ia, ib) if i is not None]

    return _emit(out, [a, b], build)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_setup(a, b, "sub")
    out = _result(a.data - b.data)

    def build(ids):
        ia, ib = ids

        def bw(g):
            contrib = []
            if ia is not None:
                contrib.append((ia, g))
            if ib is not None:
                contrib.append((ib, -g))
            return contrib

        return bw

    return _emit(out, [a, b], build)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_setup(a, b, "mul")
    out = _result(a.data * b.data)
    a_data, b_data = a.data, b.data

    def build(ids):
        ia, ib = ids

        def bw(g):
            contrib = []
            if ia is not None:
                contrib.append((ia, g * b_data))
            if ib is not None:
                contrib.append((ib, g * a_data))
            return contrib

        return bw

    return _emit(out, [a, b], build)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = _result(x.data * s)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * s)]

    return _emit(out, [x], build)


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0))
    mask = x.data > 0  # relu'(0) = 0

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * mask)]

    return _emit(out, [x], build)


def sigmoid(x: Tensor) -> Tensor:
    v = x.data
    pos = v >= 0
    s = np.empty_like(v)
    s[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    s[~pos] = ev / (1.0 + ev)
    out = _result(s)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * s * (1.0 - s))]

    return _emit(out, [x], build)


def mean_abs_diff(x: Tensor, target) -> Tensor:
    """mean(|x - target|) for a constant array ``target`` of x's shape.

    One op, bitwise equal in value and gradient to the chain
    ``mean(add(relu(d), relu(scale(d, -1))))`` of ``d = sub(x, constant(target))``.
    It keeps ``x`` and ``target`` by reference, so neither may change
    before the backward, which forms sign(x - target) (sign(0) = 0).
    """
    target = np.asarray(target, dtype=np.float64)
    if x.shape != target.shape:
        raise DimensionError(f"mean_abs_diff: shapes {x.shape} and {target.shape} differ")
    _check_nonempty(x, "mean_abs_diff")
    x_data, size = x.data, x.data.size
    diff = np.subtract(x_data, target)
    np.abs(diff, out=diff)
    out = _result(diff.mean(keepdims=True))

    def build(ids):
        (ix,) = ids

        def bw(g):
            grad = np.subtract(x_data, target)
            np.sign(grad, out=grad)
            grad *= g[0, 0] / size
            return [(ix, grad)]

        return bw

    return _emit(out, [x], build)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise PreconditionError("sqrt requires nonnegative entries")
    root = np.sqrt(x.data)
    out = _result(root)
    # subgradient 0 at zero keeps penalty terms finite
    inv = np.where(root > 0, 0.5 / np.where(root > 0, root, 1.0), 0.0)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * inv)]

    return _emit(out, [x], build)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise PreconditionError("log requires strictly positive entries")
    out = _result(np.log(x.data))
    x_data = x.data

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g / x_data)]

    return _emit(out, [x], build)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    out = _result(np.clip(x.data, lo, hi))
    mask = ((x.data >= lo) & (x.data <= hi)).astype(np.float64)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * mask)]

    return _emit(out, [x], build)


def _check_nonempty(x: Tensor, op: str):
    if x.data.size == 0:
        raise PreconditionError(f"{op}: empty tensor")


def mean(x: Tensor) -> Tensor:
    _check_nonempty(x, "mean")
    out = _result(x.data.mean(keepdims=True))
    shape, size = x.shape, x.data.size

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, np.full(shape, g[0, 0] / size))]

    return _emit(out, [x], build)


def transpose(x: Tensor) -> Tensor:
    out = _result(np.ascontiguousarray(x.data.T))

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g.T)]

    return _emit(out, [x], build)


def vstack(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise PreconditionError("vstack: nothing to stack")
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise DimensionError(f"vstack: column counts differ ({p.shape[1]} vs {cols})")
    out = _result(np.vstack([p.data for p in parts]))
    row_counts = [p.shape[0] for p in parts]

    def build(ids):
        def bw(g):
            contrib = []
            offset = 0
            for i, rows in zip(ids, row_counts):
                if i is not None:
                    contrib.append((i, g[offset:offset + rows]))
                offset += rows
            return contrib

        return bw

    return _emit(out, parts, build)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 of x; the backward scatters into zeros elsewhere."""
    rows, cols = x.shape
    if not 0 <= start < stop <= rows:
        raise DimensionError(f"slice_rows: rows {start}:{stop} of {rows}")
    out = _result(x.data[start:stop])

    def build(ids):
        (ix,) = ids

        def bw(g):
            full = np.zeros((rows, cols))
            full[start:stop] = g
            return [(ix, full)]

        return bw

    return _emit(out, [x], build)


def _check_out(out, shape, op: str):
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise DimensionError(f"{op}: out must be a C-contiguous float64 {shape} array")
    return out


def stack_matmul(adjs: np.ndarray, x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Apply a constant adjacency to the n-row blocks of ``x``.

    ``adjs`` is one (n, n) matrix, applied to every block of a tall
    (B*n, c) ``x``, or a (B, n, n) stack whose matrix b is applied to block
    b of a (B*n, c) ``x`` or to all of one (n, c) ``x``.  The result is
    (B*n, c), written into ``out`` when it is given.  The adjacency stays a
    numpy array and gets no gradient.
    """
    rows, cols = x.shape
    if adjs.ndim not in (2, 3) or adjs.shape[-1] != adjs.shape[-2]:
        raise DimensionError(f"stack_matmul: {adjs.shape} is not a square matrix or stack")
    n = adjs.shape[-1]
    blocks = adjs.shape[0] if adjs.ndim == 3 else rows // n
    if rows not in (n, blocks * n):
        raise DimensionError(f"stack_matmul: {rows} rows are not blocks for {adjs.shape}")
    shared = rows != blocks * n
    x_in = x.data if shared else x.data.reshape(blocks, n, cols)
    data = _check_out(out, (blocks * n, cols), "stack_matmul")
    np.matmul(adjs, x_in, out=data.reshape(blocks, n, cols))
    result = _result(data)

    def build(ids):
        (ix,) = ids

        def bw(g):
            gx = np.matmul(np.swapaxes(adjs, -1, -2), g.reshape(blocks, n, cols))
            return [(ix, gx.sum(axis=0) if shared else gx.reshape(rows, cols))]

        return bw

    return _emit(result, [x], build)


def per_block_matmul(x: Tensor, weights: list[Tensor],
                     out: np.ndarray | None = None) -> Tensor:
    """Multiply block b of a tall (B*n, c_in) matrix by weights[b], (c_in, c_out).

    B is ``len(weights)``.  The result, (B*n, c_out), is written into
    ``out`` when it is given.  The weights stay separate arrays; the forward
    and the backward loop over the blocks.
    """
    blocks = len(weights)
    rows, c_in = x.shape
    if blocks == 0 or rows % blocks:
        raise DimensionError(f"per_block_matmul: {rows} rows are not {blocks} blocks")
    c_out = weights[0].shape[1]
    for w in weights:
        if w.shape != (c_in, c_out):
            raise DimensionError(
                f"per_block_matmul: weight {w.shape} is not ({c_in}, {c_out})")
    n = rows // blocks
    spans = [slice(b * n, (b + 1) * n) for b in range(blocks)]
    x_data = x.data
    w_data = [w.data for w in weights]
    data = _check_out(out, (rows, c_out), "per_block_matmul")
    for span, w in zip(spans, w_data):
        np.matmul(x_data[span], w, out=data[span])
    result = _result(data)

    def build(ids):
        ix, *iws = ids

        def bw(g):
            contrib = []
            if ix is not None:
                gx = np.empty((rows, c_in))
                for span, w in zip(spans, w_data):
                    np.matmul(g[span], w.T, out=gx[span])
                contrib.append((ix, gx))
            for iw, span in zip(iws, spans):
                if iw is not None:
                    contrib.append((iw, x_data[span].T @ g[span]))
            return contrib

        return bw

    return _emit(result, [x, *weights], build)


# ---------------------------------------------------------------------------
# Adam

# The published Adam configuration: decay rates b1, b2 and the denominator's eps.
_ADAM_BETA1 = 0.5
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulators (bias-corrected update)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_param(cls, param: Tensor):
        # np.zeros leaves the zeroing to the kernel at first touch, where
        # np.zeros_like writes every byte before a step reads any
        return cls(m=np.zeros(param.shape), v=np.zeros(param.shape))


# Adam updates a parameter in chunks of this many elements, 256 KiB per
# float64 array: the six arrays a chunk's passes touch (parameter, gradient,
# m, v and two scratch buffers) fit a core's 2 MiB L2 together, where a whole
# (f, 32) parameter at the AAL atlas size (1.7 MB per array) spills it.  The
# best of 4 Ki to 256 Ki elements at r = 116.
_ADAM_CHUNK = 32768


class Adam:
    """Adam over a fixed parameter list.

    Step t makes the bias-corrected update m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g^2, param -= lr (m / (1 - b1^t)) /
    (sqrt(v / (1 - b2^t)) + eps), with the constants ``_ADAM_BETA1``,
    ``_ADAM_BETA2`` and ``_ADAM_EPSILON``, in place, on every parameter and
    its m and v accumulators, in chunks of at most ``_ADAM_CHUNK`` elements;
    the arithmetic is elementwise, so chunking changes no bit.  A step holds two
    scratch arrays of at most ``_ADAM_CHUNK`` elements for the temporaries;
    they do not outlive the step, so no optimizer memory stays resident
    between steps.

    :meth:`step` is the one way to step: it runs :func:`backward` and steps
    each parameter inside it, as soon as its gradient is final, reading the
    gradient and dropping it there.  That is exact only because every record
    that reads a parameter's array takes the parameter itself as an input, so
    all of them have run by then: no constant aliasing a parameter may sit on
    the tape of the optimizer that steps it.  (The generator step's
    ``frozen(disc)`` constants alias the discriminator's weights, which its
    optimizer does not step.)  A parameter that gets no gradient is stepped
    with zero.
    """

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.states = [AdamState.for_param(p) for p in self.params]
        self._scratch_size = min(max((p.data.size for p in self.params), default=0),
                                 _ADAM_CHUNK)

    def step(self, tape: Tape, loss: Tensor) -> None:
        """Backpropagate ``loss`` through ``tape``, stepping each parameter
        as :func:`backward` hands over its gradient, then every parameter
        that got none (unreached by the loss, or not on ``tape``) with zero."""
        s_buf, u_buf = np.empty(self._scratch_size), np.empty(self._scratch_size)
        # node ids are tape-local, so only trust them for params on `tape`
        on_tape = {p.node_id: i for i, p in enumerate(self.params) if p._tape is tape}
        stepped = [False] * len(self.params)

        def update(node_id, grad):
            i = on_tape.get(node_id)
            if i is not None:
                stepped[i] = True
                self._step_param(i, grad, s_buf, u_buf)

        backward(tape, loss, update)
        for i, done in enumerate(stepped):
            if not done:
                self._step_param(i, np.zeros_like(self.params[i].data), s_buf, u_buf)

    def _step_param(self, i: int, grad: np.ndarray, s_buf, u_buf) -> None:
        param, state = self.params[i], self.states[i]
        if grad.shape != param.shape:
            raise DimensionError(f"Adam: param {param.shape}, grad {grad.shape} must agree")
        state.step += 1
        # Tensor data and accumulators are C-contiguous, so these are views
        # and the update lands in place; a strided gradient (a transpose's)
        # is copied
        p, g, m, v = (a.reshape(-1) for a in (param.data, grad, state.m, state.v))
        for lo in range(0, g.size, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, g.size)
            _adam_update(self.lr, state.step, p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi],
                         s_buf[:hi - lo], u_buf[:hi - lo])


def _adam_update(lr: float, step: int, p, g, m, v, s, u) -> None:
    """Apply Adam step ``step`` at rate ``lr`` to ``p``, ``m`` and ``v`` in
    place; ``s`` and ``u`` are scratch of the same shape."""
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    m *= b1
    np.multiply(1.0 - b1, g, out=s)
    m += s
    v *= b2
    np.multiply(1.0 - b2, g, out=s)
    s *= g
    v += s
    # s = sqrt(v_hat) + eps, then the step u = lr * m_hat / s
    np.divide(v, 1.0 - b2 ** step, out=s)
    np.sqrt(s, out=s)
    s += _ADAM_EPSILON
    np.divide(m, 1.0 - b1 ** step, out=u)
    u *= lr
    u /= s
    p -= u
