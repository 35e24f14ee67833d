"""Dense-matrix reverse-mode automatic differentiation with an explicit tape.

All values are 2-D row-major float64 matrices.  A forward pass records
primitive applications on the active :class:`Tape`; :func:`backward` replays
the records in reverse to accumulate gradients for every ``requires_grad``
leaf.  Tapes are single-use: one forward pass, one backward pass, then a
fresh tape for the next step.

There is no broadcasting except scalar*tensor; binary ops demand equal
shapes.  Subgradient conventions: relu'(0) = 0, sign(0) = 0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError, TapeError

_local = threading.local()


def _tape_stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def _active_tape():
    stack = _tape_stack()
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

    def detached(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __matmul__(self, other):
        return matmul(self, other)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"


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
        return node_id

    def emit(self, out: Tensor, backward_fn) -> None:
        """Record an op output; ``backward_fn(g)`` yields (in_id, grad) pairs."""
        node_id = self._next_id
        self._next_id += 1
        out._tape = self
        out._node_id = node_id
        self._records.append((node_id, backward_fn))


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Gradients of a scalar loss w.r.t. every requires_grad leaf on ``tape``.

    Seeds d(loss) = 1 and visits records once in reverse order, dropping
    each record (and the forward values it holds) once it has run.  Returns
    a map from leaf node id to gradient tensor (zero for unreached leaves).
    """
    if tape.consumed:
        raise TapeError("backward already ran on this tape")
    if loss._tape is not tape or loss._node_id is None:
        raise TapeError("loss tensor is not recorded on this tape")
    if loss.shape != (1, 1):
        raise PreconditionError(f"loss must be 1x1, got {loss.shape}")

    tape.consumed = True
    records = tape._records
    # gradients are summed out of place, so an op may hand the same array to
    # several inputs without a copy
    grads: dict[int, np.ndarray] = {loss._node_id: np.ones((1, 1))}
    while records:
        out_id, backward_fn = records.pop()
        g_out = grads.pop(out_id, None)
        if g_out is None:
            continue
        for in_id, g_in in backward_fn(g_out):
            acc = grads.get(in_id)
            grads[in_id] = g_in if acc is None else acc + g_in

    result = {}
    handed_out = set()
    for node_id, leaf in tape._leaves.items():
        g = grads.get(node_id)
        if g is None:
            g = np.zeros_like(leaf.data)
        elif id(g) in handed_out:
            g = g.copy()  # two leaves must not share one gradient array
        handed_out.add(id(g))
        result[node_id] = Tensor(g)
    return result


def _binary_setup(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _emit(out: Tensor, inputs: list[Tensor], backward_fn_builder) -> Tensor:
    """Record ``out`` if a tape is active and any input requires grad."""
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    if not needs:
        return out
    ids = [tape.node_for(t) if t.requires_grad else None for t in inputs]
    out.requires_grad = True
    tape.emit(out, backward_fn_builder(ids))
    return out


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims of {a.shape} and {b.shape} differ")
    out = Tensor(a.data @ b.data)
    a_data, b_data = a.data, b.data

    def build(ids):
        ia, ib = ids

        def bw(g):
            contrib = []
            if ia is not None:
                contrib.append((ia, g @ b_data.T))
            if ib is not None:
                contrib.append((ib, a_data.T @ g))
            return contrib

        return bw

    return _emit(out, [a, b], build)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_setup(a, b, "add")
    out = Tensor(a.data + b.data)

    def build(ids):
        ia, ib = ids
        return lambda g: [(i, g) for i in (ia, ib) if i is not None]

    return _emit(out, [a, b], build)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_setup(a, b, "sub")
    out = Tensor(a.data - b.data)

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
    out = Tensor(a.data * b.data)
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
    out = Tensor(x.data * s)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * s)]

    return _emit(out, [x], build)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
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
    out = Tensor(s)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * s * (1.0 - s))]

    return _emit(out, [x], build)


def absolute(x: Tensor) -> Tensor:
    out = Tensor(np.abs(x.data))
    sign = np.sign(x.data)  # sign(0) = 0

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * sign)]

    return _emit(out, [x], build)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise PreconditionError("sqrt requires nonnegative entries")
    root = np.sqrt(x.data)
    out = Tensor(root)
    # subgradient 0 at zero keeps penalty terms finite
    inv = np.where(root > 0, 0.5 / np.where(root > 0, root, 1.0), 0.0)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g * inv)]

    return _emit(out, [x], build)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise PreconditionError("log requires strictly positive entries")
    out = Tensor(np.log(x.data))
    x_data = x.data

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g / x_data)]

    return _emit(out, [x], build)


def reciprocal(x: Tensor) -> Tensor:
    if np.any(x.data == 0):
        raise PreconditionError("reciprocal requires nonzero entries")
    inv = 1.0 / x.data
    out = Tensor(inv)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, -g * inv * inv)]

    return _emit(out, [x], build)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(x.data, lo, hi))
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
    out = Tensor([[x.data.mean()]])
    shape, size = x.shape, x.data.size

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, np.full(shape, g[0, 0] / size))]

    return _emit(out, [x], build)


def sum_all(x: Tensor) -> Tensor:
    _check_nonempty(x, "sum")
    out = Tensor([[x.data.sum()]])
    shape = x.shape

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, np.full(shape, g[0, 0]))]

    return _emit(out, [x], build)


def transpose(x: Tensor) -> Tensor:
    out = Tensor(x.data.T)

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
    out = Tensor(np.vstack([p.data for p in parts]))
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


def split_rows(x: Tensor, block_rows: int) -> list[Tensor]:
    """Cut a tall (B*n, c) matrix into its B consecutive n-row blocks."""
    rows, cols = x.shape
    if block_rows < 1 or rows % block_rows:
        raise DimensionError(f"split_rows: {rows} rows are not blocks of {block_rows}")
    parts = []
    for start in range(0, rows, block_rows):
        stop = start + block_rows
        part = Tensor(x.data[start:stop])

        def build(ids, start=start, stop=stop):
            (ix,) = ids

            def bw(g):
                full = np.zeros((rows, cols))
                full[start:stop] = g
                return [(ix, full)]

            return bw

        parts.append(_emit(part, [x], build))
    return parts


def block_matmul(adj: Tensor, x: Tensor) -> Tensor:
    """Apply one (n, n) matrix to each n-row block of a tall (B*n, c) matrix.

    Equal to a matmul with the block-diagonal matrix diag(adj, ..., adj)
    without building it; the backward applies adj^T per block.
    """
    n = adj.shape[0]
    rows, cols = x.shape
    if adj.shape != (n, n):
        raise DimensionError(f"block_matmul: adjacency {adj.shape} is not square")
    if rows % n:
        raise DimensionError(f"block_matmul: {rows} rows are not blocks of {n}")
    blocks = rows // n
    a_data = adj.data
    x3 = x.data.reshape(blocks, n, cols)
    out = Tensor(np.matmul(a_data, x3).reshape(rows, cols))

    def build(ids):
        ia, ix = ids

        def bw(g):
            g3 = g.reshape(blocks, n, cols)
            contrib = []
            if ia is not None:
                contrib.append((ia, np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0)))
            if ix is not None:
                contrib.append((ix, np.matmul(a_data.T, g3).reshape(rows, cols)))
            return contrib

        return bw

    return _emit(out, [adj, x], build)


def devectorize_rows(x: Tensor, r: int) -> Tensor:
    """Expand feature rows into flattened symmetric adjacency rows.

    Each row of length r(r-1)/2 becomes a row of length r*r laid out so that
    entry i*r+j holds the weight between nodes i and j (zero diagonal).  No
    clamping: apply relu first when nonnegative weights are needed.
    """
    f = r * (r - 1) // 2
    if x.shape[1] != f:
        raise DimensionError(f"devectorize_rows: expected {f} columns for r={r}, got {x.shape[1]}")
    n = x.shape[0]
    iu, ju = np.triu_indices(r, k=1)
    upper = iu * r + ju
    lower = ju * r + iu
    flat = np.zeros((n, r * r))
    flat[:, upper] = x.data
    flat[:, lower] = x.data
    out = Tensor(flat)

    def build(ids):
        (ix,) = ids
        return lambda g: [(ix, g[:, upper] + g[:, lower])]

    return _emit(out, [x], build)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """Per-parameter Adam accumulators (bias-corrected update)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_param(cls, param: Tensor, lr=1e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        return cls(m=np.zeros_like(param.data), v=np.zeros_like(param.data),
                   lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)


def adam_step(state: AdamState, param: Tensor, grad) -> Tensor:
    """One bias-corrected Adam update; mutates ``param`` in place."""
    g = grad.data if isinstance(grad, Tensor) else np.asarray(grad, dtype=np.float64)
    if g.shape != param.shape or state.m.shape != param.shape:
        raise DimensionError(
            f"adam_step: param {param.shape}, grad {g.shape}, state {state.m.shape} must agree")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    param.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return param


class Adam:
    """Adam over a fixed parameter list, pulling grads from a backward() map."""

    def __init__(self, params: list[Tensor], lr=1e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.states = [AdamState.for_param(p, lr, beta1, beta2, epsilon) for p in self.params]

    def step(self, grad_map: dict[int, Tensor], tape: Tape) -> None:
        # node ids are tape-local, so only trust them for params on `tape`
        for param, state in zip(self.params, self.states):
            if param._tape is tape and param.node_id in grad_map:
                grad = grad_map[param.node_id]
            else:
                grad = np.zeros_like(param.data)
            adam_step(state, param, grad)
