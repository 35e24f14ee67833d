"""Independent oracles the test suite checks library results against.

The centrality oracles use none of the library's kernels: distances come from
Floyd-Warshall, betweenness from exhaustive simple-path enumeration or,
on graphs too large to enumerate, from dense linear solves,
eigenvector/pagerank scores from dense linear algebra, and neighbourhood
metrics from direct formula evaluation in vectorized form.  The per-view
losses below loop over the k target views one block at a time, as the
formulas read; they are built from autodiff primitives, so they give
reference gradients as well as values for the stacked losses.  Matrix CSVs
are read line by line with one ``float`` per cell and written with one
f-string per cell.  The evaluation oracles loop as the formulas read: one
``np.histogram`` per KL sample and one graph MAE per (view, subject); the
report oracle takes its centralities from the library's per-metric
functions, one pass per metric, which the centrality oracles check.  The
eigenvector-centrality op's reference shares the library's EC forward and
takes the op's backward over the whole stack at once, unchunked.
"""

import numpy as np

from connectogen import autodiff as ad
from connectogen import topology
from connectogen.errors import DimensionError, IngestionError

PROB_FLOOR = 1e-7


def finite_difference(fn, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return grad


def length_matrix(weights: np.ndarray, interp: str = "distance") -> np.ndarray:
    lengths = np.full(weights.shape, np.inf)
    pos = weights > 0
    lengths[pos] = weights[pos] if interp == "distance" else 1.0 / weights[pos]
    np.fill_diagonal(lengths, 0.0)
    return lengths


def floyd_warshall(lengths: np.ndarray) -> np.ndarray:
    d = lengths.copy()
    r = d.shape[0]
    for mid in range(r):
        d = np.minimum(d, d[:, [mid]] + d[[mid], :])
    return d


def _all_shortest_paths(lengths: np.ndarray, s: int, t: int, tol: float = 1e-9):
    """Every simple shortest path s->t by exhaustive DFS (small graphs only)."""
    r = lengths.shape[0]
    best = [np.inf]
    paths = []

    def dfs(node, visited, length, path):
        if length > best[0] + tol:
            return
        if node == t:
            if length < best[0] - tol:
                best[0] = length
                paths.clear()
            if abs(length - best[0]) <= tol:
                paths.append(list(path))
            return
        for nxt in range(r):
            if nxt not in visited and np.isfinite(lengths[node, nxt]) and nxt != node:
                visited.add(nxt)
                path.append(nxt)
                dfs(nxt, visited, length + lengths[node, nxt], path)
                path.pop()
                visited.remove(nxt)

    dfs(s, {s}, 0.0, [s])
    return best[0], paths


def betweenness_by_enumeration(weights: np.ndarray, interp: str = "distance") -> np.ndarray:
    """Eq-style betweenness: normalized through-fractions over unordered pairs."""
    lengths = length_matrix(weights, interp)
    r = weights.shape[0]
    score = np.zeros(r)
    for s in range(r):
        for t in range(s + 1, r):
            dist, paths = _all_shortest_paths(lengths, s, t)
            if not np.isfinite(dist) or not paths:
                continue
            for v in range(r):
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p)
                score[v] += through / len(paths)
    return score * 2.0 / ((r - 1) * (r - 2))


def betweenness_by_solve(lengths: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Unnormalized (ordered-pair) betweenness of one graph from its (r, r)
    length matrix, by Brandes' accumulation as two dense linear solves.

    For every source at once, with A the shortest-path DAG's adjacency
    (tight edges within ``tol``, oriented by (distance, index)), the path
    counts solve (I - A^T) sigma = e_s and the dependencies solve
    (I - B) delta = B 1, where B[v, w] = A[v, w] sigma[v] / sigma[w].
    O(r^4) per graph.
    """
    d = floyd_warshall(lengths)  # d[s, v]
    r = d.shape[0]
    eye = np.eye(r)
    nodes = np.arange(r)
    d_from, d_to = d[:, :, None], d[:, None, :]
    with np.errstate(invalid="ignore"):  # inf - inf between unreachable nodes
        tight = np.abs(d_from + lengths - d_to) <= tol
    settled_first = (d_from < d_to) | ((d_from == d_to) & (nodes[:, None] < nodes))
    dag = (tight & settled_first).astype(np.float64)  # dag[s, v, w]: edge v->w
    sigma = np.linalg.solve(eye - dag.transpose(0, 2, 1), eye[:, :, None])[..., 0]
    reached = np.where(sigma > 0, sigma, 1.0)
    ratio = dag * (sigma[:, :, None] / reached[:, None, :])
    delta = np.linalg.solve(eye - ratio, ratio.sum(axis=2)[:, :, None])[..., 0]
    delta[nodes, nodes] = 0.0  # a source is not between itself and others
    return delta.sum(axis=0)


def closeness_by_enumeration(weights: np.ndarray, interp: str = "distance") -> np.ndarray:
    d = floyd_warshall(length_matrix(weights, interp))
    r = weights.shape[0]
    sums = d.sum(axis=1)
    out = np.zeros(r)
    finite = np.isfinite(sums) & (sums > 0)
    out[finite] = (r - 1) / sums[finite]
    return out


def eigenvector_dense(weights: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(weights)
    vec = vecs[:, np.argmax(vals)]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return vec / np.linalg.norm(vec)


def devectorize_rows(x: np.ndarray, r: int) -> np.ndarray:
    """Expand (n, r(r-1)/2) feature rows into (n, r*r) flattened symmetric
    adjacency rows: entry i*r+j holds the weight between nodes i and j, and
    the diagonal is zero.  No clamping."""
    iu, ju = np.triu_indices(r, k=1)
    source = np.zeros(r * r, dtype=np.intp)
    source[iu * r + ju] = source[ju * r + iu] = np.arange(len(iu))
    flat = np.take(x, source, axis=1)
    flat[:, ::r + 1] = 0.0
    return flat


def eigenvector_rows_and_gradient(x: np.ndarray, r: int, g: np.ndarray):
    """Values and feature gradient of ``topology.batched_eigenvector_rows``
    on raw rows ``x`` for the upstream gradient ``g``, by the op's arithmetic
    over the whole stack at once: relu, :func:`devectorize_rows`, the shared
    EC forward, one solve of (v v^T - W + lambda I) u = (I - v v^T) g over
    every graph, then u v^T gathered at each feature's upper and lower entry
    and masked where the feature is not positive."""
    n = len(x)
    w = devectorize_rows(np.maximum(x, 0.0), r).reshape(n, r, r)
    vec, lam = topology._principal_eigenpairs(w)
    diag = np.arange(r)
    system = vec[:, :, None] * vec[:, None, :]
    system -= w
    system[:, diag, diag] += np.where(lam > 0, lam, 1.0)[:, None]
    rhs = g - vec * (vec * g).sum(axis=1, keepdims=True)
    u = np.linalg.solve(system, rhs[:, :, None])
    uv = (u * vec[:, None, :]).reshape(n, r * r)
    iu, ju = np.triu_indices(r, k=1)
    grad = np.take(uv, iu * r + ju, axis=1) + np.take(uv, ju * r + iu, axis=1)
    return vec, grad * (x > 0)


def pagerank_by_solve(weights: np.ndarray, damping: float = 0.85) -> np.ndarray:
    r = weights.shape[0]
    row_sums = weights.sum(axis=1)
    transition = np.full((r, r), 1.0 / r)
    linked = row_sums > 0
    transition[linked] = weights[linked] / row_sums[linked, None]
    p = np.linalg.solve(np.eye(r) - damping * transition.T,
                        np.full(r, (1.0 - damping) / r))
    return p / p.sum()


def effective_size_direct(weights: np.ndarray) -> np.ndarray:
    """Burt formula evaluated with vectorized numpy per ego."""
    r = weights.shape[0]
    out = np.zeros(r)
    for i in range(r):
        neigh = np.flatnonzero(weights[i] > 0)
        if neigh.size == 0:
            continue
        p = weights[i, neigh] / weights[i, neigh].sum()
        es = 0.0
        for j in neigh:
            m = weights[j] / weights[j].max()
            others = neigh[neigh != j]
            es += 1.0 - float(np.sum(p[np.searchsorted(neigh, others)] * m[others]))
        out[i] = es
    return out


def clustering_by_triangles(weights: np.ndarray) -> np.ndarray:
    """Onnela coefficient from explicit unordered triangle enumeration."""
    r = weights.shape[0]
    w_max = weights.max()
    out = np.zeros(r)
    if w_max <= 0:
        return out
    wh = np.cbrt(weights / w_max)
    for i in range(r):
        neigh = np.flatnonzero(weights[i] > 0)
        k = neigh.size
        if k < 2:
            continue
        total = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                j, q = neigh[a], neigh[b]
                total += wh[i, j] * wh[i, q] * wh[j, q]
        out[i] = 2.0 * total / (k * (k - 1))
    return out


def adjusted_rand_index(labels_a, labels_b) -> float:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = a.size
    classes_a, ia = np.unique(a, return_inverse=True)
    classes_b, ib = np.unique(b, return_inverse=True)
    table = np.zeros((classes_a.size, classes_b.size), dtype=np.int64)
    for x, y in zip(ia, ib):
        table[x, y] += 1

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_rows = comb2(table.sum(axis=1)).sum()
    sum_cols = comb2(table.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / comb2(n)
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def kl_by_hand(real, pred, bins: int, epsilon: float) -> float:
    """KL(real || pred) of epsilon-smoothed ``np.histogram`` counts on the
    samples' joint range, one histogram call per sample."""
    real = np.asarray(real, dtype=float)
    pred = np.asarray(pred, dtype=float)
    lo = min(real.min(), pred.min())
    hi = max(real.max(), pred.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    p = np.histogram(real, bins=edges)[0] + epsilon
    q = np.histogram(pred, bins=edges)[0] + epsilon
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def _graph_mae(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    iu, ju = np.triu_indices(a.shape[0], k=1)
    return float(np.abs(a[iu, ju] - b[iu, ju]).mean())


def mae_graphs_by_subject(real, pred) -> float:
    """Mean over subjects of mean absolute upper-triangular difference,
    one subject at a time."""
    total = 0.0
    for a, b in zip(real, pred):
        total += _graph_mae(a, b)
    return total / len(real)


def subject_graph_maes_by_loop(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(k, m) per-subject graph MAEs of (m, r, r, k) tensors, one cell at a time."""
    m, _, _, k = pred.shape
    out = np.empty((k, m))
    for i in range(k):
        for s in range(m):
            out[i, s] = _graph_mae(truth[s, :, :, i], pred[s, :, :, i])
    return out


def evaluate_per_metric(pred, truth, interp="distance", hist=None, baseline=None):
    """The evaluation report, filled cell by cell: one centrality pass per
    metric over truth, prediction and baseline stacked together, one KL per
    (view, metric) and one graph MAE per (view, subject)."""
    from connectogen import evaluation

    hist = hist or evaluation.HistogramSpec()
    m, _, _, k = pred.shape
    mae = np.empty((k, len(evaluation.MAE_COLUMNS)))
    kl = np.empty((k, len(evaluation.METRIC_ORDER)))
    for i in range(k):
        mae[i, 0] = mae_graphs_by_subject(truth[..., i], pred[..., i])
    p_values = None
    if baseline is not None:
        p_values = np.empty_like(mae)
        ours = subject_graph_maes_by_loop(pred, truth)
        base = subject_graph_maes_by_loop(baseline, truth)
        for i in range(k):
            p_values[i, 0] = evaluation.paired_ttest(ours[i], base[i])[1]
    stack = np.concatenate([truth, pred] + ([baseline] if baseline is not None else []))
    for col, metric in enumerate(evaluation.METRIC_ORDER, start=1):
        table = evaluation.centrality_table(stack, metric, interp)
        x_real, x_pred = table[:, :m], table[:, m:2 * m]
        mae[:, col] = np.abs(x_real - x_pred).reshape(k, -1).mean(axis=1)
        for i in range(k):
            kl[i, col - 1] = kl_by_hand(x_real[i].ravel(), x_pred[i].ravel(),
                                        hist.bins, hist.epsilon)
        if baseline is not None:
            ours = np.abs(x_real - x_pred).mean(axis=2)
            base = np.abs(x_real - table[:, 2 * m:]).mean(axis=2)
            for i in range(k):
                p_values[i, col] = evaluation.paired_ttest(ours[i], base[i])[1]
    return evaluation.EvaluationReport(
        view_labels=[str(i + 1) for i in range(k)], mae=mae, mae_avg=mae.mean(axis=0),
        kl=kl, kl_avg=kl.mean(axis=0), p_values=p_values)


def random_connectivity(rng: np.random.Generator, r: int, density: float = 0.7,
                        ensure_edge: bool = True) -> np.ndarray:
    """Random symmetric nonnegative zero-diagonal test graph."""
    w = rng.uniform(0.1, 1.0, size=(r, r))
    mask = rng.uniform(size=(r, r)) < density
    w = np.triu(w * mask, k=1)
    w = w + w.T
    if ensure_edge and not np.any(w > 0):
        w[0, 1] = w[1, 0] = 1.0
    return w


# ---------------------------------------------------------------------------
# autodiff helpers built from the library's primitives

def sum_all(x):
    """The sum of every entry of ``x`` as a 1x1 tensor, ones^T @ x @ ones;
    its gradient is the upstream gradient in every entry, exactly."""
    rows, cols = x.shape
    return ad.matmul(ad.matmul(ad.constant(np.ones((1, rows))), x),
                     ad.constant(np.ones((cols, 1))))


def split_rows(x, block_rows: int):
    """Cut a tall (B*n, c) matrix into its B consecutive n-row blocks."""
    rows = x.shape[0]
    if block_rows < 1 or rows % block_rows:
        raise DimensionError(f"split_rows: {rows} rows are not blocks of {block_rows}")
    return [ad.slice_rows(x, start, start + block_rows) for start in range(0, rows, block_rows)]


def adam_step(state, param, grad):
    """One bias-corrected Adam update of ``param`` in place, in the textbook
    arithmetic; ``state`` is an ``ad.AdamState``."""
    g = grad.data if isinstance(grad, ad.Tensor) else np.asarray(grad, dtype=np.float64)
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


# ---------------------------------------------------------------------------
# per-view losses: lists of (n, 1) blocks, one per target view

def _sum(terms):
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return loss


def adversarial_loss_per_view(critic_real_source, critic_fakes):
    """-E[D(real source)] + (1/k) * sum_i E[D(fake_i)]."""
    k = len(critic_fakes)
    return _sum([ad.scale(ad.mean(critic_real_source), -1.0)]
                + [ad.scale(ad.mean(fake), 1.0 / k) for fake in critic_fakes])


def domain_classification_loss_per_view(probs_fake, probs_real):
    """sum_i mean(fake_i^2) + mean((real_i - 1)^2)."""
    terms = []
    for fake, real in zip(probs_fake, probs_real):
        miss = ad.sub(real, ad.constant(np.ones(real.shape)))
        terms.append(ad.add(ad.mean(ad.mul(fake, fake)), ad.mean(ad.mul(miss, miss))))
    return _sum(terms)


def info_max_loss_per_view(probs_fake):
    """sum_i -mean(log(clip(p_i)))."""
    return _sum([ad.scale(ad.mean(ad.log(ad.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))), -1.0)
                 for p in probs_fake])


def generator_fooling_term_per_view(critic_fakes):
    """-(1/k) * sum_i E[D(fake_i)]."""
    k = len(critic_fakes)
    return _sum([ad.scale(ad.mean(fake), -1.0 / k) for fake in critic_fakes])


def parse_matrix_csv_by_line(path) -> np.ndarray:
    """Matrix CSV reader converting one cell at a time, faults checked in file order."""
    try:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(cell) for cell in line.split(",")])
                except ValueError as exc:
                    raise IngestionError(f"{path}:{line_no}: unparsable value ({exc})") from exc
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc})") from exc
    if not rows:
        raise IngestionError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise IngestionError(f"{path}: ragged rows")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[0] != arr.shape[1]:
        raise IngestionError(f"{path}: matrix is {arr.shape[0]}x{arr.shape[1]}, expected square")
    return arr


def format_matrix_csv_by_cell(weights) -> str:
    """Matrix CSV text built from one ``.17g`` f-string per cell."""
    lines = [",".join(f"{x:.17g}" for x in row) for row in np.asarray(weights)]
    return "\n".join(lines) + "\n"
