"""Local cost functions with analytic gradients, their config record and
empirical gradient-bound estimation.

Three benchmark families:

- logistic: nonconvex binary classification,
  f_i(x) = (1/m) sum_j log(1 + exp(-u_j x^T v_j))
           + sum_s lambda * alpha * x_s^2 / (1 + alpha * x_s^2)
- sincos: f_i(x) = x^T x + 3 sin(x)^T sin(x) + m_i x^T cos(x)
  with sum_i m_i = 0 across agents and every m_i nonzero
- quadratic: f_i(x) = 0.5 ||x - a_i||^2, whose average satisfies the
  Polyak-Lojasiewicz inequality with constant 1 and has the closed-form
  optimum mean(a_i)

ObjectiveConfig, a family's record, checks its own kind and parameters.
A run's n agents are one objective of their family, which
make_objectives builds: a LogisticObjective, SinCosObjective or
QuadraticObjective, each an AgentObjectives that holds every agent's data
stacked along an agent axis. grad(X) gives all n gradients of an (n, d)
X, one point per agent, or of a stack (..., n, d) of such points, in one
call: the engines and the gradient bound use it. value_grad(x) gives the
value and gradient of the network average at a shared point x (d,) or at
each point of a stack (..., d), adding the agents' terms in agent order:
the telemetry uses it, through mean_value_grad.

Every stacked call returns, for each point, the bits of the call on that
point alone: reductions run along the last axis and dot products go
through row_dots or matmul, which add the same terms in the same order.

The logistic formulas skip exp and logaddexp on saturated margins,
|z| >= SATURATED_MARGIN, where their results are known exactly (+0.0 and
max(z, 0)); every other margin gets the same arithmetic, so the bits are
those of the plain formulas.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import row_dots, row_norms
from dpcopt.errors import ConfigInvalid, DimensionMismatch, DpcoptError
from dpcopt.rng import StreamFactory, Tag

# rng.uniform(-r, r) overflows its range high - low above half the
# largest double.
MAX_BOX_RADIUS = sys.float_info.max / 2

# exp(t) rounds to +0.0 for every t below ln(2^-1075) = -745.1332...,
# half the smallest subnormal, so exp(-|z|) is +0.0 and logaddexp(0, z) is
# exactly max(z, 0) wherever |z| >= SATURATED_MARGIN.
SATURATED_MARGIN = 746.0

# estimate_grad_bound evaluates its points in chunks whose largest
# gradient temporary holds about this many elements.
BOUND_CHUNK_ELEMENTS = 1 << 16

# OpenBLAS runs a GEMM of at most 2^18 multiply-adds on the calling thread
# and hands a larger one to its worker threads. Waking them cost 8-30 ms a
# call on a 2-vCPU host whose second core was busy, against 25 us for a
# (26, 100) x (100, 100) product, so the bound's screen stays below it.
SCREEN_GEMM_MACS = 1 << 18

__all__ = [
    "ObjectiveConfig",
    "LogisticObjective",
    "SinCosObjective",
    "QuadraticObjective",
    "AgentObjectives",
    "estimate_grad_bound",
    "make_objectives",
    "draw_zero_sum_coefficients",
    "mean_value_grad",
]


@dataclass(frozen=True)
class ObjectiveConfig:
    """One run's objective family: its kind, dimension d and, for
    logistic only, the dataset size m, lambda (lam) and alpha."""

    kind: str
    d: int
    m: int | None = None
    lam: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("logistic", "sincos", "quadratic"):
            raise ConfigInvalid(f"objective.kind: unknown kind {self.kind!r}")
        logistic = self.kind == "logistic"
        for key, value in (("m", self.m), ("lambda", self.lam), ("alpha", self.alpha)):
            if logistic and value is None:
                raise ConfigInvalid(f"objective.{key}: required for logistic")
            if not logistic and value is not None:
                raise ConfigInvalid(f"objective.{key}: not a parameter of {self.kind}")
        if logistic and self.m < 1:
            raise ConfigInvalid("objective.m: must be >= 1")
        if logistic and not self.alpha >= 0:
            # The regulariser lambda alpha x^2 / (1 + alpha x^2) has a pole at
            # |x_s| = 1/sqrt(-alpha): no gradient bound exists.
            raise ConfigInvalid("objective.alpha: must be >= 0")
        if self.d < 1:
            raise ConfigInvalid("objective.d: must be >= 1")


def _unit_axis(out: np.ndarray | None, axis: int) -> np.ndarray | None:
    """A C-contiguous out buffer as a view with a new unit axis, the shape
    of a matmul result whose axis the caller then drops; None stays None."""
    return None if out is None else np.expand_dims(out, axis)


def _margins(signed: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Margins z_j = s_j^T x of one agent, (m, d) signed features and x
    (d,), or of stacked agents, (n, m, d) and x (n, d) or (..., n, d);
    written into out, a C-contiguous array of z's shape, when given.

    matmul with x as a trailing (d, 1) column runs the same BLAS
    matrix-vector product for each point and agent, so a stacked call
    equals the per-agent calls bit for bit (np.einsum does not).
    """
    return np.matmul(signed, x[..., None], out=_unit_axis(out, -1))[..., 0]


def _logistic_loss(z: np.ndarray) -> np.ndarray:
    """log1p(exp(z)) of each margin as logaddexp(0, z), which cannot
    overflow. Where |z| >= SATURATED_MARGIN, logaddexp(0, z) is exactly
    max(z, 0), since the exp inside it is +0.0: max is taken there, and
    logaddexp, with its exp and log1p, runs only on the rest."""
    loss = np.maximum(z, 0.0)
    np.logaddexp(0.0, z, out=loss, where=np.abs(z) < SATURATED_MARGIN)
    return loss


def _logistic_buffers(z_shape: tuple, d: int) -> tuple:
    """Empty (e, numerator, mask, gradient) buffers for _logistic_grad on
    margins of shape z_shape (..., m) and points of width d."""
    return (
        np.empty(z_shape),
        np.empty(z_shape),
        np.empty(z_shape, dtype=bool),
        np.empty(z_shape[:-1] + (d,)),
    )


def _logistic_grad(
    signed: np.ndarray, reg, alpha, x: np.ndarray, z: np.ndarray, out: tuple | None = None
) -> np.ndarray:
    """Gradient at x given its margins z, with reg = 2 lambda alpha;
    broadcasts over a leading agent axis (reg and alpha may then be (n, 1)
    columns) and over further leading axes of x and z. out, when given, is
    a _logistic_buffers tuple for z's shape, which the call overwrites; the
    gradient is then its last buffer.

    The logistic function sigma(z) comes from e = exp(-|z|), which cannot
    overflow. exp runs only where -|z| >= -SATURATED_MARGIN: below that
    every exp is +0.0 (see SATURATED_MARGIN), numpy's exp is slowest there,
    and the clamp to +0.0 after it writes those zeros while leaving each
    computed e, NaN included, as it is. The data term
    -(1/m) sum_j sigma(z_j) u_j v_j is one BLAS product per agent,
    (-sigma)^T S, divided by -m: the stacked matmul runs the same product
    for each agent, so a stacked call equals the per-agent calls bit for
    bit.

    These are the bits of -(c^T V) / m with c = u * sigma and z = -u * (V x).
    u = +-1, so (-sigma_j) s_jk is u_j sigma_j v_jk exactly, sign of zero
    included, and the same BLAS sum adds the same terms in the same order.
    A margin can differ from -u_j (v_j^T x) only in the sign of a zero,
    which neither |z| nor z >= 0 sees.

    The numerator, 1 where z >= 0 and e elsewhere, is max(e, [z >= 0]),
    since e lies in [0, 1]: the same values as a per-element select,
    without its mispredicted branches on a stack of points. e and -1 - e
    share one buffer and the quotient is taken in place, because each
    fresh temporary of the margins' size costs page faults there; the
    gradient bound passes one set of buffers for all its chunks. The rest
    works in place too, in the order of grad / -m + reg x / (1 + alpha x^2)^2,
    so the bits are the same; x and z are never written, as they may be
    views of the caller's state or read-only broadcasts.
    """
    e, neg_sigma, mask, grad = out or (None, None, None, None)
    e = np.abs(z, out=e)
    np.negative(e, out=e)
    mask = np.greater_equal(e, -SATURATED_MARGIN, out=mask)
    np.exp(e, out=e, where=mask)
    np.maximum(e, 0.0, out=e)
    # A mixed bool/float np.maximum(e, z >= 0) gives the same bits, but its
    # buffered cast is slower on stacked margins (6 x 200 and larger).
    np.greater_equal(z, 0.0, out=mask)
    if neg_sigma is None:
        neg_sigma = mask.astype(np.float64)
    else:
        np.copyto(neg_sigma, mask)
    np.maximum(neg_sigma, e, out=neg_sigma)
    np.subtract(-1.0, e, out=e)
    neg_sigma /= e
    grad = np.matmul(neg_sigma[..., None, :], signed, out=_unit_axis(grad, -2))[..., 0, :]
    grad /= -signed.shape[-2]
    denom = x * x
    denom *= alpha
    denom += 1.0
    denom *= denom
    reg_term = reg * x
    reg_term /= denom
    grad += reg_term
    return grad


def _sincos_grad(m_i, x: np.ndarray, sx: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Elementwise, so it broadcasts over a leading agent axis (m_i then
    an (n, 1) column) and over further leading axes of x."""
    return 2.0 * x + 6.0 * sx * cx + m_i * (cx - x * sx)


class AgentObjectives:
    """The objectives of a run's n agents, all of one family: each family's
    subclass holds every agent's data stacked along an agent axis.

    grad(X) takes one point per agent, X (n, d), or a stack (..., n, d) of
    such points, and returns the gradients in the same shape: entry
    [..., i, :] is agent i's gradient at X[..., i, :], through the family's
    formula on the stacked data (a subclass's _grad). value_grad(x) takes
    a point x (d,) shared by all agents, or a stack (..., d), and returns
    the value and gradient of the network average f = (1/n) sum_i f_i:
    agent i's term (a subclass's _term) on slices of the stacked data,
    added in agent order from 0.0 and zeros. The two do not call each
    other, and each agent's gradient has the same bits in both, but for
    the sign bit of a NaN entry, which no output reads.

    agent_elements is the per-agent width of the largest temporary (d, or
    max(m, d) for logistic margins), the largest temporary of one agent's
    term per point; point_elements is that of grad per (n, d) point.
    Callers size their stacks of points by them.
    """

    def __init__(self, n: int, d: int, agent_elements: int) -> None:
        if n < 1:
            raise ConfigInvalid("objectives: need at least one agent")
        self.n, self.d = n, d
        self.agent_elements = agent_elements
        self.point_elements = n * agent_elements

    def __len__(self) -> int:
        return self.n

    def _shaped(self, x: np.ndarray, *shape: int) -> np.ndarray:
        """x as float64 points (..., *shape)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-len(shape):] != shape:
            expected = ", ".join(map(str, shape))
            raise DimensionMismatch(f"x has shape {x.shape}, expected (..., {expected})")
        return x

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradients (..., n, d): entry [..., i, :] is agent i's gradient
        at x[..., i, :]."""
        return self._grad(self._shaped(x, self.n, self.d))

    def value_grad(self, x: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """Value and gradient of the network average at a point x (d,), or
        at each point of a stack (..., d): values (...,), a float for one
        point, and gradients (..., d), each point's those of its own call."""
        x = self._shaped(x, self.d)
        total_value = 0.0
        total_grad = np.zeros_like(x)
        for i in range(self.n):
            value, grad = self._term(i, x)
            # One point's values add as Python floats.
            total_value += value if np.ndim(value) else float(value)
            total_grad += grad
        return total_value / self.n, total_grad / self.n

    def _chunk_grad(self, p: int) -> Callable[[np.ndarray], np.ndarray]:
        """grad for stacks (q, n, d) of q <= p points."""
        return self.grad


class LogisticObjective(AgentObjectives):
    """n agents' logistic losses with one lambda and one alpha, checked by
    ObjectiveConfig: agent i's data is features[i] (m, d) with labels[i]
    (m,), each +1 or -1."""

    def __init__(self, features, labels, lam: float, alpha: float) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 3 or features.shape[1] < 1:
            raise DimensionMismatch("logistic features must be a nonempty (n, m, d) block")
        n, m, d = features.shape
        super().__init__(n, d, max(m, d))
        if labels.shape != (n, m):
            raise DimensionMismatch("logistic labels must align with the feature rows")
        if not np.all(np.abs(labels) == 1.0):
            raise ConfigInvalid("logistic labels must be exactly +1 or -1")
        ObjectiveConfig("logistic", d, m, lam, alpha)
        # Rows s_j = -u_j v_j, (n, m, d): the margins are z = S x, with no
        # product by the labels in each call. See _logistic_grad for why
        # the bits are those of the formula on the unsigned features.
        self.signed = -labels[..., None] * features
        self.lam, self.alpha = lam, alpha
        self.reg = 2.0 * lam * alpha

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return _logistic_grad(self.signed, self.reg, self.alpha, x, _margins(self.signed, x))

    def _term(self, i: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        signed = self.signed[i]
        z = _margins(signed, x)
        # np.mean and np.sum without their Python wrappers: the same sums.
        value = np.add.reduce(_logistic_loss(z), axis=-1) / z.shape[-1]
        xsq = x * x
        value += np.add.reduce(self.lam * self.alpha * xsq / (1.0 + self.alpha * xsq), axis=-1)
        return value, _logistic_grad(signed, self.reg, self.alpha, x, z)

    def _chunk_grad(self, p: int) -> Callable[[np.ndarray], np.ndarray]:
        """grad for stacks (q, n, d) of q <= p points, writing every call's
        margins, temporaries and gradients into one set of buffers, so a
        result lives only until the next call."""
        signed, reg, alpha = self.signed, self.reg, self.alpha
        z = np.empty((p,) + signed.shape[:-1])
        kernel = _logistic_buffers(z.shape, self.d)
        return lambda x: _logistic_grad(
            signed, reg, alpha, x, _margins(signed, x, z[: len(x)]),
            tuple(b[: len(x)] for b in kernel),
        )


class SinCosObjective(AgentObjectives):
    """n agents' sincos costs, agent i with coefficient coeffs[i]."""

    def __init__(self, coeffs: Sequence[float], d: int) -> None:
        # An (n, 1) column, which the formula broadcasts over the points.
        self.coeffs = np.asarray(coeffs, dtype=np.float64).reshape(-1, 1)
        super().__init__(len(self.coeffs), d, d)

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return _sincos_grad(self.coeffs, x, np.sin(x), np.cos(x))

    def _term(self, i: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m_i = self.coeffs[i, 0]
        sx = np.sin(x)
        cx = np.cos(x)
        # x @ cx of each point, as row_dots takes x @ x.
        x_cx = np.matmul(x[..., None, :], cx[..., :, None])[..., 0, 0]
        value = row_dots(x) + 3.0 * row_dots(sx) + m_i * x_cx
        return value, _sincos_grad(m_i, x, sx, cx)


class QuadraticObjective(AgentObjectives):
    """n agents' costs 0.5 ||x - a_i||^2, with anchors a_i the rows of an
    (n, d) block, which estimate_grad_bound screens with."""

    def __init__(self, anchors) -> None:
        self.anchors = np.asarray(anchors, dtype=np.float64)
        n, d = self.anchors.shape
        super().__init__(n, d, d)

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return x - self.anchors

    def _term(self, i: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diff = x - self.anchors[i]
        return 0.5 * row_dots(diff), diff


def _largest_norm(g: np.ndarray) -> float:
    """The largest of row_norms(g), bit for bit where the squares stay
    finite. A row whose square overflows from finite entries is taken again
    as m ||g / m||, m its largest |g|, so it reads inf only where its norm
    does (compressors.row_norms, which the engines share, stays plain)."""
    norms = row_norms(g)
    top = norms.max()
    if top == np.inf:
        over = np.isinf(norms) & np.isfinite(g).all(axis=-1)
        scale = np.abs(g[over]).max(axis=-1, keepdims=True)
        norms[over] = scale[:, 0] * row_norms(g[over] / scale)
        top = norms.max()
    return top


def _exhaustive_maxima(objectives: AgentObjectives) -> Callable[[np.ndarray], list]:
    """points (q, d) -> the largest gradient norm over all agents of each
    block of points, every gradient through the kind's stacked formula.

    A block's stacked gradients hold about BOUND_CHUNK_ELEMENTS elements
    (or one point's, if more). Every block reuses, for logistic agents, one
    set of kernel buffers: fresh block-sized temporaries would each be
    faulted in again, as often as the heap layout happens to demand.
    """
    n, d = len(objectives), objectives.d
    step = max(1, BOUND_CHUNK_ELEMENTS // objectives.point_elements)
    grad = objectives._chunk_grad(step)

    def maxima(points: np.ndarray) -> list:
        # Each point at every agent: a read-only view, no copy.
        blocks = (points[start:start + step] for start in range(0, len(points), step))
        return [
            _largest_norm(grad(np.broadcast_to(block[:, None, :], (len(block), n, d))))
            for block in blocks
        ]

    return maxima


def _screened_maxima(objectives: QuadraticObjective, step: int) -> Callable[[np.ndarray], list]:
    """For quadratic agents, points (q, d) with q <= step -> maxima whose
    largest is the largest of the exhaustive path's norms, bit for bit.

    The gradient at p is p - a_i, and ||p - a_i||^2 = ||p||^2 - 2 p.a_i +
    ||a_i||^2 for all pairs comes from a (q, d) x (d, n) GEMM. With
    u = 2^-53 and g = (d + 2) u / (1 - (d + 2) u), both that screen and the
    exhaustive path's fl(p - a_i) dot product lie within
    g (||p|| + ||a_i||)^2 of the exact square, so within E / 2 of each
    other, where E = 4 g (max ||p|| + max ||a||)^2 keeps a factor 2 for the
    computed norms. A pair more than E below the top screened value thus
    cannot hold the exhaustive maximum, and only pairs within 2 E of it go
    through the exhaustive formula, fl(p - a_i) and row_norms. E also
    carries 4 (d + 2) smallest normals for rounding below the normal range,
    flushed or not.

    A screen that is not finite (NaN anchors, or squares that overflow)
    or whose largest square could overflow sends its points down the
    exhaustive path, which reports the same non-finite norms.
    """
    anchors = objectives.anchors
    n, d = anchors.shape
    exhaustive = _exhaustive_maxima(objectives)
    anchor_sq = row_dots(anchors)
    anchor_reach = math.sqrt(anchor_sq.max())
    # E = rel * reach + floor, reach being a chunk's (max ||p|| + max ||a||)^2.
    unit = np.finfo(np.float64).eps / 2
    rel = 4.0 * (d + 2) * unit / (1.0 - (d + 2) * unit)
    floor = 4.0 * (d + 2) * np.finfo(np.float64).tiny
    # Each batch of candidates (pairs, d) stays within one chunk's elements.
    pairs = max(1, BOUND_CHUNK_ELEMENTS // d)
    screens = np.empty((step, n))
    masks = np.empty((step, n), dtype=bool)
    # Near-square tiles of the screen, which BLAS computes fastest at a
    # fixed count of multiply-adds.
    cols = min(n, max(1, math.isqrt(SCREEN_GEMM_MACS // d)))
    rows = max(1, SCREEN_GEMM_MACS // (d * cols))

    def maxima(points: np.ndarray) -> list:
        screen = screens[: len(points)]
        for r in range(0, len(points), rows):
            for c in range(0, n, cols):
                np.matmul(
                    points[r:r + rows], anchors[c:c + cols].T,
                    out=screen[r:r + rows, c:c + cols],
                )
        point_sq = row_dots(points)
        screen *= -2.0
        screen += point_sq[:, None]
        screen += anchor_sq
        top = float(screen.max())
        reach = math.sqrt(point_sq.max()) + anchor_reach
        reach *= reach
        # 2 reach bounds every exhaustive square, so none of them overflows.
        if not (math.isfinite(top) and math.isfinite(2.0 * reach)):
            return exhaustive(points)
        window = top - 2.0 * (rel * reach + floor)
        mask = np.greater_equal(screen, window, out=masks[: len(points)])
        # flatnonzero is much faster than a 2-d nonzero on a sparse mask.
        at, agent = np.divmod(np.flatnonzero(mask), n)
        return [
            row_norms(points[at[i:i + pairs]] - anchors[agent[i:i + pairs]]).max()
            for i in range(0, len(at), pairs)
        ]

    return maxima


def estimate_grad_bound(
    objectives: AgentObjectives, radius: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical gradient bound M on the box [-radius, radius]^d.

    Samples uniform points and takes 1.1x the largest local gradient
    norm seen across agents. This is a box-restricted surrogate for the
    global bound, which does not exist for the benchmark objectives;
    report it together with the box radius. A gradient norm or bound
    that is not finite raises DpcoptError.

    The points are drawn and evaluated chunk by chunk, so memory stays at
    one chunk of about BOUND_CHUNK_ELEMENTS elements. For quadratic agents
    one GEMM per chunk screens every (point, agent) pair and only the
    pairs that can hold the chunk's largest norm are evaluated (see
    _screened_maxima); the other kinds evaluate every pair. Either way the
    bound equals, bit for bit, 1.1x the largest norm of the per-point,
    per-agent gradients.
    """
    if trials < 1:
        raise ConfigInvalid("privacy.trials: need at least 1 sample")
    if radius < 0:
        raise ConfigInvalid("privacy.box_radius: must be >= 0")
    if radius > MAX_BOX_RADIUS:
        raise ConfigInvalid(f"privacy.box_radius: must be at most {MAX_BOX_RADIUS!r}")
    n, d = len(objectives), objectives.d
    worst = []
    # An overflowing gradient is reported below rather than as numpy's
    # warning; max keeps a NaN norm, which the builtin max() would skip.
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(objectives, QuadraticObjective):
            # The widest blocks of a screened chunk are its points and screen.
            step = max(1, BOUND_CHUNK_ELEMENTS // max(n, d))
            maxima = _screened_maxima(objectives, step)
        else:
            step = max(1, BOUND_CHUNK_ELEMENTS // objectives.point_elements)
            maxima = _exhaustive_maxima(objectives)
        buffer = np.empty((step, d))
        for start in range(0, trials, step):
            rows = min(step, trials - start)
            # Consecutive draws give the values of one draw of all points,
            # and these are the bits of rng.uniform(-radius, radius), which
            # takes -radius + (radius - -radius) * u of the same draws u.
            points = rng.random(out=buffer[:rows])
            points *= radius - -radius
            points += -radius
            worst.extend(maxima(points))
    bound = 1.1 * float(np.max(worst))
    if not math.isfinite(bound):
        raise DpcoptError(
            f"gradient bound on the box of radius {radius!r} is not finite"
        )
    return bound


def draw_zero_sum_coefficients(n: int, rng: np.random.Generator) -> np.ndarray:
    """n coefficients with exact zero sum and no zero entry.

    First n-1 drawn uniform on (-1, 1), the last is their negated sum;
    the whole batch is redrawn in the measure-zero event of a zero.
    """
    if n < 2:
        raise ConfigInvalid("graph.n: zero-sum coefficients need n >= 2")
    while True:
        head = rng.uniform(-1.0, 1.0, size=n - 1)
        tail = -float(head.sum())
        values = np.append(head, tail)
        if np.all(values != 0.0):
            return values


def make_objectives(
    kind: str,
    n: int,
    d: int,
    streams: StreamFactory,
    m: int | None = None,
    lam: float | None = None,
    alpha: float | None = None,
) -> AgentObjectives:
    """Construct the objectives of one run's n agents, whose parameters
    ObjectiveConfig checks first.

    Agent i's data is row i of its family's block, drawn from agent i's
    own data stream through the pooled StreamFactory.rows generators:
    logistic features (m, d) i.i.d. standard Gaussian, then labels uniform
    on {-1, +1}; quadratic anchors (d,) standard Gaussian. The shared
    zero-sum sincos coefficients come from a single stream at round index
    1, so they are drawn jointly.
    """
    ObjectiveConfig(kind, d, m, lam, alpha)
    if kind == "sincos":
        return SinCosObjective(draw_zero_sum_coefficients(n, streams.get(0, Tag.DATA, 1)), d)
    rows = streams.rows(Tag.DATA, 0, n)
    if kind == "quadratic":
        anchors = np.empty((n, d))
        for g, row in zip(rows, anchors):
            g.standard_normal(out=row)
        return QuadraticObjective(anchors)
    features, labels = np.empty((n, m, d)), np.empty((n, m))
    for g, block, row in zip(rows, features, labels):
        g.standard_normal(out=block)
        row[:] = 2.0 * g.integers(0, 2, size=m).astype(np.float64) - 1.0
    return LogisticObjective(features, labels, lam, alpha)


def mean_value_grad(
    objectives: AgentObjectives, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """objectives.value_grad(x), under the name the engines hand to
    run_rounds for the gradient-norm column."""
    return objectives.value_grad(x)
