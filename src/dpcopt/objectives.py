"""Local cost functions with analytic gradients, dataset generation and
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

The engines, their telemetry and the gradient bound take a run's n
agents in one form: AgentObjectives, which make_objectives returns, whose
agents are all exactly one family and whose grad(X) gives all n
gradients of an (n, d) X, or of a stack (..., n, d) of such points, in
one call. Each agent is one per-family class (LogisticObjective,
SinCosObjective, QuadraticObjective) with grad(x) and value_grad(x) on a
point x (d,) or a stack (..., d); mean_value_grad gives the network
average's value and gradient at a point (d,) or a stack (..., d).

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
from dataclasses import dataclass, field

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

__all__ = [
    "Dataset",
    "LogisticObjective",
    "SinCosObjective",
    "QuadraticObjective",
    "AgentObjectives",
    "generate_dataset",
    "estimate_grad_bound",
    "make_objectives",
    "draw_zero_sum_coefficients",
    "mean_value_grad",
]

@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m, d) with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2 or features.shape[0] < 1:
            raise DimensionMismatch("dataset features must be a nonempty (m, d) matrix")
        if labels.shape != (features.shape[0],):
            raise DimensionMismatch("dataset labels must align with feature rows")
        if not np.all(np.abs(labels) == 1.0):
            raise ConfigInvalid("dataset labels must be exactly +1 or -1")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def generate_dataset(m: int, d: int, rng: np.random.Generator) -> Dataset:
    """Features i.i.d. standard Gaussian; labels uniform on {-1, +1}."""
    if m < 1 or d < 1:
        raise ConfigInvalid("objective: dataset needs m >= 1 and d >= 1")
    features = rng.standard_normal((m, d))
    labels = 2.0 * rng.integers(0, 2, size=m).astype(np.float64) - 1.0
    return Dataset(features=features, labels=labels)


def _checked(x: np.ndarray, d: int) -> np.ndarray:
    """x as a float64 point (d,) or stack of points (..., d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 1 or x.shape[-1] != d:
        raise DimensionMismatch(f"x has shape {x.shape}, expected (..., {d})")
    return x


def _value(total: np.ndarray) -> float | np.ndarray:
    """A loss as a float for one point, or as a (...,) array for a stack."""
    return float(total) if np.ndim(total) == 0 else total


def _signed_features(dataset: Dataset) -> np.ndarray:
    """Rows s_j = -u_j v_j: the margins are z = S x, with no product by
    the labels in each call. See _logistic_grad for why the bits are those
    of the formula on the unsigned features."""
    return -dataset.labels[:, None] * dataset.features


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
    broadcasts over a leading agent axis (reg and alpha are then (n, 1)
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


@dataclass(frozen=True)
class LogisticObjective:
    dataset: Dataset
    lam: float
    alpha: float
    # Derived once from the fields above; see _signed_features.
    signed: np.ndarray = field(init=False, repr=False, compare=False)
    reg: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.alpha >= 0:
            # A pole at |x_s| = 1/sqrt(-alpha): no gradient bound exists.
            raise ConfigInvalid("objective.alpha: must be >= 0")
        object.__setattr__(self, "signed", _signed_features(self.dataset))
        object.__setattr__(self, "reg", 2.0 * self.lam * self.alpha)

    @property
    def d(self) -> int:
        return self.dataset.d

    def _checked_margins(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = _checked(x, self.d)
        return x, _margins(self.signed, x)

    def value_grad(self, x: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        x, z = self._checked_margins(x)
        # np.mean and np.sum without their Python wrappers: the same sums.
        value = np.add.reduce(_logistic_loss(z), axis=-1) / z.shape[-1]
        xsq = x * x
        value += np.add.reduce(self.lam * self.alpha * xsq / (1.0 + self.alpha * xsq), axis=-1)
        return _value(value), _logistic_grad(self.signed, self.reg, self.alpha, x, z)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, z = self._checked_margins(x)
        return _logistic_grad(self.signed, self.reg, self.alpha, x, z)


@dataclass(frozen=True)
class SinCosObjective:
    m_i: float
    dim: int

    @property
    def d(self) -> int:
        return self.dim

    def value_grad(self, x: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        x = _checked(x, self.dim)
        sx = np.sin(x)
        cx = np.cos(x)
        # x @ cx of each point, as row_dots takes x @ x.
        x_cx = np.matmul(x[..., None, :], cx[..., :, None])[..., 0, 0]
        value = row_dots(x) + 3.0 * row_dots(sx) + self.m_i * x_cx
        return _value(value), _sincos_grad(self.m_i, x, sx, cx)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = _checked(x, self.dim)
        return _sincos_grad(self.m_i, x, np.sin(x), np.cos(x))


@dataclass(frozen=True)
class QuadraticObjective:
    anchor: np.ndarray

    @property
    def d(self) -> int:
        return self.anchor.shape[0]

    def value_grad(self, x: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        diff = _checked(x, self.d) - self.anchor
        return _value(0.5 * row_dots(diff)), diff

    def grad(self, x: np.ndarray) -> np.ndarray:
        return _checked(x, self.d) - self.anchor


def _stacked_grad(items: tuple) -> tuple[Callable, int, Callable | None]:
    """X (..., n, d) -> gradients of the same shape through the kind's
    shared formula, with the agents' data stacked once here. Raises
    ConfigInvalid unless every agent is exactly one built-in kind with
    data of one shape.

    Also returns the per-agent width of the formula's largest temporary:
    d, or max(m, d) for logistic, whose margins are (..., n, m); and, for
    logistic agents, a function of p that returns the formula on stacks
    (q, n, d) of q <= p points with one set of buffers reused by every
    call, else None.
    """
    kind = type(items[0])
    d = items[0].d
    if any(type(obj) is not kind or obj.d != d for obj in items):
        raise ConfigInvalid("objectives: agents must all be one kind of one dimension d")
    if kind is QuadraticObjective:
        anchors = np.stack([obj.anchor for obj in items])
        return (lambda x: x - anchors), d, None
    if kind is SinCosObjective:
        coeffs = np.array([[obj.m_i] for obj in items])
        return (lambda x: _sincos_grad(coeffs, x, np.sin(x), np.cos(x))), d, None
    if kind is not LogisticObjective:
        raise ConfigInvalid(f"objectives: {kind.__name__} is not a built-in kind")
    if len({obj.dataset.m for obj in items}) != 1:
        raise ConfigInvalid("objectives: logistic agents must share one dataset size m")
    signed = np.stack([obj.signed for obj in items])
    reg = np.array([[obj.reg] for obj in items])
    alpha = np.array([[obj.alpha] for obj in items])

    def reusing(p: int) -> Callable[[np.ndarray], np.ndarray]:
        z = np.empty((p,) + signed.shape[:-1])
        kernel = _logistic_buffers(z.shape, d)
        return lambda x: _logistic_grad(
            signed, reg, alpha, x, _margins(signed, x, z[: len(x)]),
            tuple(b[: len(x)] for b in kernel),
        )

    return (
        lambda x: _logistic_grad(signed, reg, alpha, x, _margins(signed, x))
    ), max(items[0].dataset.m, d), reusing


class AgentObjectives(Sequence):
    """The n per-agent objectives of one run, indexable like a list, whose
    grad evaluates all n gradients in one call.

    The agents must all be exactly one built-in kind (no subclass) of one
    dimension d, and logistic agents must share one m; make_objectives
    always builds such a set, and any other raises ConfigInvalid here.

    grad takes X (n, d), or a stack (..., n, d) of such points, and
    returns the same shape. X[..., i, :] maps to objectives[i].grad of it
    bit for bit: both go through the same per-kind formula, which
    broadcasts over the leading axes, the stacked data being built once
    here.

    point_elements is the size of the largest temporary grad makes per
    (n, d) point, which callers use to size a stack of points.
    """

    def __init__(self, objectives: Sequence) -> None:
        self._items = tuple(objectives)
        if not self._items:
            raise ConfigInvalid("objectives: need at least one agent")
        self._stacked, width, self._reusing = _stacked_grad(self._items)
        self.point_elements = len(self._items) * width

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    @property
    def d(self) -> int:
        return self._items[0].d

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradients (..., n, d): entry [..., i, :] is agent i's gradient
        at x[..., i, :]."""
        x = np.asarray(x, dtype=np.float64)
        n, d = len(self._items), self.d
        if x.shape[-2:] != (n, d):
            raise DimensionMismatch(f"x has shape {x.shape}, expected (..., {n}, {d})")
        return self._stacked(x)

    def _chunk_grad(self, p: int) -> Callable[[np.ndarray], np.ndarray]:
        """grad for stacks (q, n, d) of q <= p points. For logistic agents
        every call writes its margins, temporaries and gradients into one
        set of buffers, so a result lives only until the next call."""
        return self.grad if self._reusing is None else self._reusing(p)


def estimate_grad_bound(
    objectives: AgentObjectives, radius: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical gradient bound M on the box [-radius, radius]^d.

    Samples uniform points and takes 1.1x the largest local gradient
    norm seen across agents. This is a box-restricted surrogate for the
    global bound, which does not exist for the benchmark objectives;
    report it together with the box radius. A gradient norm or bound
    that is not finite raises DpcoptError.
    """
    if trials < 1:
        raise ConfigInvalid("privacy.trials: need at least 1 sample")
    if radius < 0:
        raise ConfigInvalid("privacy.box_radius: must be >= 0")
    if radius > MAX_BOX_RADIUS:
        raise ConfigInvalid(f"privacy.box_radius: must be at most {MAX_BOX_RADIUS!r}")
    n, d = len(objectives), objectives.d
    step = max(1, BOUND_CHUNK_ELEMENTS // objectives.point_elements)
    # Every chunk reuses one points buffer and, for logistic agents, one set
    # of kernel buffers: fresh chunk-sized temporaries would each be faulted
    # in again, as often as the heap layout happens to demand.
    grad = objectives._chunk_grad(step)
    buffer = np.empty((step, d))
    # Each point at every agent: a read-only view, no copy.
    stack = np.broadcast_to(buffer[:, None, :], (step, n, d))
    worst = []
    # An overflowing gradient is reported below rather than as numpy's
    # warning; max keeps a NaN norm, which the builtin max() would skip.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, trials, step):
            rows = min(step, trials - start)
            # Consecutive draws give the values of one draw of all points,
            # and these are the bits of rng.uniform(-radius, radius), which
            # takes -radius + (radius - -radius) * u of the same draws u.
            points = rng.random(out=buffer[:rows])
            points *= radius - -radius
            points += -radius
            worst.append(row_norms(grad(stack[:rows])).max())
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
    """Construct the per-agent objectives of one run.

    Per-agent data comes from the agent's own data stream; the shared
    zero-sum coefficients come from a single stream at round index 1 so
    they are drawn jointly.
    """
    if kind == "logistic":
        if m is None or lam is None or alpha is None:
            raise ConfigInvalid("objective: logistic needs m, lambda, alpha")
        return AgentObjectives(
            LogisticObjective(
                dataset=generate_dataset(m, d, streams.get(i, Tag.DATA, 0)),
                lam=lam,
                alpha=alpha,
            )
            for i in range(n)
        )
    if kind == "sincos":
        coeffs = draw_zero_sum_coefficients(n, streams.get(0, Tag.DATA, 1))
        return AgentObjectives(
            SinCosObjective(m_i=float(coeffs[i]), dim=d) for i in range(n)
        )
    if kind == "quadratic":
        return AgentObjectives(
            QuadraticObjective(anchor=streams.get(i, Tag.DATA, 0).standard_normal(d))
            for i in range(n)
        )
    raise ConfigInvalid(f"objective.kind: unknown kind {kind!r}")


def mean_value_grad(
    objectives: Sequence, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Value and gradient of the network average f = (1/n) sum_i f_i at
    a point x (d,), or at each point of a stack (..., d): values (...,)
    and gradients (..., d), each point's those of its own call."""
    total_value = 0.0
    total_grad = np.zeros_like(np.asarray(x, dtype=np.float64))
    for obj in objectives:
        value, grad = obj.value_grad(x)
        total_value += value
        total_grad += grad
    n = len(objectives)
    return total_value / n, total_grad / n
