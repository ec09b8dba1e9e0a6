"""Local cost functions with analytic gradients, dataset generation, a
finite-difference oracle, and empirical gradient-bound estimation.

Three benchmark families:

- logistic: nonconvex binary classification,
  f_i(x) = (1/m) sum_j log(1 + exp(-u_j x^T v_j))
           + sum_s lambda * alpha * x_s^2 / (1 + alpha * x_s^2)
- sincos: f_i(x) = x^T x + 3 sin(x)^T sin(x) + m_i x^T cos(x)
  with sum_i m_i = 0 across agents and every m_i nonzero
- quadratic: f_i(x) = 0.5 ||x - a_i||^2, whose average satisfies the
  Polyak-Lojasiewicz inequality with constant 1 and has the closed-form
  optimum mean(a_i)
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from dpcopt.compressors import row_norms
from dpcopt.errors import ConfigInvalid, DimensionMismatch
from dpcopt.rng import StreamFactory, Tag

__all__ = [
    "Dataset",
    "LogisticObjective",
    "SinCosObjective",
    "QuadraticObjective",
    "AgentObjectives",
    "as_agent_objectives",
    "generate_dataset",
    "logistic_grad",
    "logistic_value_grad",
    "sincos_grad",
    "sincos_value_grad",
    "quadratic_pl_grad",
    "quadratic_pl_value_grad",
    "finite_diff_grad",
    "estimate_grad_bound",
    "make_objectives",
    "draw_zero_sum_coefficients",
    "mean_value_grad",
]

OBJECTIVE_KINDS = ("logistic", "sincos", "quadratic")


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


def _margins(features: np.ndarray, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Margins z_j = -u_j x^T v_j of one agent, (m, d) data and x (d,), or
    of stacked agents, (n, m, d) data and x (n, d).

    matmul with x as a trailing (d, 1) column runs the same BLAS
    matrix-vector product for each agent, so a stacked call equals the
    per-agent calls bit for bit (np.einsum does not).
    """
    return -labels * np.matmul(features, x[..., None])[..., 0]


def _logistic_margins(ds: Dataset, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shape-checked x and its margins on one agent's dataset."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ds.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, dataset dimension is {ds.d}")
    return x, _margins(ds.features, ds.labels, x)


def _logistic_grad(
    features: np.ndarray, labels: np.ndarray, lam, alpha, x: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Gradient at x given its margins z; broadcasts over a leading agent
    axis (lam and alpha are then (n, 1) columns)."""
    sigma = np.exp(-np.logaddexp(0.0, -z))  # logistic function of z, stable
    grad = -(features * (labels * sigma)[..., None]).mean(axis=-2)
    denom = 1.0 + alpha * (x * x)
    return grad + 2.0 * lam * alpha * x / (denom * denom)


def logistic_grad(ds: Dataset, lam: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """Gradient of the nonconvex regularized logistic loss."""
    x, z = _logistic_margins(ds, x)
    return _logistic_grad(ds.features, ds.labels, lam, alpha, x, z)


def logistic_value_grad(
    ds: Dataset, lam: float, alpha: float, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Nonconvex regularized logistic loss and gradient.

    The loss term is evaluated as log1p(exp(z)) via logaddexp so large
    margins never overflow; the sigmoid is derived from the same stable
    quantity.
    """
    x, z = _logistic_margins(ds, x)
    value = float(np.mean(np.logaddexp(0.0, z)))
    xsq = x * x
    value += float(np.sum(lam * alpha * xsq / (1.0 + alpha * xsq)))
    return value, _logistic_grad(ds.features, ds.labels, lam, alpha, x, z)


def _sincos_grad(m_i, x: np.ndarray, sx: np.ndarray, cx: np.ndarray) -> np.ndarray:
    """Elementwise, so it broadcasts over a leading agent axis (m_i then
    an (n, 1) column)."""
    return 2.0 * x + 6.0 * sx * cx + m_i * (cx - x * sx)


def sincos_grad(m_i, x: np.ndarray) -> np.ndarray:
    """Gradient of the nonconvex trigonometric cost; also of n stacked
    agents, with m_i an (n, 1) column and x (n, d)."""
    x = np.asarray(x, dtype=np.float64)
    return _sincos_grad(m_i, x, np.sin(x), np.cos(x))


def sincos_value_grad(m_i: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Nonconvex trigonometric cost and gradient."""
    x = np.asarray(x, dtype=np.float64)
    sx = np.sin(x)
    cx = np.cos(x)
    value = float(x @ x + 3.0 * (sx @ sx) + m_i * (x @ cx))
    return value, _sincos_grad(m_i, x, sx, cx)


def quadratic_pl_grad(a_i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient x - a_i of 0.5 ||x - a_i||^2; also of n stacked agents,
    with anchors and x both (n, d)."""
    a_i = np.asarray(a_i, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != a_i.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, anchor has shape {a_i.shape}")
    return x - a_i


def quadratic_pl_value_grad(a_i: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """0.5 ||x - a_i||^2 and its gradient."""
    diff = quadratic_pl_grad(a_i, x)
    return 0.5 * float(diff @ diff), diff


@dataclass(frozen=True)
class LogisticObjective:
    dataset: Dataset
    lam: float
    alpha: float

    @property
    def d(self) -> int:
        return self.dataset.d

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return logistic_value_grad(self.dataset, self.lam, self.alpha, x)

    def value(self, x: np.ndarray) -> float:
        return self.value_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return logistic_grad(self.dataset, self.lam, self.alpha, x)


@dataclass(frozen=True)
class SinCosObjective:
    m_i: float
    dim: int

    @property
    def d(self) -> int:
        return self.dim

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.dim},)")
        return x

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return sincos_value_grad(self.m_i, self._checked(x))

    def value(self, x: np.ndarray) -> float:
        return self.value_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return sincos_grad(self.m_i, self._checked(x))


@dataclass(frozen=True)
class QuadraticObjective:
    anchor: np.ndarray

    @property
    def d(self) -> int:
        return self.anchor.shape[0]

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return quadratic_pl_value_grad(self.anchor, x)

    def value(self, x: np.ndarray) -> float:
        return self.value_grad(x)[0]

    def grad(self, x: np.ndarray) -> np.ndarray:
        return quadratic_pl_grad(self.anchor, x)


def _stacked_grad(items: tuple) -> Callable[[np.ndarray], np.ndarray] | None:
    """X (n, d) -> gradients (n, d) through the kind's shared formula, with
    the agents' data stacked once here; None unless every agent is exactly
    one built-in kind with equally shaped data."""
    kind = type(items[0])
    if any(type(obj) is not kind for obj in items):
        return None
    if kind is QuadraticObjective:
        anchors = np.stack([obj.anchor for obj in items])
        return lambda x: quadratic_pl_grad(anchors, x)
    if kind is SinCosObjective:
        coeffs = np.array([[obj.m_i] for obj in items])
        return lambda x: sincos_grad(coeffs, x)
    if kind is LogisticObjective and len({obj.dataset.m for obj in items}) == 1:
        features = np.stack([obj.dataset.features for obj in items])
        labels = np.stack([obj.dataset.labels for obj in items])
        lam = np.array([[obj.lam] for obj in items])
        alpha = np.array([[obj.alpha] for obj in items])
        return lambda x: _logistic_grad(
            features, labels, lam, alpha, x, _margins(features, labels, x)
        )
    return None


class AgentObjectives(Sequence):
    """The n per-agent objectives of one run, indexable like a list, whose
    grad evaluates all n gradients in one call.

    Row i of grad(X) is objectives[i].grad(X[i]) bit for bit: both go
    through the same per-kind formula, the stacked data being built once
    here. Agents that are not all exactly one built-in kind (subclasses,
    other objects with d/grad/value_grad) are evaluated one by one.
    """

    def __init__(self, objectives: Sequence) -> None:
        self._items = tuple(objectives)
        if not self._items:
            raise ConfigInvalid("objectives: need at least one agent")
        self._stacked = _stacked_grad(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    @property
    def d(self) -> int:
        return self._items[0].d

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Gradients (n, d): row i is agent i's gradient at x[i]."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (len(self._items), self.d):
            raise DimensionMismatch(
                f"x has shape {x.shape}, expected ({len(self._items)}, {self.d})"
            )
        if self._stacked is None:
            return np.stack([obj.grad(row) for obj, row in zip(self._items, x)])
        return self._stacked(x)


def as_agent_objectives(objectives: Sequence) -> AgentObjectives:
    """objectives itself when it already is an AgentObjectives, else the
    list wrapped (and its data stacked) once."""
    if isinstance(objectives, AgentObjectives):
        return objectives
    return AgentObjectives(objectives)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float
) -> np.ndarray:
    """Central differences (f(x + h e_s) - f(x - h e_s)) / 2h."""
    if h <= 0:
        raise ConfigInvalid("finite differences need h > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for s in range(x.shape[0]):
        step = np.zeros_like(x)
        step[s] = h
        grad[s] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def estimate_grad_bound(
    objectives: Sequence, radius: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical gradient bound M on the box [-radius, radius]^d.

    Samples uniform points and takes 1.1x the largest local gradient
    norm seen across agents. This is a box-restricted surrogate for the
    global bound, which does not exist for the benchmark objectives;
    report it together with the box radius.
    """
    if trials < 1:
        raise ConfigInvalid("privacy.trials: need at least 1 sample")
    if radius < 0:
        raise ConfigInvalid("privacy.box_radius: must be >= 0")
    objectives = as_agent_objectives(objectives)
    n, d = len(objectives), objectives.d
    # One draw of all points gives the values of `trials` draws of d.
    points = rng.uniform(-radius, radius, size=(trials, d))
    worst = 0.0
    for x in points:
        grads = objectives.grad(np.tile(x, (n, 1)))
        worst = max(worst, float(row_norms(grads).max()))
    return 1.1 * worst


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


def mean_value_grad(objectives: Sequence, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and gradient of the network average f = (1/n) sum_i f_i at
    a single point."""
    total_value = 0.0
    total_grad = np.zeros_like(np.asarray(x, dtype=np.float64))
    for obj in objectives:
        value, grad = obj.value_grad(x)
        total_value += value
        total_grad += grad
    n = len(objectives)
    return total_value / n, total_grad / n
