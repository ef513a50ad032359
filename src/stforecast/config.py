"""Pipeline configuration: dataclasses plus JSON load/save.

The JSON document mirrors the dataclass sections: {graph, solver, layers,
heads, tuner, data}. Layer parameters accept a scalar, a per-block list, or a
full per-block-per-layer table; they are normalized to (blocks, layers)
arrays internally. rho fields may be null, meaning sqrt(N / total instants)
resolved at run time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .attention import DEFAULT_FEATURE_DIM, DEFAULT_SPATIAL_DIM, TEMPORAL_DIM, MetricBank
from .solver import (
    DEFAULT_CG_INIT,
    DEFAULT_CG_ITERS,
    DEFAULT_EXACT_TOL,
    VARIANTS,
    CgSchedule,
    LayerParams,
)

DEFAULT_MU = 3.0
DEFAULT_RESIDUAL = 0.3
EXTRAPOLATION_METHODS = ("hold-last", "linear-trend", "seasonal-naive")
CG_MODES = ("unrolled", "exact")


def _expand_table(value, blocks: int, layers: int, name: str) -> np.ndarray | None:
    """Normalize scalar / per-block / per-layer input to a (B, M) array."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full((blocks, layers), float(arr))
    if arr.ndim == 1:
        if len(arr) != blocks:
            raise ValueError(f"{name}: per-block list must have length {blocks}")
        return np.repeat(arr[:, None], layers, axis=1)
    if arr.shape == (blocks, layers):
        return arr.copy()
    raise ValueError(f"{name}: expected scalar, ({blocks},) or ({blocks},{layers}) values")


@dataclass
class GraphSettings:
    k: int = 4
    window: int = 6
    spatial_dim: int = DEFAULT_SPATIAL_DIM
    feature_dim: int = DEFAULT_FEATURE_DIM
    feature_seed: int = 0
    aggregate_neighbors: bool = False
    swish_beta: float | None = None
    projection: list | None = None  # explicit (K, E) matrix overrides the seeded one
    projection_bias: list | None = None

    def __post_init__(self):
        k, e = self.feature_dim, 1 + self.spatial_dim + TEMPORAL_DIM
        for name, shape, rule in (
            ("projection", (k, e), f"be feature_dim x (1 + spatial_dim + {TEMPORAL_DIM}) = {k} x {e}"),
            ("projection_bias", (k,), f"have feature_dim = {k} entries"),
        ):
            value = getattr(self, name)
            if value is None:
                continue
            got = _shape(value)
            if got != shape:
                raise ValueError(
                    f"{name} must {rule}, got " + (repr(value) if got is None else f"shape {got}")
                )
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")


@dataclass
class SolverSettings:
    mode: str = "full"
    cg_mode: str = "unrolled"
    cg_iters: int = DEFAULT_CG_ITERS
    cg_alpha: float | list = DEFAULT_CG_INIT
    cg_beta: float | list = DEFAULT_CG_INIT
    cg_tol: float = DEFAULT_EXACT_TOL
    exact_cap: int | None = None

    def __post_init__(self):
        if self.mode not in VARIANTS:
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.cg_mode not in CG_MODES:
            raise ValueError(f"unknown cg_mode {self.cg_mode!r}; expected one of {CG_MODES}")
        self.schedule()  # a bad cg_iters, cg_alpha or cg_beta fails here, at load

    def schedule(self) -> CgSchedule:
        if self.cg_mode == "exact":
            return CgSchedule.exact(tol=self.cg_tol, iters=self.exact_cap)
        for name in ("cg_alpha", "cg_beta"):
            if np.shape(getattr(self, name)) not in ((), (1,), (self.cg_iters,)):
                raise ValueError(
                    f"{name} has {np.size(getattr(self, name))} entries; expected a scalar "
                    f"or cg_iters = {self.cg_iters} entries"
                )
        return CgSchedule.unrolled(self.cg_iters, self.cg_alpha, self.cg_beta)


@dataclass
class LayerSettings:
    blocks: int = 5
    layers: int = 25
    mu_u: object = DEFAULT_MU
    mu_d2: object = DEFAULT_MU
    mu_d1: object = DEFAULT_MU
    rho: object = None  # None -> sqrt(N / n_instants) at run time
    rho_u: object = None
    rho_d: object = None
    residual: object = DEFAULT_RESIDUAL  # per-block mixing into the running signal

    def __post_init__(self):
        b, m = self.blocks, self.layers
        if b < 0 or m < 1:
            raise ValueError("need blocks >= 0 and layers >= 1")
        for name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d"):
            tab = _expand_table(getattr(self, name), b, m, name)
            if name.startswith("mu") and tab is None:
                raise ValueError(f"{name} must be a number or a table, not null")
            if name.startswith("mu") and np.any(tab < 0):
                raise ValueError(f"{name} must be nonnegative")
            if name.startswith("rho") and tab is not None and np.any(tab <= 0):
                raise ValueError(f"{name} must be positive")
            setattr(self, name, tab)
        res = np.broadcast_to(np.asarray(self.residual, dtype=np.float64), (b,)).copy()
        if np.any((res < 0) | (res > 1)):
            raise ValueError("residual coefficients must lie in [0, 1]")
        self.residual = res

    def layer_params(self, block: int, default_rho: float) -> list[LayerParams]:
        rho0 = np.full(self.layers, default_rho)
        rows = [self.mu_u[block], self.mu_d2[block], self.mu_d1[block]] + [
            rho0 if tab is None else tab[block] for tab in (self.rho, self.rho_u, self.rho_d)
        ]
        return [LayerParams(*values) for values in zip(*rows)]


@dataclass
class HeadSettings:
    count: int = 4
    merge: list | None = None  # None -> uniform 1/H
    metric_scale_u: list | None = None
    metric_scale_d: list | None = None
    metric_overrides: list = field(default_factory=list)

    def __post_init__(self):
        h = self.count
        if h < 1:
            raise ValueError("need at least one head")
        self.merge = (
            np.full(h, 1.0 / h) if self.merge is None else np.asarray(self.merge, dtype=float)
        )
        if len(self.merge) != h or not np.all(np.isfinite(self.merge)):
            raise ValueError("merge weights must be finite with one entry per head")
        # default scales spread the heads apart so they are distinct untrained
        for name in ("metric_scale_u", "metric_scale_d"):
            value = getattr(self, name)
            scales = _default_scales(h) if value is None else np.asarray(value, float)
            if scales.shape != (h,):
                raise ValueError(f"{name} must have one entry per head ({h}), got {value!r}")
            setattr(self, name, scales)
        for i, entry in enumerate(self.metric_overrides):
            _override_index(i, entry, "head", 0, h)

    def build_bank(self, n_instants: int, window: int, feature_dim: int) -> MetricBank:
        bank = MetricBank.default(
            n_instants,
            window,
            feature_dim,
            heads=self.count,
            scale_u=self.metric_scale_u,
            scale_d=self.metric_scale_d,
        )
        for i, entry in enumerate(self.metric_overrides):
            h = _override_index(i, entry, "head", 0, self.count)
            if "instant" in entry:
                slots, slot = bank.undirected, _override_index(i, entry, "instant", 0, n_instants)
            elif "lag" in entry:
                slots, slot = bank.directed, _override_index(i, entry, "lag", 1, window + 1) - 1
            else:
                raise ValueError(f"metric_overrides[{i}] needs an 'instant' or 'lag' key")
            if _shape(entry.get("factor")) != (feature_dim, feature_dim):
                raise ValueError(f"metric_overrides[{i}]: factor must be {feature_dim}x{feature_dim}")
            slots[h, slot] = entry["factor"]
        return bank


def _shape(value) -> tuple | None:
    """The shape of ``value`` as a float array, or None if it is not one."""
    try:
        return np.asarray(value, dtype=float).shape
    except (TypeError, ValueError):
        return None


def _override_index(i: int, entry: dict, key: str, low: int, stop: int) -> int:
    """``entry[key]``, checked to be an integer in [low, stop)."""
    value = entry.get(key)
    if not isinstance(value, int) or not low <= value < stop:
        raise ValueError(
            f"metric_overrides[{i}]: {key} must be an integer in [{low}, {stop - 1}], got {value!r}"
        )
    return value


def _default_scales(h: int) -> np.ndarray:
    if h == 1:
        return np.ones(1)
    return 0.8 + 0.4 * np.arange(h) / (h - 1)


@dataclass
class TunerSettings:
    iterations: int = 100
    seed: int = 7
    step: float = 0.2
    perturb: float = 0.15
    decay_exponent: float = 0.602
    perturb_exponent: float = 0.101
    eval_samples: int | None = 4  # None: every validation window

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        if self.eval_samples is not None and self.eval_samples < 1:
            raise ValueError(f"eval_samples must be at least 1, got {self.eval_samples}")
        for name in ("step", "perturb"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class DataSettings:
    stride: int = 3
    ratios: tuple = (0.6, 0.2, 0.2)
    horizon: int = 6
    history: int = 12  # observed steps T+1
    mape_floor: float = 1.0
    extrapolation: str = "hold-last"
    trend_window: int = 6
    seasonal_period: int = 288

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        ratios = tuple(float(r) for r in self.ratios)
        if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError("ratios must be three numbers summing to 1")
        self.ratios = ratios
        if self.extrapolation not in EXTRAPOLATION_METHODS:
            raise ValueError(
                f"unknown extrapolation {self.extrapolation!r}; expected {EXTRAPOLATION_METHODS}"
            )

    @property
    def n_instants(self) -> int:
        return self.history + self.horizon


@dataclass
class PipelineConfig:
    graph: GraphSettings = field(default_factory=GraphSettings)
    solver: SolverSettings = field(default_factory=SolverSettings)
    layers: LayerSettings = field(default_factory=LayerSettings)
    heads: HeadSettings = field(default_factory=HeadSettings)
    tuner: TunerSettings = field(default_factory=TunerSettings)
    data: DataSettings = field(default_factory=DataSettings)

    def default_rho(self, n_stations: int) -> float:
        return float(np.sqrt(n_stations / self.data.n_instants))

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        factories = {f.name: f.default_factory for f in fields(cls)}
        unknown = set(doc) - set(factories)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        sections = {}
        for name, klass in factories.items():
            try:
                sections[name] = klass(**doc.get(name, {}))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config section '{name}': {exc}") from None
        return cls(**sections)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(doc)


def _jsonable(value):
    """Arrays and tuples as lists, recursively, so ``json`` can write the value."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
