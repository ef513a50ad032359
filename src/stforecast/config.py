"""Pipeline configuration: dataclasses plus JSON load/save.

The JSON document mirrors the dataclass sections: {graph, solver, layers,
heads, tuner, data}. Each setting declares the values it accepts once, as a
``Rule`` in its field's metadata, checked by ``check_rules`` when its section is
built; null is accepted only where the type says ``| None``. Structured
settings keep their own checks: shapes, ``ratios``, and, once the sections are
joined, ``graph.window`` and ``heads.metric_overrides``. Layer parameters take
a scalar, a per-block list, or a per-block-per-layer table, normalized to
(blocks, layers) arrays. A null rho means sqrt(N / total instants).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .attention import DEFAULT_FEATURE_DIM, DEFAULT_SPATIAL_DIM, MetricBank
from .solver import (DEFAULT_CG_INIT, DEFAULT_CG_ITERS, DEFAULT_EXACT_TOL, VARIANTS,
                     CgSchedule, LayerParams)

DEFAULT_MU = 3.0
DEFAULT_RESIDUAL = 0.3
CG_MODES = ("unrolled", "exact")


@dataclass(frozen=True)
class Rule:
    """Accepted values: one of ``options``, of the same type, or finite numbers x (each entry
    of a table) with low <= x <= high and x > above, integers in an ``int`` field."""

    low: float = -np.inf
    above: float = -np.inf
    high: float = np.inf
    options: tuple = ()

    def admits(self, value, kind: str) -> bool:
        if self.options:
            return any(type(value) is type(o) and value == o for o in self.options)
        if kind.startswith("int"):
            integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            return integer and self.low <= value <= self.high
        x = _entries(value, nested="list" in kind)
        if x is None:
            return False
        return bool(np.all(np.isfinite(x) & (x >= self.low) & (x > self.above) & (x <= self.high)))

    def describe(self, kind: str) -> str:
        if self.options:
            return "one of " + ", ".join(map(json.dumps, self.options))
        bound = (f" in [{self.low:g}, {self.high:g}]" if self.high < np.inf
                 else f" > {self.above:g}" if self.above > -np.inf
                 else f" >= {self.low:g}" if self.low > -np.inf else "")
        if kind.startswith("int"):
            return f"an integer{bound}"
        return f"a finite number{bound}" + (" or a list of them" if "list" in kind else "")


def _rule(default, **rule):
    """A field with ``default`` whose values must satisfy ``Rule(**rule)``."""
    return field(default=default, metadata={"rule": Rule(**rule)})


def check_rules(section) -> None:
    """Check every field of a section against the rule its metadata declares."""
    for f in fields(section):
        rule, value = f.metadata.get("rule"), getattr(section, f.name)
        if rule is None or (value is None and "None" in f.type) or rule.admits(value, f.type):
            continue
        null = " or null" if "None" in f.type else ""
        raise ValueError(f"{f.name} must be {rule.describe(f.type)}{null}, got {_shown(value)}")


def _entries(value, nested: bool) -> np.ndarray | None:
    """The entries of a number, or with ``nested`` of nested lists or arrays of numbers, as
    floats; None if one is not a number."""
    if nested and isinstance(value, np.ndarray):
        return value.ravel() if value.dtype.kind in "iuf" else None
    if nested and isinstance(value, (list, tuple)):
        parts = [_entries(v, True) for v in value]
        return None if any(p is None for p in parts) else np.concatenate([np.empty(0), *parts])
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return np.array([value if abs(value) <= 1e308 else np.inf], dtype=float)  # huge ints
    return None


def _shown(value) -> str:
    """``value`` as JSON, arrays as lists."""
    return json.dumps(value, default=lambda v: v.tolist() if hasattr(v, "tolist") else repr(v))


def _shape(value) -> tuple | None:
    """The shape of ``value`` as a float array, or None if it is not one."""
    try:
        return np.asarray(value, dtype=float).shape
    except (TypeError, ValueError, OverflowError):
        return None


def _expand_table(value, blocks: int, layers: int, name: str):
    """Normalize scalar / per-block / per-layer input to a (B, M) array.

    Without blocks the value is checked and kept as given: a table of no
    rows would lose it, and a saved config could then not take more blocks.
    """
    if value is None:
        return None
    shape = _shape(value)
    if shape == ():
        table = np.full((blocks, layers), float(value))
    elif shape == (blocks,):
        table = np.repeat(np.asarray(value, dtype=np.float64)[:, None], layers, axis=1)
    elif shape == (blocks, layers):
        table = np.array(value, dtype=np.float64)
    else:
        raise ValueError(f"{name} must be a number, a per-block list of length {blocks} or a "
                         f"{blocks} x {layers} table, got {_shown(value)}")
    return table if blocks else value


@dataclass
class GraphSettings:
    k: int = _rule(4, low=1)
    window: int = _rule(6, low=1)  # and below history + horizon: see PipelineConfig
    spatial_dim: int = _rule(DEFAULT_SPATIAL_DIM, low=0)
    feature_dim: int = _rule(DEFAULT_FEATURE_DIM, low=1)
    feature_seed: int = _rule(0, low=0)
    aggregate_neighbors: bool = _rule(False, options=(False, True))
    swish_beta: float | None = _rule(None)
    projection_bias: list | None = _rule(None)

    def __post_init__(self):
        check_rules(self)
        bias, got = self.projection_bias, _shape(self.projection_bias)
        if bias is not None and got != (self.feature_dim,):
            raise ValueError(f"projection_bias must have feature_dim = {self.feature_dim} "
                             "entries, got " + (_shown(bias) if got is None else f"shape {got}"))


@dataclass
class SolverSettings:
    mode: str = _rule("full", options=VARIANTS)
    cg_mode: str = _rule("unrolled", options=CG_MODES)
    cg_iters: int = _rule(DEFAULT_CG_ITERS)  # at least 1 in unrolled mode: see schedule
    cg_alpha: float | list = _rule(DEFAULT_CG_INIT)  # CgSchedule clips alpha and beta
    cg_beta: float | list = _rule(DEFAULT_CG_INIT)
    cg_tol: float = _rule(DEFAULT_EXACT_TOL, low=0)
    exact_cap: int | None = _rule(None, low=1)

    def __post_init__(self):
        check_rules(self)
        self.schedule()  # a bad cg_iters or schedule length fails here, at load

    def schedule(self) -> CgSchedule:
        if self.cg_mode == "exact":
            return CgSchedule.exact(tol=self.cg_tol, iters=self.exact_cap)
        if self.cg_iters < 1:
            raise ValueError(f"cg_iters must be an integer >= 1 in unrolled mode, "
                             f"got {self.cg_iters}")
        for name in ("cg_alpha", "cg_beta"):
            if np.shape(getattr(self, name)) not in ((), (1,), (self.cg_iters,)):
                raise ValueError(f"{name} has {np.size(getattr(self, name))} entries; expected "
                                 f"a scalar or cg_iters = {self.cg_iters} entries")
        return CgSchedule.unrolled(self.cg_iters, self.cg_alpha, self.cg_beta)


@dataclass
class LayerSettings:
    blocks: int = _rule(5, low=0)
    layers: int = _rule(25, low=1)
    mu_u: float | list = _rule(DEFAULT_MU, low=0)
    mu_d2: float | list = _rule(DEFAULT_MU, low=0)
    mu_d1: float | list = _rule(DEFAULT_MU, low=0)
    rho: float | list | None = _rule(None, above=0)  # None -> sqrt(N / n_instants) at run time
    rho_u: float | list | None = _rule(None, above=0)
    rho_d: float | list | None = _rule(None, above=0)
    residual: float | list = _rule(DEFAULT_RESIDUAL, low=0, high=1)  # per-block mixing

    def __post_init__(self):
        check_rules(self)
        b, m = self.blocks, self.layers
        for name in ("mu_u", "mu_d2", "mu_d1", "rho", "rho_u", "rho_d"):
            setattr(self, name, _expand_table(getattr(self, name), b, m, name))
        # one coefficient per block: a table of one layer
        self.residual = _expand_table(self.residual, b, 1, "residual")
        if b:
            self.residual = self.residual[:, 0]

    def layer_params(self, block: int, default_rho: float) -> list[LayerParams]:
        rho0 = np.full(self.layers, default_rho)
        rows = [self.mu_u[block], self.mu_d2[block], self.mu_d1[block]] + [
            rho0 if tab is None else tab[block] for tab in (self.rho, self.rho_u, self.rho_d)
        ]
        return [LayerParams(*values) for values in zip(*rows)]


@dataclass
class HeadSettings:
    count: int = _rule(4, low=1)
    merge: list | None = _rule(None)  # None -> uniform 1/H
    metric_scale_u: list | None = _rule(None, above=0)
    metric_scale_d: list | None = _rule(None, above=0)
    metric_overrides: list = field(default_factory=list)  # checked by PipelineConfig

    def __post_init__(self):
        check_rules(self)
        h = self.count
        for name in ("merge", "metric_scale_u", "metric_scale_d"):
            value = getattr(self, name)
            if value is None:
                # default scales spread the heads apart so they are distinct untrained
                value = (np.full(h, 1.0 / h) if name == "merge" else
                         np.ones(1) if h == 1 else 0.8 + 0.4 * np.arange(h) / (h - 1))
            elif _shape(value) != (h,):
                raise ValueError(f"{name} must have one entry per head ({h}), got {_shown(value)}")
            setattr(self, name, np.asarray(value, dtype=float))

    def build_bank(self, n_instants: int, window: int, feature_dim: int) -> MetricBank:
        bank = MetricBank.default(n_instants, window, feature_dim, heads=self.count,
                                  scale_u=self.metric_scale_u, scale_d=self.metric_scale_d)
        slots = _override_slots(self.metric_overrides, self.count, n_instants, window, feature_dim)
        for array, h, slot, factor in slots:
            getattr(bank, array)[h, slot] = factor
        return bank


def _override_slots(overrides, heads: int, n_instants: int, window: int, feature_dim: int):
    """(bank array, head, slot, factor) of each entry of ``metric_overrides``,
    checked: no key but head, instant, lag and factor, a head in [0, heads),
    an instant in [0, n_instants) or a lag in [1, window], not both, and a
    finite feature_dim x feature_dim factor."""
    def index(key: str, low: int, stop: int) -> int:
        if not Rule(low=low, high=stop - 1).admits(entry.get(key), "int"):
            raise ValueError(f"{where}: {key} must be an integer in [{low}, {stop - 1}], "
                             f"got {_shown(entry.get(key))}")
        return entry[key]

    if not isinstance(overrides, list):
        raise ValueError(f"metric_overrides must be a list of objects, got {_shown(overrides)}")
    for i, entry in enumerate(overrides):
        where = f"metric_overrides[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object with a head, an instant or a lag "
                             f"and a factor, got {_shown(entry)}")
        for key in entry:
            if key not in ("head", "instant", "lag", "factor"):
                raise ValueError(f"{where}: unknown key {key!r} (value {_shown(entry[key])})")
        h = index("head", 0, heads)
        if "instant" in entry and "lag" in entry:
            raise ValueError(f"{where}: give an instant or a lag, not both; got instant "
                             f"{_shown(entry['instant'])} and lag {_shown(entry['lag'])}")
        if "instant" in entry:
            array, slot = "undirected", index("instant", 0, n_instants)
        elif "lag" in entry:
            array, slot = "directed", index("lag", 1, window + 1) - 1
        else:
            raise ValueError(f"{where} needs an 'instant' or 'lag' key")
        factor = entry.get("factor")
        if _shape(factor) != (feature_dim, feature_dim) or not Rule().admits(factor, "list"):
            raise ValueError(f"{where}: factor must be {feature_dim}x{feature_dim} and finite")
        yield array, h, slot, factor


@dataclass
class TunerSettings:
    iterations: int = _rule(100, low=0)
    seed: int = _rule(7, low=0)
    step: float = _rule(0.2, above=0)
    perturb: float = _rule(0.15, above=0)
    eval_samples: int | None = _rule(4, low=1)  # None: every validation window

    __post_init__ = check_rules


@dataclass
class DataSettings:
    stride: int = _rule(3, low=1)
    ratios: tuple = (0.6, 0.2, 0.2)
    horizon: int = _rule(6, low=1)
    history: int = _rule(12, low=1)  # observed steps T+1
    mape_floor: float = _rule(1.0, low=0)

    def __post_init__(self):
        check_rules(self)
        ratios = _entries(self.ratios, nested=True) if _shape(self.ratios) == (3,) else None
        if ratios is None or not (ratios.min() >= 0 and abs(ratios.sum() - 1.0) <= 1e-9):
            raise ValueError(f"ratios must be three nonnegative numbers summing to 1, "
                             f"got {_shown(self.ratios)}")
        self.ratios = tuple(ratios.tolist())

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

    def __post_init__(self):
        # the rules that span sections
        g, heads, n = self.graph, self.heads, self.data.n_instants
        if not g.window < n:
            raise ValueError(f"config section 'graph': window must satisfy 1 <= window < "
                             f"history + horizon = {n}, got {g.window}")
        try:
            list(_override_slots(heads.metric_overrides, heads.count, n, g.window, g.feature_dim))
        except ValueError as exc:
            raise ValueError(f"config section 'heads': {exc}") from None

    def default_rho(self, n_stations: int) -> float:
        return float(np.sqrt(n_stations / self.data.n_instants))

    def to_dict(self) -> dict:
        """The config as JSON values: arrays and tuples become lists."""
        return json.loads(_shown(asdict(self)))

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        factories = {f.name: f.default_factory for f in fields(cls)}
        unknown = set(doc) - set(factories)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        sections = {}
        for name, klass in factories.items():
            try:
                sections[name] = klass(**_checked_keys(klass, doc.get(name, {})))
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
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object of config sections, "
                             f"got {json.dumps(doc)[:40]}")
        return cls.from_dict(doc)


def _checked_keys(klass, section) -> dict:
    """``section``, checked to be a JSON object of ``klass``'s fields."""
    if not isinstance(section, dict):
        raise ValueError(f"expected a JSON object of settings, got {_shown(section)}")
    names = {f.name for f in fields(klass)}
    for key, value in section.items():
        if key not in names:
            raise ValueError(f"unknown key {key!r} (value {_shown(value)})")
    return section

