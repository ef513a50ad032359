"""Span recorder and the hooks that time calls into stforecast from outside.

A traced run replaces module and class attributes of the package with timing
wrappers, runs the workload, and puts the originals back. Nothing in the
package changes: the pipeline and the solver look their callees up through
module globals at call time, and ``MixedGraph.apply`` is wrapped on its class.

Spans live in flat in-memory arrays (name, start, end, parent, group) and are
written out once, when the run ends. Spans of one window forecast, or of one
tuner loss evaluation, share a group id; group 0 is everything else (set-up,
tuner bookkeeping).
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from stforecast import attention, config, data, graphs, pipeline, solver, tuning

HOOK_MARK = "__perfbench_hook__"
OPERATORS = ("l_u", "l_rd", "l_rd_t", "call_rd")

# (owner, attribute, span name, starts a group). The owner is the namespace
# the caller looks the name up in, e.g. pipeline imports the skeleton functions
# by name, and attention imports the operator assemblies by name.
SPAN_HOOKS = (
    (data, "load_dataset", "data.load", False),
    (pipeline.PipelineContext, "build", "pipeline.context_build", False),
    (pipeline, "build_spatial_skeleton", "graphs.spatial_skeleton", False),
    (pipeline, "build_temporal_skeleton", "graphs.temporal_skeleton", False),
    (attention, "spatial_eigenmap", "attention.eigenmap", False),
    (config.HeadSettings, "build_bank", "config.build_bank", False),
    (pipeline, "_forward", "pipeline.forward", True),
    (attention, "embed", "attention.embed", False),
    (attention.FeatureMap, "__call__", "attention.features", False),
    (attention, "multi_head_graphs", "attention.graphs", False),
    (attention, "undirected_weights", "attention.weights", False),
    (attention, "directed_weights", "attention.weights", False),
    (attention, "assemble_undirected_laplacian", "graphs.assemble", False),
    (attention, "assemble_random_walk_digraph", "graphs.assemble", False),
    (attention, "symmetrized_dglr_matrix", "graphs.assemble", False),
    (solver, "admm_block", "solver.block", False),
    (solver, "update_x", "solver.update_x", False),
    (solver, "update_zu", "solver.update_zu", False),
    (solver, "update_zd", "solver.update_zd", False),
    (solver, "update_phi", "solver.update_phi", False),
    (solver, "update_multipliers", "solver.multipliers", False),
    (solver, "cg_solve", "solver.cg", False),
    (tuning, "tune_spsa", "tuning.tune", False),
    (tuning, "unpack_config", "tuning.unpack", False),
)

# scipy's CSR/CSC matrix-vector kernel entry; counted only inside MixedGraph.apply
_SPARSE_MATVEC_OWNER = next(
    c for c in sp.csr_matrix.__mro__ if "_matmul_vector" in c.__dict__
)


class Tracer:
    """In-memory spans plus per-operator sparse product counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._group = 0
        self._groups = 0
        self._op: str | None = None
        # operator -> [nnz touched, bytes computed] over its sparse products
        self.products = {op: [0, 0] for op in OPERATORS}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, new_group: bool) -> tuple[int, bool]:
        opens = new_group and self._group == 0
        if opens:
            self._groups += 1
            self._group = self._groups
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.group.append(self._group)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx, opens

    def _close(self, token: tuple[int, bool]):
        t = time.perf_counter()
        idx, opened = token
        self.end[idx] = t
        self._stack.pop()
        if opened:
            self._group = 0

    def wrap(self, fn, name: str, new_group: bool = False):
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self._open(nid, new_group)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(token)

        setattr(wrapper, HOOK_MARK, True)
        return wrapper

    def _apply_hook(self, fn):
        nids = {op: self.intern(f"graphs.matvec.{op}") for op in OPERATORS}

        @functools.wraps(fn)
        def apply(graph, op, x):
            token = self._open(nids[op], False)
            self._op = op
            try:
                return fn(graph, op, x)
            finally:
                self._op = None
                self._close(token)

        setattr(apply, HOOK_MARK, True)
        return apply

    def _sparse_hook(self, fn):
        @functools.wraps(fn)
        def matmul_vector(mat, other):
            if self._op is not None:
                rec = self.products[self._op]
                rec[0] += mat.nnz
                rec[1] += (
                    mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
                    + other.nbytes + 8 * mat.shape[0]
                )
            return fn(mat, other)

        setattr(matmul_vector, HOOK_MARK, True)
        return matmul_vector

    def _spsa_hook(self, fn):
        @functools.wraps(fn)
        def spsa_minimize(loss_fn, *args, **kwargs):
            return fn(self.wrap(loss_fn, "tuning.loss_eval", new_group=True), *args, **kwargs)

        setattr(spsa_minimize, HOOK_MARK, True)
        return spsa_minimize

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "group": np.array(self.group, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _hook_targets():
    targets = [(owner, attr) for owner, attr, _name, _group in SPAN_HOOKS]
    targets += [
        (graphs.MixedGraph, "apply"),
        (tuning, "spsa_minimize"),
        (_SPARSE_MATVEC_OWNER, "_matmul_vector"),
    ]
    return targets


def installed_hooks() -> list[str]:
    """Names of hook targets that currently hold a benchmark wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in _hook_targets()
        if getattr(getattr(owner, attr), HOOK_MARK, False)
    ]


@contextmanager
def hooked(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []

    def replace(owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    try:
        for owner, attr, name, new_group in SPAN_HOOKS:
            replace(owner, attr, lambda fn, n=name, g=new_group: tracer.wrap(fn, n, g))
        replace(graphs.MixedGraph, "apply", tracer._apply_hook)
        replace(tuning, "spsa_minimize", tracer._spsa_hook)
        replace(_SPARSE_MATVEC_OWNER, "_matmul_vector", tracer._sparse_hook)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over the traced work: inclusive or self seconds, and counts."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.zeros_like(dur)
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    n_names = len(tracer.names)
    incl_by_id = np.bincount(a["name_id"], weights=dur, minlength=n_names)
    self_by_id = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)
    count_by_id = np.bincount(a["name_id"], minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def incl(*span_names):
        return float(sum(incl_by_id[ids[n]] for n in span_names if n in ids))

    def self_of(name):
        return float(self_by_id[ids[name]]) if name in ids else 0.0

    def count(name):
        return int(count_by_id[ids[name]]) if name in ids else 0

    matvec_spans = [f"graphs.matvec.{op}" for op in OPERATORS]
    out = {
        "data.load_s": (incl("data.load"), "s"),
        "pipeline.context_build_s": (incl("pipeline.context_build"), "s"),
        "graphs.spatial_skeleton_s": (incl("graphs.spatial_skeleton"), "s"),
        "graphs.temporal_skeleton_s": (incl("graphs.temporal_skeleton"), "s"),
        "attention.eigenmap_s": (incl("attention.eigenmap"), "s"),
        "config.build_bank_s": (incl("config.build_bank"), "s"),
        "pipeline.forward_s": (incl("pipeline.forward"), "s"),
        "pipeline.self_s": (self_of("pipeline.forward"), "s"),
        "attention.embed_s": (incl("attention.embed"), "s"),
        "attention.features_s": (incl("attention.features"), "s"),
        "attention.graphs_s": (incl("attention.graphs"), "s"),
        "attention.weights_s": (incl("attention.weights"), "s"),
        "graphs.assemble_s": (incl("graphs.assemble"), "s"),
        "solver.block_s": (incl("solver.block"), "s"),
        "solver.update_x_s": (incl("solver.update_x"), "s"),
        "solver.update_zu_s": (incl("solver.update_zu"), "s"),
        "solver.update_zd_s": (incl("solver.update_zd"), "s"),
        "solver.update_phi_s": (incl("solver.update_phi"), "s"),
        "solver.multipliers_s": (incl("solver.multipliers"), "s"),
        "solver.cg_s": (incl("solver.cg"), "s"),
        "solver.cg_self_s": (self_of("solver.cg"), "s"),
        "solver.cg_calls": (count("solver.cg"), "count"),
        "graphs.matvec_s": (incl(*matvec_spans), "s"),
        "graphs.matvec_calls": (sum(count(n) for n in matvec_spans), "count"),
    }
    for op, span_name in zip(OPERATORS, matvec_spans):
        out[f"graphs.matvec_calls.{op}"] = (count(span_name), "count")
    nnz_total = sum(rec[0] for rec in tracer.products.values())
    out["graphs.matvec_nnz"] = (nnz_total, "count")
    for op in OPERATORS:
        out[f"graphs.matvec_nnz.{op}"] = (tracer.products[op][0], "count")
    out["graphs.matvec_flops"] = (2 * nnz_total, "flop")
    out["graphs.matvec_bytes_computed"] = (
        sum(rec[1] for rec in tracer.products.values()), "B"
    )
    out["tuning.tune_s"] = (incl("tuning.tune"), "s")
    out["tuning.loss_evals"] = (count("tuning.loss_eval"), "count")
    out["tuning.unpack_s"] = (incl("tuning.unpack"), "s")
    return out
