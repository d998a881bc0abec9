"""Per-layer tracing by wrapping the names koopmpc's own modules look up.

A :class:`Tracer` replaces public functions and methods of the package with
timing wrappers while it is installed, and puts the originals back when it
is removed. Only the benchmark's process is affected; no file of the package
changes. Each wrapper keeps a stack of child time, so a layer's self time is
its span's duration minus the time of the traced calls nested inside it.
Times are read from the clock passed in; the benchmark passes its
reference-speed clock (see ``bench_clock.py``).

Patched names are the ones callers resolve at call time: module globals of
the calling module (``koopmpc.mpc.solve_qp_info``) and class attributes
(``CondensedMpc.qp``). The benchmark's own code calls the package through
module attributes too, so its calls are traced the same way.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import koopmpc.benchmark as kbench
import koopmpc.dynamics as kdyn
import koopmpc.io as kio
import koopmpc.mpc as kmpc
import koopmpc.numerics as knum
import koopmpc.observables as kobs
import koopmpc.sysid as ksysid
import koopmpc.transfer as ktransfer
from koopmpc.errors import KoopmpcError


def _count_cols(tracer, args, kwargs, out):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.add("observables.eval_dictionary.cols", 1 if getattr(x, "ndim", 1) == 1 else x.shape[1])


def _count_qp(tracer, args, kwargs, out):
    info = out[1]
    tracer.add("numerics.solve_qp_info.iters", info["iterations"])
    tracer.maximum("numerics.solve_qp_info.max_kkt", info["kkt_residual"])


def _count_step(tracer, args, kwargs, out):
    tracer.add("mpc.steps", 1)
    tracer.add("mpc.active_steps", int(out.qp_iterations > 2))
    if kwargs.get("warm_start") is not None:
        tracer.add("mpc.warm_start_attempts", 1)
        tracer.add("mpc.warm_start_hits", int(out.warm_started))


def _count_samples(tracer, args, kwargs, out):
    part, levels, spb = args[1], args[2], args[4]
    tracer.add("transfer.samples_flowed", part.n_boxes * int(spb) * len(levels))


def _count_bytes(tracer, args, kwargs, out):
    tracer.add("io.bytes_written", os.path.getsize(args[1]))


# (layer name, owner object, attribute, counter hook or None). A layer may be
# looked up through several owners; all of them get the same wrapper.
TRACED = (
    ("dynamics.rk4_step", kdyn, "rk4_step", None),
    ("dynamics.rk4_step", kmpc, "rk4_step", None),
    ("dynamics.generate_training_trajectories", kbench, "generate_training_trajectories", None),
    ("observables.eval_dictionary", ksysid, "eval_dictionary", _count_cols),
    ("observables.eval_dictionary", kobs, "eval_dictionary", _count_cols),
    ("sysid.lift", ksysid.LinearControlModel, "lift", None),
    ("sysid.predict_rollout", kbench, "predict_rollout", None),
    ("sysid.fit_dmdc", kbench, "fit_dmdc", None),
    ("sysid.fit_edmdc", kbench, "fit_edmdc", None),
    ("sysid.fit_delay_augmented", kbench, "fit_delay_augmented", None),
    ("numerics.truncated_svd", knum, "truncated_svd", None),
    ("numerics.QpProblem.init", knum.QpProblem, "__post_init__", None),
    ("numerics.solve_qp_info", kmpc, "solve_qp_info", _count_qp),
    ("numerics.stationary_vector", ktransfer, "stationary_vector", None),
    ("mpc.closed_loop_run", kmpc, "closed_loop_run", None),
    ("mpc.condense", kmpc.CondensedMpc, "__init__", None),
    ("mpc.mpc_step", kmpc, "mpc_step", _count_step),
    ("mpc.qp_assemble", kmpc.CondensedMpc, "qp", None),
    ("mpc.is_feasible", kmpc.CondensedMpc, "is_feasible", None),
    ("transfer.estimate_controlled_transition", ktransfer, "estimate_controlled_transition", _count_samples),
    ("transfer.invariant_density", ktransfer, "invariant_density", None),
    ("io.model_to_json", kio, "model_to_json", _count_bytes),
    ("io.chain_to_json", kio, "chain_to_json", _count_bytes),
    ("benchmark.make_training_data", kbench, "make_training_data", None),
    ("benchmark.fit_models", kbench, "fit_models", None),
    ("benchmark.make_validation_trajectories", kbench, "make_validation_trajectories", None),
    ("benchmark.prediction_errors", kbench, "prediction_errors", None),
)


class Tracer:
    """Call counts, inclusive and self time, and counters per traced layer.

    Use as a context manager: entering patches every name in ``TRACED``,
    leaving restores the originals, even when the traced code raised.
    """

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._child = []  # child time accumulated by each open span
        self._saved = []

    def add(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = tracer._child
            child.append(0.0)
            start = tracer.now()
            try:
                out = fn(*args, **kwargs)
            except KoopmpcError as err:
                tracer.add(f"{name}.failed", 1)
                tracer.add(f"{name}.failed.{type(err).__name__}", 1)
                raise
            finally:
                spent = tracer.now() - start
                nested = child.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += spent
                tracer.self_s[name] += spent - nested
                if child:
                    child[-1] += spent
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def __enter__(self):
        wrappers = {}
        for name, owner, attr, hook in TRACED:
            original = owner.__dict__[attr]
            if name not in wrappers:
                wrappers[name] = self._wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[name])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
