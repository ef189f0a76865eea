"""In-memory span tracing of the ``eccentric`` layers, installed from outside.

``Tracer.install`` wraps every function named in each layer module's
``__all__`` (plus the public ``DenseNet`` methods and numpy's symmetric
eigensolvers) and rebinds every reference to the original that any
``eccentric`` module holds, including references inside module-level dicts
such as ``datasets.GENERATORS``.  A renamed or fused function therefore
stays traced as long as it is public.  Classes are not wrapped: their
construction (for example the ``PointBatch`` re-wrap and its ``isfinite``
scan) stays in the caller's self time.

Spans live in flat arrays (name, parent, start, end) until the run ends.
Counters are read from arguments and results after a span closes.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("kernel", "radius", "particles", "autoencoder", "datasets", "analysis",
          "io", "cli")


def _rows(obj):
    shape = getattr(obj, "shape", None)
    if shape is not None and len(shape) == 2:
        return shape[0]
    data = getattr(obj, "data", None)
    shape = getattr(data, "shape", None)
    if shape is not None and len(shape) == 2:
        return shape[0]
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.top = array("b")  # 1 when no ancestor belongs to the same layer
        self.stack: list[int] = []
        self.depth = {layer: 0 for layer in LAYERS + ("numpy",)}
        self.counters: list[tuple[int, str, float]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = _hook_for(name)
        t = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t.name_of)
            t.name_of.append(nid)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.top.append(1 if t.depth[layer] == 0 else 0)
            t.start.append(0.0)
            t.end.append(0.0)
            t.stack.append(sid)
            t.depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                t.depth[layer] -= 1
                t.stack.pop()
                t.start[sid] = t0
                t.end[sid] = t1
            if hook is not None:
                for key, value in hook(args, kwargs, result, t.top[sid]):
                    t.counters.append((sid, key, float(value)))
            return result

        return traced

    def install(self):
        import eccentric.cli  # noqa: F401  (imports every layer)
        from eccentric import autoencoder

        mods = [m for n, m in sorted(sys.modules.items())
                if n == "eccentric" or n.startswith("eccentric.")]
        for layer in LAYERS:
            mod = sys.modules[f"eccentric.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    _rebind(mods, obj, self.wrap(f"{layer}.{attr}", obj))
        for attr, raw in list(vars(autoencoder.DenseNet).items()):
            if attr.startswith("_"):
                continue
            name = f"autoencoder.DenseNet.{attr}"
            if isinstance(raw, classmethod):
                setattr(autoencoder.DenseNet, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(autoencoder.DenseNet, attr, self.wrap(name, raw))
        for attr in ("eigh", "eigvalsh"):
            setattr(np.linalg, attr, self.wrap(f"numpy.linalg.{attr}", getattr(np.linalg, attr)))

    # -- reduction ---------------------------------------------------------

    def marks(self) -> int:
        return len(self.name_of)

    def dump(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name_of, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64))

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of the spans recorded in [lo, hi) (one pass)."""
        name_of = np.frombuffer(self.name_of, np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, np.float64)[lo:hi]
               - np.frombuffer(self.start, np.float64)[lo:hi])
        top = np.frombuffer(self.top, np.int8)[lo:hi].astype(bool)
        has_parent = parent >= lo
        child = np.zeros(hi - lo)
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        self_t = dur - child

        names = np.array(self.names)

        def mask(pred):
            ok = np.array([bool(pred(n)) for n in names], dtype=bool)
            return ok[name_of] if len(ok) else np.zeros(hi - lo, bool)

        def fn(n):
            return n.rsplit(".", 1)[-1]

        def layer(n):
            return n.split(".", 1)[0]

        def total(pred, values=dur):
            return float(values[mask(pred)].sum())

        def count(pred):
            return int(mask(pred).sum())

        sums: dict[str, float] = {}
        for sid, key, value in self.counters:
            if lo <= sid < hi:
                sums[key] = sums.get(key, 0.0) + value

        def ctr(key):
            return sums.get(key, 0.0)

        is_io = mask(lambda n: layer(n) == "io") & top

        def io_total(pred):
            return float(dur[is_io & mask(pred)].sum())

        def kernel_loss(n):
            return layer(n) == "kernel" and "loss" in fn(n) and "grad" not in fn(n)

        def kernel_grad(n):
            return layer(n) == "kernel" and "grad" in fn(n)

        def eigh(n):
            return fn(n).endswith(("eigh", "eigvalsh"))

        return {
            "radius.solve_calls": ctr("radius.solve_calls"),
            "radius.solve_s": total(lambda n: n == "radius.solve_radius"),
            "radius.bisect_iters": ctr("radius.bisect_iters"),
            "radius.quad_nodes": ctr("radius.quad_nodes"),
            "radius.sweep_s": total(lambda n: n == "radius.sweep_radius"),
            "kernel.loss_calls": count(kernel_loss),
            "kernel.grad_calls": count(kernel_grad),
            "kernel.loss_s": total(kernel_loss),
            "kernel.grad_s": total(kernel_grad),
            "kernel.pairs": ctr("kernel.pairs"),
            "kernel.bytes_computed": ctr("kernel.bytes_computed"),
            "particles.simulate_s": total(lambda n: n == "particles.simulate"),
            "particles.steps": ctr("particles.steps"),
            "particles.self_s": total(lambda n: layer(n) == "particles", self_t),
            "autoencoder.train_s": total(lambda n: n == "autoencoder.train"),
            "autoencoder.opt_steps": ctr("autoencoder.opt_steps"),
            "autoencoder.loss_grad_s": total(lambda n: n == "autoencoder.total_loss_gradients"),
            "autoencoder.forward_s": total(lambda n: n == "autoencoder.DenseNet.forward"),
            "autoencoder.backward_s": total(lambda n: n == "autoencoder.DenseNet.backward"),
            "autoencoder.train_self_s": total(lambda n: n == "autoencoder.train", self_t),
            "autoencoder.checkpoint_s": total(
                lambda n: layer(n) == "autoencoder" and "checkpoint" in fn(n)),
            "datasets.load_s": float(dur[mask(lambda n: layer(n) == "datasets") & top].sum()),
            "datasets.items": ctr("datasets.items"),
            "analysis.spectrum_s": total(lambda n: n == "analysis.spectrum"),
            "analysis.eigh_calls": count(eigh),
            "analysis.eigh_s": total(eigh),
            "analysis.align_s": total(lambda n: n == "analysis.align"),
            "analysis.align_iters": ctr("analysis.align_iters"),
            "analysis.knn_s": total(lambda n: n == "analysis.knn_classify"),
            "analysis.knn_queries": ctr("analysis.knn_queries"),
            "analysis.sample_s": total(lambda n: n == "analysis.sample_latents"),
            "analysis.similarity_s": total(lambda n: n == "analysis.similarity_metrics"),
            "io.read_s": io_total(lambda n: fn(n).startswith("read")),
            "io.rows_read": ctr("io.rows_read"),
            "io.bytes_read": ctr("io.bytes_read"),
            "io.write_s": io_total(lambda n: fn(n).startswith("write") and "manifest" not in n),
            "io.rows_written": ctr("io.rows_written"),
            "io.bytes_written": ctr("io.bytes_written"),
            "io.manifest_s": io_total(lambda n: "manifest" in fn(n) or "sha256" in fn(n)),
            "cli.calls": count(lambda n: n == "cli.run"),
            "cli.self_s": total(lambda n: layer(n) == "cli", self_t),
            "cli.nonzero_exits": ctr("cli.nonzero_exits"),
        }


def _rebind(mods, original, wrapped):
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapped


# -- counters read at span boundaries -----------------------------------------
# Each hook maps (args, kwargs, result, outermost_in_layer) to (key, value) pairs.


def _radius(args, kwargs, result, top):
    if hasattr(result, "iterations") and hasattr(result, "quadrature_points"):
        yield "radius.solve_calls", 1
        yield "radius.bisect_iters", result.iterations
        yield "radius.quad_nodes", result.quadrature_points


def _kernel(args, kwargs, result, top):
    b = _rows(args[0]) if args else None
    if b is not None:
        # computed from array sizes: one b x b float64 matrix per call
        yield "kernel.pairs", b * b
        yield "kernel.bytes_computed", 8 * b * b


def _particles(args, kwargs, result, top):
    steps = getattr(args[0], "steps", None) if args else None
    if steps is not None:
        yield "particles.steps", steps


def _train(args, kwargs, result, top):
    config, dataset = args[0], args[1]
    per_epoch = sum(1 for start in range(0, dataset.count, config.batch_size)
                    if min(config.batch_size, dataset.count - start) >= 2)
    yield "autoencoder.opt_steps", config.epochs * per_epoch


def _datasets(args, kwargs, result, top):
    if top and hasattr(result, "count"):
        yield "datasets.items", result.count


def _align(args, kwargs, result, top):
    yield "analysis.align_iters", result.iterations


def _knn(args, kwargs, result, top):
    test = args[2] if len(args) > 2 else kwargs["test_coords"]
    yield "analysis.knn_queries", np.shape(test)[0]


def _io_read(args, kwargs, result, top):
    if top:
        yield "io.rows_read", result[0].shape[0]
        yield "io.bytes_read", os.path.getsize(args[0])


def _io_write(args, kwargs, result, top):
    if not top:
        return
    yield "io.bytes_written", os.path.getsize(args[0])
    if len(args) > 2 and hasattr(args[2], "__len__"):  # write_csv(path, header, rows)
        yield "io.rows_written", len(args[2])
    elif len(args) > 1 and _rows(args[1]) is not None:  # write_embedding_csv(path, coords)
        yield "io.rows_written", _rows(args[1])


def _cli(args, kwargs, result, top):
    if result != 0:
        yield "cli.nonzero_exits", 1


def _hook_for(name: str):
    layer, _, fn = name.partition(".")
    if layer == "radius":
        return _radius
    if layer == "kernel":
        return _kernel
    if name == "particles.simulate":
        return _particles
    if name == "autoencoder.train":
        return _train
    if layer == "datasets":
        return _datasets
    if name == "analysis.align":
        return _align
    if name == "analysis.knn_classify":
        return _knn
    if layer == "io" and fn.startswith("read"):
        return _io_read
    if layer == "io" and fn.startswith("write") and "manifest" not in fn:
        return _io_write
    if name == "cli.run":
        return _cli
    return None
