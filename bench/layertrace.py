"""Per-layer tracing of wpptoric, installed from outside the package.

A layer is one module of the package.  `install` wraps every public
function a layer defines, rebinding each in every `wpptoric.*` namespace
that holds the same object (modules use `from .x import f`), and wraps
the methods of `Cyclotomic`, `KClass` and `Series`.  A wrapper keeps a
stack of open frames; when a frame closes, its duration goes to its
parent's child time, and its self time (duration minus child time) to
the function and to the layer.  The self times of all frames therefore
add up exactly to the time inside the outermost frames.

Calls into leaf arithmetic (all of `exact_arith`, the class operators and
`color_count`) are only aggregated; every other call is also kept as a
span (id, name, start, end, parent id, request id) and written out by
`write_spans` at the end of a run.

A function that calls itself through its module global (the recursive,
cached `g_power` and `cyclotomic_poly`) is not rebound in its own module,
so the wrapper adds no frame per recursion level and the recursion depth
at which it fails stays what it is untraced.  Its calls and hit ratio
come from `cache_info()`, which counts every level.
"""

import inspect
import sys
import time
import types

LAYERS = ("cli", "exact_arith", "kgroup", "inertia", "hilbert", "partitions", "rank2",
          "sheaf_model")
CLASSES = {"exact_arith": ("Cyclotomic",), "kgroup": ("KClass",), "partitions": ("Series",)}
LEAF_FUNCTIONS = {"partitions.color_count"}


def _short(name):
    return name[2:-2] if name.startswith("__") and name.endswith("__") else name


class Tracer:
    """Self time, call counts and spans of the wrapped functions."""

    def __init__(self):
        self.stack = []
        self.functions = {}  # qualified name -> [calls, self_s]
        self.layers = {layer: [0, 0.0] for layer in LAYERS}  # -> [entries, self_s]
        self.spans = []
        self.request = -1
        self.cached = {}  # qualified name -> lru_cache wrapper
        self.root_s = 0.0  # time inside outermost frames
        self._next_id = 0

    def _wrap(self, fn, name, layer, leaf):
        stats = self.functions.setdefault(name, [0, 0.0])
        layer_stats = self.layers[layer]
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def enter():
            parent = stack[-1] if stack else None
            if parent is None or parent[1] != layer:
                layer_stats[0] += 1
            self._next_id += 1
            frame = [self._next_id, layer, 0.0, parent, clock()]
            stack.append(frame)
            return frame

        def leave(frame):
            end = clock()
            if stack and stack[-1] is frame:  # a RecursionError may skip a pop
                stack.pop()
            duration = end - frame[4]
            own = duration - frame[2]
            stats[1] += own
            layer_stats[1] += own
            parent = frame[3]
            if parent is not None:
                parent[2] += duration
            else:
                self.root_s += duration
            if not leaf:
                spans.append((frame[0], name, frame[4], end,
                              parent[0] if parent else 0, self.request))

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                stats[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield value
        else:
            def wrapper(*args, **kwargs):
                stats[0] += 1
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
        return wrapper

    def install(self, package_modules):
        """Wrap the layers' public functions and class methods in place."""
        for layer in LAYERS:
            module = package_modules[f"wpptoric.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.cached[name] = obj
                leaf = layer == "exact_arith" or name in LEAF_FUNCTIONS
                wrapper = self._wrap(obj, name, layer, leaf)
                code = getattr(obj, "__wrapped__", obj).__code__
                recursive = attr in code.co_names
                for other in package_modules.values():
                    if recursive and other is module:
                        continue
                    for key, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, key, wrapper)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    static = isinstance(obj, staticmethod)
                    fn = obj.__func__ if static else obj
                    if attr == "__repr__" or not isinstance(fn, types.FunctionType):
                        continue
                    # __radd__ = __add__ and the like share their statistics
                    name = f"{layer}.{cls_name}.{_short(fn.__name__)}"
                    wrapper = self._wrap(fn, name, layer, True)
                    setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def start_request(self, request):
        self.request = request
        self.stack.clear()

    def metrics(self):
        """Per-layer and per-function figures of everything traced so far."""
        out = {"root_s": self.root_s}
        for layer, (entries, own) in self.layers.items():
            out[f"{layer}.calls"] = entries
            out[f"{layer}.self_s"] = own
        for name, (calls, own) in self.functions.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        for name, fn in self.cached.items():
            info = fn.cache_info()
            total = info.hits + info.misses
            out[f"{name}.calls"] = total
            out[f"{name}.hit_ratio"] = info.hits / total if total else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\trequest\n")
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % span)


def install():
    """Create a tracer and wrap the already imported wpptoric modules."""
    package_modules = {name: mod for name, mod in sys.modules.items()
                       if name == "wpptoric" or name.startswith("wpptoric.")}
    tracer = Tracer()
    tracer.install(package_modules)
    return tracer
