"""Span recorder that wraps dhlab's public functions from outside the package.

No source file of dhlab is edited.  `Tracer.install` replaces every public
module-level function of the layer modules with a timing wrapper, on every
dhlab module that bound the function (``from .fock import mode_operator``
binds it again in `model`, `dhrep` and `checks`), and patches the two hot
methods `FockOperator.__matmul__` and `FockState.overlap` on their classes.
`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span, the registry dimension of
its first argument and whether it raised.  Spans are kept in memory as
columns and written out once, by `Tracer.dump`, when the run ends.  A
layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("fock", "wavepackets", "model", "dhrep", "qubits", "checks", "cli")

# Patched on the class; the span is named after the value, e.g. fock.matmul.
METHODS = (
    ("fock", "FockOperator", "__matmul__", "matmul"),
    ("fock", "FockState", "overlap", "overlap"),
)

# Functions reported one by one; every other public function counts only
# toward its module's totals.
HOT_FUNCTIONS = (
    "fock.mode_operator",
    "fock.matmul",
    "fock.overlap",
    "fock.matrix_exponential",
    "fock.operator_distance",
    "model.standard_config",
    "model.localized_spin_operator",
    "model.evolve",
    "model.build_state",
    "dhrep.build_unentangled_transform",
    "dhrep.build_entangled_transform",
    "dhrep.conjugate",
    "dhrep.field_section",
    "dhrep.locality_report",
    "dhrep.noaux_locality_report",
    "qubits.pauli_correlation",
    "qubits.pauli_expectation",
    "qubits.spin_operator",
    "qubits.evolve_qubits",
    "wavepackets.standard_layout",
)


def _dimension(args) -> int:
    """Registry dimension of the first positional argument (a registry, or
    anything with a `.registry`), else the length of an array, else 0."""
    if not args:
        return 0
    obj = args[0]
    registry = getattr(obj, "registry", obj)
    dim = getattr(registry, "dimension", None)
    if isinstance(dim, int):
        return dim
    shape = getattr(obj, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.dims = array("q")
        self.raised = array("b")
        self.nnz: dict[int, int] = {}  # span index -> nnz of the returned transform
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        dims, raised = self.dims, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            dims.append(_dimension(args))
            raised.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(idx, result)
            return result

        return wrapper

    def _record_nnz(self, idx: int, transform) -> None:
        matrix = transform.operator.matrix
        self.nnz[idx] = int(getattr(matrix, "nnz", matrix.size))

    def _build_patches(self) -> None:
        modules = {layer: sys.modules[f"dhlab.{layer}"] for layer in LAYERS}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = self._record_nnz if name == "dhrep.build_entangled_transform" else None
                wrappers[id(fn)] = (fn, self._wrap(name, fn, hook))
        dhlab_modules = [m for n, m in sys.modules.items()
                         if (n == "dhlab" or n.startswith("dhlab.")) and m is not None]
        for module in dhlab_modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value, entry[1]))
        for layer, cls_name, attr, short in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original, self._wrap(f"{layer}.{short}", original)))

    def install(self) -> None:
        """Patch every binding of the layer modules' public functions."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) of fock's annihilator-matrix cache."""
        info = sys.modules["dhlab.fock"]._annihilator_matrix.cache_info()
        return info.hits, info.misses

    # -- aggregation ---------------------------------------------------------

    def summarize(self, first: int) -> dict:
        """Per-layer and per-function figures for the spans from index
        `first` on, which must all descend from spans recorded after it."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * (n - first)
        for i in range(first, n):
            p = parents[i]
            if p >= first:
                covered[p - first] += ends[i] - starts[i]
        by_name: dict[str, list] = {}  # name -> [calls, self_s, errors, max_dim]
        nnz = 0
        for i in range(first, n):
            name = self.names[self.name_ids[i]]
            entry = by_name.setdefault(name, [0, 0.0, 0, 0])
            entry[0] += 1
            entry[1] += (ends[i] - starts[i]) - covered[i - first]
            entry[2] += self.raised[i]
            entry[3] = max(entry[3], self.dims[i])
            if i in self.nnz:
                nnz = max(nnz, self.nnz[i])
        layers = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for name, (calls, self_s, errors, _dim) in by_name.items():
            agg = layers[name.split(".", 1)[0]]
            agg["calls"] += calls
            agg["self_s"] += self_s
            agg["errors"] += errors
        functions = {
            name: {"calls": by_name.get(name, [0])[0],
                   "self_s": by_name.get(name, [0, 0.0])[1]}
            for name in HOT_FUNCTIONS
        }
        dims = sorted({self.dims[i] for i in range(first, n)} - {0})
        return {
            "layers": layers,
            "functions": functions,
            "matrix_exponential_max_dim": by_name.get("fock.matrix_exponential", [0, 0, 0, 0])[3],
            "entangled_transform_nnz": nnz,
            "dimensions": dims,
        }

    def dump(self, path: str) -> None:
        """Write every span recorded so far: one JSON header line naming the
        columns, then each column's raw machine-order bytes in that order."""
        columns = (("name_id", self.name_ids), ("parent", self.parents),
                   ("start", self.starts), ("end", self.ends),
                   ("dimension", self.dims), ("raised", self.raised))
        header = {
            "count": len(self),
            "names": self.names,
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "byteorder": sys.byteorder,
            "nnz": {str(k): v for k, v in self.nnz.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _name, col in columns:
                col.tofile(fh)


def load_spans(path: str) -> dict:
    """Read a file written by `Tracer.dump` back into named columns."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, typecode, _itemsize in header["columns"]:
            col = array(typecode)
            col.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            columns[name] = col
    return {"names": header["names"], "nnz": header["nnz"], **columns}
