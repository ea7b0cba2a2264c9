"""Span tracing of the program's public calls, from outside the program.

A Tracer replaces each target callable with a wrapper in every module of the
package that holds it, so calls made through a ``from .x import y`` name are
caught as well as calls through the defining module.  Spans are kept in
memory as [name, start, end, parent] and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (defining module, attribute, span name).  A dotted attribute names a
# classmethod on a class of that module.
TARGETS = (
    ("tensor", "Tensor3.from_unfolding", "tensor.from_unfolding"),
    ("tensor", "check_stochastic", "tensor.check_stochastic"),
    ("tensor", "apply_quadratic", "tensor.apply_quadratic"),
    ("tensor", "contract_left", "tensor.contract_left"),
    ("tensor", "contract_right", "tensor.contract_right"),
    ("mmatrix", "gth_factor", "mmatrix.gth_factor"),
    ("mmatrix", "gth_solve", "mmatrix.gth_solve"),
    ("mmatrix", "plain_lu_solve", "mmatrix.plain_lu_solve"),
    ("solvers", "solve", "solvers.solve"),
    ("ingest", "read_matrix_market", "ingest.read_matrix_market"),
    ("ingest", "three_cycle_tensor", "ingest.three_cycle_tensor"),
    ("ingest", "build_pagerank_tensor", "ingest.build_pagerank_tensor"),
    ("precision", "reference_solution", "precision.reference_solution"),
    ("precision", "dd_apply_quadratic", "precision.dd_apply_quadratic"),
    ("precision", "dd_contract_left", "precision.dd_contract_left"),
    ("precision", "dd_contract_right", "precision.dd_contract_right"),
    ("precision", "dd_gth_factor", "precision.dd_gth_factor"),
    ("precision", "dd_gth_solve", "precision.dd_gth_solve"),
    ("precision", "dd_lu_solve", "precision.dd_lu_solve"),
    ("analysis", "compute_y", "analysis.compute_y"),
    ("analysis", "omega", "analysis.omega"),
    ("analysis", "componentwise_zero_sum_perturb", "analysis.perturb"),
    ("analysis", "zero_sum_perturb", "analysis.perturb"),
    ("cli", "main", "cli.main"),
)


def _cli_span_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


class Tracer:
    """Installs span-recording wrappers; uninstall() restores the originals."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        label = _cli_span_name if name == "cli.main" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([label(args, kwargs) if label else name, clock(), None, parent])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        prefix = self.package.__name__
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == prefix or k.startswith(prefix + "."))]
        for mod_name, attr, span in TARGETS:
            home = getattr(self.package, mod_name, None)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, object)
                original = vars(cls).get(meth)
                if isinstance(original, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(original.__func__, span)))
                continue
            fn = home.__dict__.get(attr)
            if fn is None:
                continue
            traced = self._wrap(fn, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """JSON lines: a header, then [name, start_s, end_s, parent index] per span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["name", "start_s", "end_s", "parent"]\n')
            for name, start, end, parent in self.spans:
                row = [name, round(start - t0, 7), round(end - t0, 7), parent]
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def inside(spans, name):
    """Flags the spans that are `name` or descend from one."""
    flags = []
    for span_name, _, _, parent in spans:
        flags.append(span_name == name or (parent >= 0 and flags[parent]))
    return flags
