"""Span recording around mixsym's public functions, installed from outside.

The package is not instrumented: ``install`` replaces each traced function
with a wrapper in every namespace that binds it (the modules import names
directly, so ``mms.quotient_by_rows``, ``dualpair.snf`` and
``cli.build_space`` are separate bindings of one function, and
``cli.SUITES`` holds the suite functions in a dict).  Spans are kept in
memory as columns and written out once, when the job ends; ``summarize``
derives call counts, inclusive and self times from them.
"""

import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from functools import wraps
from time import perf_counter


def _snf_attrs(args, out):
    a = args[0]
    cells = len(a) * (len(a[0]) if a else 0)
    bits = max((abs(x).bit_length() for m in (out.u, out.v, out.vinv)
                for row in m for x in row), default=0)
    return {"cells": cells, "bits": bits}


def _mat_mul_attrs(args, _out):
    frac = any(isinstance(x, Fraction) for m in args for row in m for x in row)
    return {"fraction": frac}


# (module, attribute, span name, attribute extractor run after the span ends)
TARGETS = [
    ("mixsym.sl2", "enumerate_cosets", "sl2.enumerate_cosets", None),
    ("mixsym.sl2", "cusp_table", "sl2.cusp_table", None),
    ("mixsym.sl2", "CosetTable.coset_of", "sl2.coset_of", None),
    ("mixsym.zlattice", "snf", "zlattice.snf", _snf_attrs),
    ("mixsym.zlattice", "hnf", "zlattice.hnf", None),
    ("mixsym.zlattice", "solve_rational", "zlattice.solve_rational", None),
    ("mixsym.zlattice", "mat_mul", "zlattice.mat_mul", _mat_mul_attrs),
    ("mixsym.mms", "build_space", "mms.build_space", None),
    ("mixsym.mms", "reduce_pair", "mms.reduce_pair", None),
    ("mixsym.mms", "reduce_pair_rational", "mms.reduce_pair_rational", None),
    ("mixsym.mms", "space_to_dict", "mms.space_to_dict", None),
    ("mixsym.mms", "space_from_dict", "mms.space_from_dict", None),
    ("mixsym.hecke", "hecke_operator", "hecke.hecke_operator", None),
    ("mixsym.hecke", "operator_from_pair_map", "hecke.operator_from_pair_map", None),
    ("mixsym.hecke", "atkin_lehner", "hecke.atkin_lehner", None),
    ("mixsym.hecke", "diamond", "hecke.diamond", None),
    ("mixsym.hecke", "complex_conjugation", "hecke.complex_conjugation", None),
    ("mixsym.hecke", "operators_commute", "hecke.operators_commute", None),
    ("mixsym.classical", "hecke_matrix", "classical.hecke_matrix", None),
    ("mixsym.dualpair", "pairing_matrix", "dualpair.pairing_matrix", None),
    ("mixsym.dualpair", "verify_G_identity", "dualpair.verify_G_identity", None),
    ("mixsym.dualpair", "perfectness_report", "dualpair.perfectness_report", None),
    ("mixsym.dualpair", "adjointness_check", "dualpair.adjointness_check", None),
    ("mixsym.eis", "logdet_identity", "eis.logdet_identity", None),
    ("mixsym.eis", "gamma0p_constants", "eis.gamma0p_constants", None),
    ("mixsym.eis", "l_even_char_at_1", "eis.l_even_char_at_1", None),
    ("mixsym.cli", "suite_rank", "cli.suite_rank", None),
    ("mixsym.cli", "suite_manin", "cli.suite_manin", None),
    ("mixsym.cli", "suite_hecke", "cli.suite_hecke", None),
    ("mixsym.cli", "suite_pairing", "cli.suite_pairing", None),
    ("mixsym.cli", "suite_eis", "cli.suite_eis", None),
    ("mixsym.cli", "run_export", "cli.run_export", None),
    ("mixsym.cli", "run_import", "cli.run_import", None),
]


def _same_signature(fn, call):
    """A function with ``fn``'s parameter list that forwards to ``call``.

    ``cli.run_verify`` picks each suite's keyword arguments from
    ``fn.__code__.co_varnames``, so a wrapper must expose the same names.
    """
    params, args, defaults = [], [], {}
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.POSITIONAL_ONLY:
            raise TypeError(f"cannot trace {fn.__qualname__}: positional-only parameters")
        if p.kind is p.VAR_POSITIONAL:
            params.append("*" + p.name)
            args.append("*" + p.name)
            continue
        if p.kind is p.VAR_KEYWORD:
            params.append("**" + p.name)
            args.append("**" + p.name)
            continue
        if p.kind is p.KEYWORD_ONLY and not any(x.startswith("*") for x in params):
            params.append("*")
        if p.default is p.empty:
            params.append(p.name)
        else:
            defaults[p.name] = p.default
            params.append(f"{p.name}=_defaults[{p.name!r}]")
        args.append(f"{p.name}={p.name}" if p.kind is p.KEYWORD_ONLY else p.name)
    ns = {"_call": call, "_defaults": defaults}
    exec(f"def {fn.__name__}({', '.join(params)}):\n"
         f"    return _call({', '.join(args)})\n", ns)
    return wraps(fn)(ns[fn.__name__])


class Tracer:
    """In-memory span store: one row per call, with its parent span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.end[idx] = perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        """``fn`` recording one span per call; ``attrs`` runs after the span ends."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, t0)
            if attrs is not None:
                self.attrs[idx] = attrs(args, out)
            return out

        return _same_signature(fn, traced)

    @contextmanager
    def span(self, name):
        """Record one span around benchmark code."""
        idx = self._open(self._name_id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def doc(self):
        """The spans as plain lists, the form ``summarize`` reads."""
        return {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(),
                "attrs": {str(k): v for k, v in self.attrs.items()}}

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.doc(), f)


def install(tracer):
    """Wrap every target in each mixsym namespace (module or dict) binding it."""
    for mod_name, *_ in TARGETS:
        importlib.import_module(mod_name)
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "mixsym" or k.startswith("mixsym."))]
    for mod_name, attr, span_name, attrs in TARGETS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), span_name, attrs))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(orig, span_name, attrs)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                elif isinstance(val, dict):
                    for dk, dv in val.items():
                        if dv is orig:
                            val[dk] = wrapped


def summarize(doc):
    """Per-name calls, inclusive time and self time of one span dump.

    Inclusive time counts only the outermost span of each name, so a
    function reached again below itself is not counted twice.  Self time is
    the span minus its direct children (children never overlap: the traced
    code is single-threaded).
    """
    names, name, parent = doc["names"], doc["name"], doc["parent"]
    start, end = doc["start"], doc["end"]
    n = len(name)
    child_time = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    out = {}
    for i in range(n):
        rec = out.setdefault(names[name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end[i] - start[i]
        rec["calls"] += 1
        rec["self_s"] += dur - child_time[i]
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            rec["s"] += dur
    return out


def durations_under(doc, name, ancestor):
    """Durations of spans called ``name`` that lie below a span ``ancestor``."""
    names, nm, parent = doc["names"], doc["name"], doc["parent"]
    if name not in names or ancestor not in names:
        return []
    nid, aid = names.index(name), names.index(ancestor)
    out = []
    for i in range(len(nm)):
        if nm[i] != nid:
            continue
        p = parent[i]
        while p >= 0 and nm[p] != aid:
            p = parent[p]
        if p >= 0:
            out.append(doc["end"][i] - doc["start"][i])
    return out
