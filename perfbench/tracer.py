"""Traced mode: spans and counts at the public entry points of each layer.

The wrappers are installed from the benchmark's files and removed again, so
nothing in src/ changes.  Three kinds of wrapper, by how often the entry
point runs:

- SPAN: coarse entry points (thousands of calls per run).  Each call leaves
  a span (name, start, end, parent, run id) in memory; spans are written out
  after the run.
- HOT: scalar constructors and the evaluator (millions of calls).  These
  keep only aggregate calls and self time, because a span per call would
  cost more memory than the run being measured.
- COUNT: constructors whose number is the signal; calls only.

Self time is a call's duration minus the time of the wrapped calls nested in
it.  Busy time is the time at least one call of the group was running, so a
recursive or mutually nested group is not counted twice.  The tracer's own
classification of each QRational (the gcd-path count) is timed and taken out
of the self and busy time of every call it runs inside.  rootsys runs
inside the root-vector builders and is folded into rootvectors.build.
"""

from __future__ import annotations

import importlib
import sys
import time

SPAN, HOT, COUNT = "span", "hot", "count"

# (module, class or None, attribute, group, kind)
ENTRY_POINTS = (
    ("exactfield", "QRational", "__init__", "exactfield.qrational", HOT),
    ("exactfield", "URational", "__init__", "exactfield.urational", HOT),
    ("exactfield", "URational", "expand", "exactfield.expand", SPAN),
    ("fock", "FockState", "__init__", "fock.state", COUNT),
    ("borelrep", "Evaluator", "apply_basis", "borelrep.apply", HOT),
    ("borelrep", "OpExpr", "__init__", "rootvectors.node", COUNT),
    ("rootvectors", None, "qcomm", "rootvectors.build", SPAN),
    ("rootvectors", None, "e_real", "rootvectors.build", SPAN),
    ("rootvectors", None, "e_dual", "rootvectors.build", SPAN),
    ("rootvectors", None, "e_prime_imag", "rootvectors.build", SPAN),
    ("rootvectors", None, "e_unprimed_imag", "rootvectors.build", SPAN),
    ("rootvectors", None, "xi_plus", "rootvectors.build", SPAN),
    ("rootvectors", None, "xi_minus", "rootvectors.build", SPAN),
    ("rootvectors", None, "chi", "rootvectors.build", SPAN),
    ("rootvectors", None, "drinfeld_check", "rootvectors.check", SPAN),
    ("rootvectors", None, "drinfeld_check_minus", "rootvectors.check", SPAN),
    ("lweights", None, "verify_grid", "lweights.verify_grid", SPAN),
    ("lweights", None, "phi_series", "lweights.phi_series", SPAN),
    ("lweights", None, "closed_psi", "lweights.closed_psi", SPAN),
    ("lweights", None, "lweight_product", "lweights.lweight_product", SPAN),
    ("lweights", None, "factor_check", "lweights.factor_check", SPAN),
    ("cli", None, "main", "cli.main", SPAN),
)

# per-layer metric -> (unit, better); the order is the report's order
LAYER_METRICS = {
    "exactfield.qrational_new": ("count", "lower"),
    "exactfield.qrational_self_s": ("s", "lower"),
    "exactfield.qrational_gcd_path": ("count", "lower"),
    "exactfield.qrational_gcd_useful_ratio": ("ratio", "higher"),
    "exactfield.urational_new": ("count", "lower"),
    "exactfield.urational_self_s": ("s", "lower"),
    "exactfield.expand_calls": ("count", "lower"),
    "exactfield.expand_self_s": ("s", "lower"),
    "fock.state_new": ("count", "lower"),
    "borelrep.apply_calls": ("count", "lower"),
    "borelrep.cache_entries": ("count", "lower"),
    "borelrep.cache_hit_ratio": ("ratio", "higher"),
    "borelrep.apply_self_s": ("s", "lower"),
    "rootvectors.nodes_built": ("count", "lower"),
    "rootvectors.build_s": ("s", "lower"),
    "rootvectors.check_busy_s": ("s", "lower"),
    "lweights.phi_series_busy_s": ("s", "lower"),
    "lweights.closed_psi_busy_s": ("s", "lower"),
    "lweights.lweight_product_busy_s": ("s", "lower"),
    "cli.traced_wall_s": ("s", "lower"),
    "cli.trace_overhead_ratio": ("ratio", "lower"),
}

# metrics that repeat exactly between runs at one seed
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit == "count") + (
    "exactfield.qrational_gcd_useful_ratio", "borelrep.cache_hit_ratio")


class Stat:
    __slots__ = ("calls", "self_s", "busy_s", "depth", "hits", "gcd_path", "useful")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.depth = 0
        self.hits = 0      # evaluator memo hits
        self.gcd_path = 0  # QRational calls that reach the polynomial gcd
        self.useful = 0    # ... and cancel a non-constant factor there


class Tracer:
    """Wraps the entry points in ENTRY_POINTS while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {group: Stat() for _, _, _, group, _ in ENTRY_POINTS}
        self.spans = []
        self._frames = [[0.0]]   # child time of each open call; [0] is the root
        self._overhead = [0.0]   # time spent classifying QRationals so far
        self._open_spans = []    # ids of the open spans, innermost last
        self._patched = []       # (owner, attribute, original)

    # -- wrappers

    def _span(self, name, fn, st):
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        overhead, clock = self._overhead, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            sid = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(sid)
            st.depth += 1
            o0 = overhead[0]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                frames[-1][0] += dt
                open_spans.pop()
                spans[sid] = (name, t0, t1, parent)
                st.calls += 1
                st.self_s += dt - frame[0]
                st.depth -= 1
                if not st.depth:
                    st.busy_s += dt - (overhead[0] - o0)
        return wrapper

    def _hot(self, fn, st):
        frames, clock = self._frames, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                frames[-1][0] += dt
                st.calls += 1
                st.self_s += dt - frame[0]
        return wrapper

    def _qrational_init(self, fn, st):
        frames, overhead, clock = self._frames, self._overhead, time.perf_counter
        timed = self._hot(fn, st)
        classify = self._gcd_classifier(st)

        def wrapper(obj, num, den=(1,)):
            timed(obj, num, den)
            t0 = clock()
            classify(obj, num, den)
            dt = clock() - t0
            # tracer work: the enclosing call's self time, and every open
            # span's busy time, leave it out
            frames[-1][0] += dt
            overhead[0] += dt
        return wrapper

    @staticmethod
    def _gcd_classifier(st):
        from qloop.exactfield import _ptrim, _pterms, _pval

        def classify(obj, num, den):
            # the gcd path: both sides keep >= 2 terms after the q-power strip
            # (stripping q-powers never changes the number of terms)
            n = _ptrim((num,) if isinstance(num, int) else num)
            d = _ptrim((den,) if isinstance(den, int) else den)
            if _pterms(n) > 1 and _pterms(d) > 1:
                st.gcd_path += 1
                # a cancelled factor of degree >= 1 shortens the numerator;
                # content and sign normalization never change its length
                if len(obj.num) < len(n) - min(_pval(n), _pval(d)):
                    st.useful += 1
        return classify

    def _apply_basis(self, fn, st):
        timed = self._hot(fn, st)

        def wrapper(ev, expr, m):
            before = len(ev._cache)
            out = timed(ev, expr, m)
            if len(ev._cache) == before:
                st.hits += 1
            return out
        return wrapper

    def _count(self, fn, st):
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname, *_ in ENTRY_POINTS:
            importlib.import_module(f"qloop.{modname}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "qloop" or name.startswith("qloop.")) and m is not None]
        for modname, clsname, attr, group, kind in ENTRY_POINTS:
            module = sys.modules[f"qloop.{modname}"]
            st = self.stats[group]
            if clsname is not None:
                owner = getattr(module, clsname)
                orig = vars(owner)[attr]
            else:
                orig = getattr(module, attr)
            if (clsname, attr) == ("QRational", "__init__"):
                wrapped = self._qrational_init(orig, st)
            elif (clsname, attr) == ("Evaluator", "apply_basis"):
                wrapped = self._apply_basis(orig, st)
            elif kind == HOT:
                wrapped = self._hot(orig, st)
            elif kind == COUNT:
                wrapped = self._count(orig, st)
            else:
                wrapped = self._span(f"{module.__name__}.{attr}", orig, st)
            if clsname is not None:
                self._patch(owner, attr, orig, wrapped)
                continue
            # a function is bound in every module that imported it by name
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced run (trace overhead excepted)."""
        from qloop.borelrep import _EVALUATORS
        s = self.stats
        qr, ev = s["exactfield.qrational"], s["borelrep.apply"]
        return {
            "exactfield.qrational_new": qr.calls,
            "exactfield.qrational_self_s": qr.self_s,
            "exactfield.qrational_gcd_path": qr.gcd_path,
            "exactfield.qrational_gcd_useful_ratio": _ratio(qr.useful, qr.gcd_path),
            "exactfield.urational_new": s["exactfield.urational"].calls,
            "exactfield.urational_self_s": s["exactfield.urational"].self_s,
            "exactfield.expand_calls": s["exactfield.expand"].calls,
            "exactfield.expand_self_s": s["exactfield.expand"].self_s,
            "fock.state_new": s["fock.state"].calls,
            "borelrep.apply_calls": ev.calls,
            "borelrep.cache_entries": sum(len(e._cache) for e in _EVALUATORS.values()),
            "borelrep.cache_hit_ratio": _ratio(ev.hits, ev.calls),
            "borelrep.apply_self_s": ev.self_s,
            "rootvectors.nodes_built": s["rootvectors.node"].calls,
            "rootvectors.build_s": s["rootvectors.build"].busy_s,
            "rootvectors.check_busy_s": s["rootvectors.check"].busy_s,
            "lweights.phi_series_busy_s": s["lweights.phi_series"].busy_s,
            "lweights.closed_psi_busy_s": s["lweights.closed_psi"].busy_s,
            "lweights.lweight_product_busy_s": s["lweights.lweight_product"].busy_s,
            "cli.traced_wall_s": wall_s,
        }

    def span_records(self) -> list:
        return [[name, t0, t1, parent, self.run_id] for name, t0, t1, parent in self.spans]


def _ratio(part: int, whole: int) -> float:
    # a layer the workload never calls reports 0, not an undefined ratio
    return part / whole if whole else 0.0
