"""Spans around the public calls into each layer of ``fhn_torus``.

The tracer wraps package functions from outside: it replaces every
binding of a target function in the loaded ``fhn_torus`` modules (so
calls between modules are seen too) and restores them on uninstall.
Spans stay in memory as tuples (id, name, start, end, parent, task,
attrs) until the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _traj_attrs(traj):
    st = traj.stats
    return {"accepted": int(st["accepted"]), "rejected": int(st["rejected"])}


# (module, attribute, span name, attrs taken from the result)
TARGETS = (
    ("fhn_torus.simulate", "make_rhs", "make_rhs", None),
    ("fhn_torus.simulate", "integrate", "integrate", _traj_attrs),
    ("fhn_torus.simulate", "reduced_integrate_fix", "reduced_integrate_fix",
     _traj_attrs),
    ("fhn_torus.simulate", "Trajectory.sample", "sample", None),
    ("fhn_torus.simulate", "detect_periodic_orbit", "detect",
     lambda orbit: {"found": orbit is not None}),
    ("fhn_torus.simulate", "classify_spatiotemporal", "classify", None),
    ("fhn_torus.symmetry", "state_permutation", "state_permutation", None),
    ("fhn_torus.symmetry", "predict_hopf_symmetries", "predict_hopf_symmetries",
     None),
    ("fhn_torus.spectral", "spectrum_report", "spectrum_report", None),
    ("fhn_torus.spectral", "genericity_violations", "genericity", None),
    ("fhn_torus.bifurcation", "critical_a", "critical_a", None),
    ("fhn_torus.bifurcation", "locate_stability_loss", "locate_stability_loss",
     None),
    ("fhn_torus.bifurcation", "hopf_crossing", "hopf_crossing", None),
    ("fhn_torus.bifurcation", "hopf_report_at_critical",
     "hopf_report_at_critical", None),
    ("fhn_torus.bifurcation", "branch_criticality_probe", "probe",
     lambda res: {"runs": len(res.runs)}),
    ("fhn_torus.cli", "parse_and_dispatch", "parse_and_dispatch", None),
    ("fhn_torus.cli", "emit_report", "emit_report", None),
    ("fhn_torus._serialize", "dumps_json", "serialize", None),
    ("fhn_torus._serialize", "csv_text", "serialize", None),
)


class Tracer:
    """Records nested spans; ``task`` labels the spans that follow."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                self.spans[sid] = self.spans[sid][:6] + (attrs_of(result),)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one task."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.spans.append(None)  # reserve the id; filled in on exit
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.task, None)

    def adopt(self, spans: list, parent: int):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for d in spans:
            up = parent if d["parent"] is None else base + d["parent"]
            self.spans.append((base + d["id"], d["name"], d["start"], d["end"],
                               up, self.task, d["attrs"]))

    def install(self):
        """Wrap every target wherever the loaded package binds it."""
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "fhn_torus" or k.startswith("fhn_torus."))]
        for modname, attr, name, attrs_of in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, attrs_of))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, attrs_of)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self):
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()

    def as_dicts(self):
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "task": task, "attrs": attrs}
            for sid, name, start, end, parent, task, attrs in self.spans
        ]
