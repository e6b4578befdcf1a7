"""In-memory call spans around the richardson package's public functions.

``Tracer.install`` replaces module attributes of the package with timing
wrappers.  Every module that holds the same function object is patched
(``solver.newton_core``, ``critical.newton_core`` and
``continuation.newton_core`` are one function reached through three
attributes), so every call that goes through a module attribute records a
span: name, start, end, parent span and thread.  ``uninstall`` puts the
original functions back; nothing in the package itself changes.

Spans opened by a thread that has no open span of its own (the CLI's scan
pool) take as parent the innermost open span of the thread that installed
the tracer, so the pool's work is charged to the command that waits on it.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter


def _newton_summary(result):
    _, converged, iterations, _ = result
    return bool(converged), int(iterations)


def _sweep_summary(path):
    return len(path.samples), len(path.crossings), path.status


# span name -> (module, attribute, summary of the return value or None).
# The summaries keep only small values, never arrays, so that hundreds of
# thousands of spans fit in memory.
TARGETS = {
    "kernels.residuals": ("richardson._kernels", "residuals", None),
    "kernels.jacobian": ("richardson._kernels", "jacobian", None),
    "kernels.pn_sums": ("richardson._kernels", "pn_sums", None),
    "solver.newton_core": ("richardson.solver", "newton_core",
                           _newton_summary),
    "solver.symmetrize_conjugate": ("richardson.solver",
                                    "symmetrize_conjugate", None),
    "solver.find_poles": ("richardson.solver", "find_poles", None),
    "cluster.pn_coefficients": ("richardson.cluster", "pn_coefficients",
                                None),
    "cluster.scaled_determinant": ("richardson.cluster",
                                   "scaled_determinant", None),
    "cluster.invert_power_sums": ("richardson.cluster", "invert_power_sums",
                                  None),
    "critical.scan_critical": ("richardson.critical", "scan_critical", len),
    "tangent.solve_tangent": ("richardson.tangent", "solve_tangent", None),
    "tangent.linear_guess": ("richardson.tangent", "linear_guess", None),
    "continuation.sweep": ("richardson.continuation", "sweep",
                           _sweep_summary),
    "continuation.restart_solve": ("richardson.continuation",
                                   "restart_solve", None),
    "oracle.pair_basis": ("richardson.oracle", "pair_basis", len),
    "oracle.hamiltonian": ("richardson.oracle", "hamiltonian", None),
    "oracle.exact_spectrum": ("richardson.oracle", "exact_spectrum", None),
    "cli.main": ("richardson.cli", "main", None),
    "model.lattice_energies": ("richardson.model", "lattice_energies", None),
    "model.build_lattice_model": ("richardson.model", "build_lattice_model",
                                  None),
    "model.merge_levels": ("richardson.model", "merge_levels", None),
    "model.as_occupation": ("richardson.model", "as_occupation", None),
    "model.ground_occupation": ("richardson.model", "ground_occupation",
                                None),
    "model.excited_occupations": ("richardson.model", "excited_occupations",
                                  None),
    "model.save_problem": ("richardson.model", "save_problem", None),
    "model.load_problem": ("richardson.model", "load_problem", None),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "kids",
                 "result", "error")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.kids = []
        self.result = None
        self.error = None
        self.start = self.end = 0.0


class Tracer:
    """Records spans while installed; ``spans`` lists them in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._home_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, summary):
        spans = self.spans
        home = self._home_stack
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (home[-1] if home else None)
            span = Span(name, parent, threading.get_ident())
            if parent is not None:
                parent.kids.append(span)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if summary is not None:
                span.result = summary(result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Patch every package attribute bound to a traced function."""
        self._local.stack = self._home_stack
        modules = [m for n, m in list(sys.modules.items())
                   if n == "richardson" or n.startswith("richardson.")]
        for name, (mod_name, attr, summary) in TARGETS.items():
            func = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, func, summary)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is func:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, func))

    def uninstall(self):
        for mod, key, func in reversed(self._patches):
            setattr(mod, key, func)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _covered(span):
    """Length of the union of the child spans' intervals inside the span."""
    total, reach = 0.0, span.start
    for lo, hi in sorted((k.start, k.end) for k in span.kids):
        lo, hi = max(lo, reach), min(hi, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _ancestor(span, names):
    """Nearest ancestor whose name is in ``names``, or None."""
    cur = span.parent
    while cur is not None:
        if cur.name in names:
            return cur
        cur = cur.parent
    return None


def layer_metrics(spans, warnings_seen) -> tuple[dict, dict]:
    """Per-layer (counts, times) of one traced pass.

    Counts repeat exactly from run to run; times do not.  Self time is a
    span's duration minus the part covered by its children, so a function
    that recurses (``scan_critical`` splits ranges that straddle 0) is not
    counted twice.
    """
    calls = Counter()
    self_s = Counter()
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += (span.end - span.start) - _covered(span)

    newton = [s for s in spans if s.name == "solver.newton_core"]
    converged = sum(1 for s in newton if s.result and s.result[0])
    scans = [s for s in spans if s.name == "critical.scan_critical"]
    outer_scans = [s for s in scans
                   if _ancestor(s, {"critical.scan_critical"}) is None]
    sweeps = [s for s in spans if s.name == "continuation.sweep"]
    sweep_results = [s.result for s in sweeps if s.result is not None]
    restarts = [s for s in spans if s.name == "continuation.restart_solve"]

    scan_s = restart_s = 0.0
    for s in outer_scans:
        if _ancestor(s, {"continuation.sweep"}) is not None:
            scan_s += s.end - s.start
    for s in restarts:
        if _ancestor(s, {"continuation.sweep"}) is not None:
            restart_s += s.end - s.start
    sweep_s = sum(s.end - s.start for s in sweeps)

    mains = [s for s in spans if s.name == "cli.main"]
    main_s = sum(s.end - s.start for s in mains)
    main_scan_s = sum(s.end - s.start for s in outer_scans
                      if _ancestor(s, {"cli.main"}) is not None)

    truncated = sum(1 for m in warnings_seen
                    if m.startswith("TruncatedScanWarning: scan truncated"))
    spurious = sum(1 for m in warnings_seen
                   if m.startswith("TruncatedScanWarning: skipping spurious"))
    runtime = sum(1 for m in warnings_seen if m.startswith("RuntimeWarning"))

    counts = {
        "kernels.residuals.calls": calls["kernels.residuals"],
        "kernels.jacobian.calls": calls["kernels.jacobian"],
        "kernels.pn_sums.calls": calls["kernels.pn_sums"],
        "solver.newton_core.calls": len(newton),
        "solver.newton_core.iterations": sum(s.result[1] for s in newton
                                             if s.result),
        "solver.newton_core.converged_frac":
            converged / len(newton) if newton else 0.0,
        "solver.symmetrize_conjugate.calls":
            calls["solver.symmetrize_conjugate"],
        "solver.find_poles.calls": calls["solver.find_poles"],
        "solver.runtime_warnings": runtime,
        "cluster.pn_coefficients.calls": calls["cluster.pn_coefficients"],
        "cluster.invert_power_sums.calls": calls["cluster.invert_power_sums"],
        "critical.scan_critical.calls": len(scans),
        "critical.det_evals": calls["cluster.scaled_determinant"],
        "critical.points": sum(s.result for s in outer_scans
                               if s.result is not None),
        "critical.spurious_brackets": spurious,
        "critical.truncated_scans": truncated,
        "tangent.solve_tangent.calls": calls["tangent.solve_tangent"],
        "tangent.linear_guess.calls": calls["tangent.linear_guess"],
        "continuation.sweep.calls": len(sweeps),
        "continuation.restart_solve.calls": len(restarts),
        "continuation.restart_solve.newton_calls": sum(
            1 for s in newton
            if _ancestor(s, {"continuation.restart_solve"}) is not None),
        "continuation.samples": sum(r[0] for r in sweep_results),
        "continuation.crossings": sum(r[1] for r in sweep_results),
        "continuation.truncated": sum(1 for r in sweep_results
                                      if r[2] != "completed"),
        "oracle.pair_basis.calls": calls["oracle.pair_basis"],
        "oracle.basis_states": sum(s.result for s in spans
                                   if s.name == "oracle.pair_basis"
                                   and s.result is not None),
        "oracle.guard_rejections": sum(
            1 for s in spans if s.name == "oracle.hamiltonian"
            and s.error == "OracleDimensionError"),
        "cli.main.calls": len(mains),
    }
    times = {
        "kernels.residuals.self_s": self_s["kernels.residuals"],
        "kernels.jacobian.self_s": self_s["kernels.jacobian"],
        "kernels.pn_sums.self_s": self_s["kernels.pn_sums"],
        "solver.newton_core.self_s": self_s["solver.newton_core"],
        "solver.symmetrize_conjugate.self_s":
            self_s["solver.symmetrize_conjugate"],
        "solver.find_poles.self_s": self_s["solver.find_poles"],
        "cluster.pn_coefficients.self_s": self_s["cluster.pn_coefficients"],
        "cluster.scaled_determinant.self_s":
            self_s["cluster.scaled_determinant"],
        "cluster.invert_power_sums.self_s":
            self_s["cluster.invert_power_sums"],
        "critical.scan_critical.self_s": self_s["critical.scan_critical"],
        "tangent.solve_tangent.self_s": self_s["tangent.solve_tangent"],
        "tangent.linear_guess.self_s": self_s["tangent.linear_guess"],
        "continuation.sweep.scan_s": scan_s,
        "continuation.sweep.walk_s": sweep_s - scan_s - restart_s,
        "continuation.restart_solve.self_s":
            self_s["continuation.restart_solve"],
        "oracle.pair_basis.self_s": self_s["oracle.pair_basis"],
        "oracle.hamiltonian.self_s": self_s["oracle.hamiltonian"],
        "oracle.exact_spectrum.self_s": self_s["oracle.exact_spectrum"],
        "model.self_s": sum(v for k, v in self_s.items()
                            if k.startswith("model.")),
        "cli.main.self_s": self_s["cli.main"],
        "cli.scan_concurrency": main_scan_s / main_s if main_s else 0.0,
    }
    return counts, times
