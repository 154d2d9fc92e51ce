"""Per-layer tracing of compalg from outside the package.

`Tracer.install()` replaces public functions and operator methods of each
compalg module with wrappers that record a span per call (name, start, end,
parent span, pass id) and bump the layer's counters.  Every binding of a
wrapped function inside any `compalg.*` module is replaced, not only the
definition, because several modules import functions by name (`moyalpos`
imports `star`, `berezin` imports `hermitian_eigenvalues`, `cli` imports
`alpha` and `poisson`).  Install before any carrier is built: `Carrier`
captures `op_sigma`/`op_alpha` when it is constructed.

A layer's self time is its span time minus the time covered by its child
spans; it is accumulated at span exit, so no pass over the spans is needed.
Spans stay in memory in flat arrays and are written out by `dump`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from array import array

LAYERS = ("phasepoly", "scalars", "algebra", "moyalpos", "hilbert", "berezin",
          "quantion", "envariance", "cli")

# layer -> public functions wrapped as spans
FUNCTIONS = {
    "phasepoly": ("nabla_power", "sigma", "alpha", "star"),
    "algebra": ("check_identity", "check_monoid", "falsify_nonzero_a"),
    "moyalpos": ("positivity_functional", "star_gp", "integrate",
                 "elliptic_control_sweep", "ghost_search"),
    "hilbert": ("op_alpha", "op_sigma", "hermitian_eig", "hermitian_eigenvalues",
                "spectral_norm", "cstar_check"),
    "berezin": ("berezin_quantize", "build_grid"),
    "quantion": ("norms_commute", "det_multiplicativity", "embedding_consistent",
                 "clifford_check", "dirac_current_check", "rep_discovery",
                 "dalembertian_factorization", "fixed_set_closed_under_mul"),
    "envariance": ("schmidt", "verify_reflexivity", "verify_symmetry",
                   "verify_transitivity", "winding_independence"),
    "cli": ("report_json",),
}
POLY_METHODS = ("__mul__", "deriv")
SCALAR_TYPES = ("SplitComplex", "ComplexRational", "DualNumber")
SCALAR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")

COUNTERS = ("term_pairs", "terms_out", "checks", "pure_tensors", "basis_coeffs",
            "functional_evals", "lattice_points", "eig_calls")
TIMERS = ("eig_s", "report_s")


class Tracer:
    """Spans and counters for one traced pass, all in memory."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_layer: list[int] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.count: dict = {}
        self.suite_s: dict[str, float] = {}
        self.suite_observed: dict[str, dict] = {}
        self.unwrapped: list[str] = []
        # mutable cell shared by all wrappers: [current span, child time]
        self._state: list = []
        self.reset()

    def reset(self):
        """Forget the spans and counts so far (the set-up's), keep the wrappers.

        Wrappers hold references to these containers, so they are cleared in
        place."""
        for col in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del col[:]
        self.calls[:] = [0] * len(LAYERS)
        self.self_s[:] = [0.0] * len(LAYERS)
        self.count.update(dict.fromkeys(COUNTERS, 0), **dict.fromkeys(TIMERS, 0.0))
        self.suite_s.update(dict.fromkeys(self.suite_s, 0.0))
        self.suite_observed.clear()
        self._state[:] = [-1, 0.0]

    # -- span recording ----------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
        return self._ids[name]

    def span(self, fn, name: str, layer: str, after=None):
        """Wrap `fn` so each call is one span of `layer`; `after(args, kwargs,
        result, seconds)` runs outside the timed interval."""
        nid = self._name_id(name, layer)
        lid = self.name_layer[nid]
        state = self._state
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent, outer_child = state
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            state[0], state[1] = sid, 0.0
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                d = t1 - t0
                self_s[lid] += d - state[1]
                calls[lid] += 1
                state[0], state[1] = parent, outer_child + d
            if after is not None:
                after(args, kwargs, result, d)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function and method of the imported compalg."""
        mods = {name: importlib.import_module(f"compalg.{name}") for name in LAYERS}
        pp = mods["phasepoly"]
        after = {
            "sigma": self._count_terms_out,
            "alpha": self._count_terms_out,
            "star": self._count_terms_out,
            "check_identity": self._count_checks,
            "check_monoid": self._count_checks,
            "positivity_functional": self._count_functional,
            "hermitian_eig": self._count_eig,
            "hermitian_eigenvalues": self._count_eig,
            "report_json": self._count_report,
        }
        for layer, fnames in FUNCTIONS.items():
            for fname in fnames:
                orig = getattr(mods[layer], fname, None)
                if orig is None:
                    self.unwrapped.append(f"{layer}.{fname}")
                    continue
                wrapped = self.span(orig, f"{layer}.{fname}", layer, after.get(fname))
                _rebind(orig, wrapped)

        poly = pp.PhasePoly
        for meth in POLY_METHODS:
            self._wrap_method(poly, meth, "phasepoly",
                              self._count_term_pairs if meth == "__mul__" else None)
        for tname in SCALAR_TYPES:
            cls = getattr(mods["scalars"], tname, None)
            if cls is None:
                self.unwrapped.append(f"scalars.{tname}")
                continue
            for meth in SCALAR_METHODS:
                self._wrap_method(cls, meth, "scalars")

        self._hook_compose(mods["algebra"])
        self._hook_lattice(mods["moyalpos"])
        self._hook_suites(mods["cli"])

    def _wrap_method(self, cls, meth: str, layer: str, after=None):
        owner = next((k for k in cls.__mro__ if meth in vars(k)), None)
        if owner is None:
            self.unwrapped.append(f"{layer}.{cls.__name__}.{meth}")
            return
        orig = vars(owner)[meth]
        if hasattr(orig, "__wrapped__"):
            return  # shared base class, wrapped through a sibling type
        setattr(owner, meth, self.span(orig, f"{layer}.{owner.__name__}.{meth}", layer, after))

    def _hook_compose(self, algebra):
        """Composite carriers: products become algebra spans, and decompose
        counts the pure tensors it expands and the coefficients it returns."""
        orig = getattr(algebra, "compose_bipartite", None)
        if orig is None:
            self.unwrapped.append("algebra.compose_bipartite")
            return
        count = self.count

        def counted_decompose(decompose):
            def run(x):
                out = decompose(x)
                count["pure_tensors"] += len(x)
                count["basis_coeffs"] += len(out)
                return out
            return run

        def compose(*args, **kwargs):
            c = orig(*args, **kwargs)
            return dataclasses.replace(
                c,
                sigma=self.span(c.sigma, "algebra.composite.sigma", "algebra"),
                alpha=self.span(c.alpha, "algebra.composite.alpha", "algebra"),
                decompose=counted_decompose(c.decompose),
            )

        compose.__wrapped__ = orig
        _rebind(orig, compose)

    def _hook_lattice(self, moyalpos):
        orig = getattr(moyalpos, "lattice_points", None)
        if orig is None:
            self.unwrapped.append("moyalpos.lattice_points")
            return
        count = self.count

        def lattice_points(*args, **kwargs):
            for point in orig(*args, **kwargs):
                count["lattice_points"] += 1
                yield point

        lattice_points.__wrapped__ = orig
        _rebind(orig, lattice_points)

    def _hook_suites(self, cli):
        """Each suite runner becomes a cli span; the tuples it sends through
        check_identity/check_monoid and its positivity_functional calls are
        recorded per suite."""
        suites = getattr(cli, "SUITES", None)
        if suites is None:
            self.unwrapped.append("cli.SUITES")
            return
        for name, entry in list(suites.items()):
            self.suite_s[name] = 0.0
            runner = entry[0]
            suites[name] = (self._suite_runner(name, runner),) + tuple(entry[1:])

    def _suite_runner(self, name: str, runner):
        count = self.count
        before = {}

        def record(args, kwargs, result, seconds):
            self.suite_s[name] += seconds
            self.suite_observed[name] = {
                "tuples": count["checks"] - before["checks"],
                "functional_evals": count["functional_evals"] - before["evals"],
            }

        timed = self.span(runner, f"cli.suite.{name}", "cli", record)

        def run(*args, **kwargs):
            before["checks"], before["evals"] = count["checks"], count["functional_evals"]
            return timed(*args, **kwargs)

        return run

    # -- counters (run outside the timed span) -----------------------------

    def _count_term_pairs(self, args, kwargs, result, seconds):
        f, g = args
        if isinstance(g, type(f)):
            self.count["term_pairs"] += len(f.terms) * len(g.terms)

    def _count_terms_out(self, args, kwargs, result, seconds):
        self.count["terms_out"] += len(result.terms)

    def _count_checks(self, args, kwargs, result, seconds):
        self.count["checks"] += result.samples

    def _count_functional(self, args, kwargs, result, seconds):
        self.count["functional_evals"] += 1

    def _count_eig(self, args, kwargs, result, seconds):
        self.count["eig_calls"] += 1
        self.count["eig_s"] += seconds

    def _count_report(self, args, kwargs, result, seconds):
        self.count["report_s"] += seconds

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this pass, keyed by BENCHMARK.json name."""
        c = self.count
        m = {}
        for i, layer in enumerate(LAYERS):
            m[f"{layer}.calls"] = self.calls[i]
            m[f"{layer}.self_s"] = self.self_s[i]
        m["phasepoly.term_pairs"] = c["term_pairs"]
        m["phasepoly.terms_out"] = c["terms_out"]
        m["phasepoly.yield"] = _ratio(c["terms_out"], c["term_pairs"])
        m["algebra.checks"] = c["checks"]
        m["algebra.pure_tensors"] = c["pure_tensors"]
        m["algebra.basis_coeffs"] = c["basis_coeffs"]
        m["algebra.tensor_yield"] = _ratio(c["basis_coeffs"], c["pure_tensors"])
        m["moyalpos.functional_evals"] = c["functional_evals"]
        m["moyalpos.lattice_points"] = c["lattice_points"]
        m["moyalpos.eval_ratio"] = _ratio(c["functional_evals"], c["lattice_points"])
        m["hilbert.eig_calls"] = c["eig_calls"]
        m["hilbert.eig_s"] = c["eig_s"]
        m["cli.report_s"] = c["report_s"]
        for name, seconds in self.suite_s.items():
            m[f"cli.suite_s.{name}"] = seconds
        return m

    def dump(self, path: str):
        """Write the spans: one JSON header line, then the raw columns in the
        order and machine types the header lists."""
        columns = (("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent))
        header = {
            "pass_id": self.pass_id,
            "spans": len(self.span_start),
            "names": self.names,
            "layers": [LAYERS[i] for i in self.name_layer],
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(f)


def load_spans(path: str):
    """Read a file written by `Tracer.dump`: (header, {column: array})."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for name, typecode, _ in header["columns"]:
            col = array(typecode)
            col.fromfile(f, header["spans"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            cols[name] = col
    return header, cols


def self_times(header, cols) -> dict:
    """Per-layer self time recomputed from the spans alone."""
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    out = dict.fromkeys(LAYERS, 0.0)
    for i, nid in enumerate(cols["name"]):
        out[header["layers"][nid]] += own[i]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _rebind(orig, replacement):
    """Point every compalg.* module attribute bound to `orig` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "compalg" or modname.startswith("compalg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
