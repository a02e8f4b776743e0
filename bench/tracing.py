"""Per-layer tracing from outside the program: moranspectra functions are
wrapped where their callers look them up, and restored afterwards.

A wrapped call pushes a frame; its self time is its duration minus the time
of wrapped calls made inside it.  Span layers keep one record per call
(job, id, parent, layer, start, duration).  Hot layers, called up to
hundreds of thousands of times a round, keep only a count and self time per
call site, the call site being the enclosing span layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

import moranspectra as ms

_m = {name: importlib.import_module(f"moranspectra.{name}") for name in
      ("lattice", "digitsets", "mask", "moran", "spectra", "classify", "config", "cli")}

# (layer, module, function names, hot)
LAYERS = (
    ("cli.main", _m["cli"], ("main",), False),
    ("config.parse", _m["config"], ("parse_config", "format_config"), False),
    ("classify.classify", _m["classify"], ("classify",), False),
    ("moran.validate", _m["moran"], ("validate",), False),
    ("moran.attractor_points", _m["moran"], ("attractor_points",), False),
    ("moran.fourier", _m["moran"], ("fourier",), False),
    ("moran.fourier_zero_exact", _m["moran"], ("fourier_zero_exact",), False),
    ("spectra.build_tower", _m["spectra"], ("build_tower",), False),
    ("spectra.enumerate", _m["spectra"], ("enumerate_tower", "build_lattice_spectrum"), False),
    ("spectra.verify_orthogonality", _m["spectra"], ("verify_orthogonality",), False),
    ("spectra.completeness_sum", _m["spectra"], ("completeness_sum",), False),
    ("spectra.oracle", _m["spectra"], ("discrete_spectrum_oracle",), False),
    ("mask.is_hadamard_triple", _m["mask"], ("is_hadamard_triple",), False),
    ("moran.analysis", _m["moran"], ("_analysis",), True),
    ("mask.eval_mask", _m["mask"], ("eval_mask",), True),
    ("mask.digit_mask_zero", _m["mask"], ("digit_mask_zero",), True),
    ("mask.unity_sum_is_zero_ints", _m["mask"], ("unity_sum_is_zero_ints",), True),
    ("lattice.predicates", _m["lattice"], ("is_expanding", "inverse_norm_below_one", "in_gl2_2z"), True),
    ("lattice.norm_bounds", _m["lattice"], ("operator_norm_upper", "inverse_norm_upper", "sqrt_upper"), True),
)
MODULES = (ms, *_m.values())

# Per-layer metrics read from returned results rather than clocks; they
# repeat exactly for a fixed seed.
RESULT_METRICS = (
    "spectra.pairs_checked", "spectra.distinct_differences", "spectra.dedup_ratio",
    "spectra.points", "spectra.oracle.exact_pairs", "spectra.completeness_terms",
    "moran.fourier.levels_sum", "moran.fourier.levels_mean", "moran.fourier.bound_over_eps_median",
    "moran.zero.certified_ratio", "moran.zero.levels_sum",
    "moran.analysis.hits", "moran.analysis.misses",
    "classify.decisive_ratio", "cli.nonzero_exits",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    """Install with `with Tracer() as t:`; read `t.metrics()` afterwards."""

    def __init__(self) -> None:
        self.stack = [["job", 0.0, 0]]
        self.next_id = 1
        self.job = 0
        self.totals = {layer: [0, 0.0] for layer, *_ in LAYERS}
        self.sites: dict[tuple[str, str], list] = {}
        self.spans: list[tuple] = []
        self.patches: list[tuple] = []
        self.fourier_levels: list[int] = []
        self.fourier_slack: list[float] = []
        self.counts = dict.fromkeys(
            ("pairs", "distinct", "points", "exact_pairs", "terms", "zero_calls",
             "zero_certified", "zero_levels", "classified", "decisive", "nonzero_exits"), 0)
        self.analysis = _m["moran"]._analysis

    # --- observers of returned results ---------------------------------------

    def _observe(self, layer, args, kwargs, result) -> None:
        c = self.counts
        if layer == "spectra.verify_orthogonality":
            c["pairs"] += result.pairs_checked
            c["distinct"] += result.distinct_differences
        elif layer == "spectra.enumerate":
            c["points"] += len(result)
        elif layer == "spectra.oracle":
            n = len(_arg(args, kwargs, 2, "candidate"))
            c["exact_pairs"] += n * (n - 1) // 2
        elif layer == "spectra.completeness_sum":
            c["terms"] += len(_arg(args, kwargs, 1, "points"))
        elif layer == "moran.fourier":
            self.fourier_levels.append(result.levels)
            self.fourier_slack.append(result.bound / _arg(args, kwargs, 2, "eps"))
        elif layer == "moran.fourier_zero_exact":
            c["zero_calls"] += 1
            if result is not None:
                c["zero_certified"] += 1
                c["zero_levels"] += result.level
        elif layer == "classify.classify":
            c["classified"] += 1
            c["decisive"] += result.decisive
        elif layer == "cli.main":
            c["nonzero_exits"] += result != 0

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fn, hot: bool):
        stack, clock, total = self.stack, time.perf_counter, self.totals[layer]
        observe = layer in {
            "spectra.verify_orthogonality", "spectra.enumerate", "spectra.oracle",
            "spectra.completeness_sum", "moran.fourier", "moran.fourier_zero_exact",
            "classify.classify", "cli.main"}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1]
            frame = [layer, 0.0, self.next_id]
            self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                caller[1] += duration
                self_s = duration - frame[1]
                total[0] += 1
                total[1] += self_s
                if hot:
                    site = self.sites.setdefault((layer, caller[0]), [0, 0.0])
                    site[0] += 1
                    site[1] += self_s
                else:
                    self.spans.append((self.job, frame[2], caller[2], layer, start, duration))
            if observe:
                self._observe(layer, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for layer, home, names, hot in LAYERS:
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original, hot)
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.patches.append((module, attr, value))
                            setattr(module, attr, wrapper)
        self.analysis.cache_clear()
        return self

    def __exit__(self, *exc) -> None:
        self.analysis_info = self.analysis.cache_info()
        for module, attr, value in reversed(self.patches):
            setattr(module, attr, value)
        self.patches.clear()

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, (calls, self_s) in self.totals.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        c = self.counts
        levels = self.fourier_levels
        ratio = lambda a, b: a / b if b else 0.0
        out.update({
            "spectra.pairs_checked": c["pairs"],
            "spectra.distinct_differences": c["distinct"],
            "spectra.dedup_ratio": ratio(c["distinct"], c["pairs"]),
            "spectra.points": c["points"],
            "spectra.oracle.exact_pairs": c["exact_pairs"],
            "spectra.completeness_terms": c["terms"],
            "moran.fourier.levels_sum": sum(levels),
            "moran.fourier.levels_mean": ratio(sum(levels), len(levels)),
            "moran.fourier.bound_over_eps_median":
                statistics.median(self.fourier_slack) if self.fourier_slack else 0.0,
            "moran.zero.certified_ratio": ratio(c["zero_certified"], c["zero_calls"]),
            "moran.zero.levels_sum": c["zero_levels"],
            "moran.analysis.hits": self.analysis_info.hits,
            "moran.analysis.misses": self.analysis_info.misses,
            "classify.decisive_ratio": ratio(c["decisive"], c["classified"]),
            "cli.nonzero_exits": c["nonzero_exits"],
        })
        return out

    def write(self, path: Path) -> None:
        """Spans, then per-call-site totals of the hot layers, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for job, sid, parent, layer, start, duration in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "layer": layer,
                                     "start_s": start, "dur_s": duration}) + "\n")
            for (layer, caller), (calls, self_s) in sorted(self.sites.items()):
                fh.write(json.dumps({"site": layer, "caller": caller, "calls": calls,
                                     "self_s": self_s}) + "\n")
