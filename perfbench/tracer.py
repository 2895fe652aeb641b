"""Timing wrappers around the package's public functions, installed from
outside the package.

Each call of a wrapped function records a span (name, start, end, parent
span, pass id) in memory.  Self time is the span's duration minus the time
covered by its child spans; it is accumulated per name as calls return, so
no second walk over the spans is needed.  Counters (calls, distinct inputs,
table sizes, result lengths) are recorded at the same boundaries.

A function is patched wherever the package holds a reference to it: the
defining module, the package namespace and every module that re-imports
the name (``bounds.phi_series``, ``cli.certify_grid`` ...).  Polynomial
methods are patched on the ``IntPolynomial`` class.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _band(x) -> str:
    ax = abs(float(x))
    return "band_lt2" if ax < 2 else "band_2_10" if ax < 10 else "band_10_30"


def _precision(args, kwargs, index: int) -> int:
    return args[index] if len(args) > index else kwargs.get("precision_bits", 128)


def _family(family: str) -> str:
    key = family.strip().lower()
    return "i" if key == "second" else key


# name -> (module, attribute or IntPolynomial methods, distinct-input key, sub-name)
# A key returns a hashable input; a sub-name splits self time further.
TARGETS = {
    "oracle.phi_series": ("oracle", ("phi_series",), lambda a, k: (a[0], _precision(a, k, 1)), lambda a, k: _band(a[0])),
    "oracle.phi_quadrature": ("oracle", ("phi_quadrature",), None, None),
    "families.pq_pair": ("families", ("pq_pair",), lambda a, k: a[0], None),
    "families.quadratic_triple": ("families", ("quadratic_triple",), lambda a, k: a[0], None),
    "families.verify_identities": ("families", ("verify_identities",), None, None),
    "poly.mul": ("poly", ("IntPolynomial.__mul__", "IntPolynomial.__rmul__"), None, None),
    "poly.eval_rational": ("poly", ("IntPolynomial.eval_rational",), None, None),
    "poly.eval_real": ("poly", ("IntPolynomial.eval_real",), None, None),
    "poly.horner_error_bound": ("poly", ("IntPolynomial.horner_error_bound",), None, None),
    "contfrac.cf_convergent": ("contfrac", ("cf_convergent",), None, None),
    "bounds.beta": ("bounds", ("beta",), None, None),
    "bounds.first_order_enclosure": ("bounds", ("first_order_enclosure",), None, None),
    "bounds.second_order_bound": ("bounds", ("second_order_bound",), None, None),
    "bounds.certify_grid": ("bounds", ("certify_grid",), None, lambda a, k: _family(a[0])),
    "bounds.log_convexity": ("bounds", ("log_convexity_check", "log_convexity_error"), None, None),
    "cli.main": ("cli", ("main",), None, None),
}


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []  # (name, start, end, parent index, pass id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inputs: dict[str, set] = defaultdict(set)
        self.result_len: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list = []

    def wrap(self, name: str, fn, key, sub):
        spans, stack, self_s = self.spans, self._stack, self.self_s

        def traced(*args, **kwargs):
            self.calls[name] += 1
            if key is not None:
                self.inputs[name].add(key(args, kwargs))
            label = f"{name}.{sub(args, kwargs)}" if sub is not None else None
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                self_s[name] += own
                if label is not None:
                    self_s[label] += own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                spans[index] = (name, start, end, parent[0] if parent else -1, self.pass_id)
            if isinstance(result, list):
                self.result_len[name] += len(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every reference the loaded millsratio modules hold."""
        modules = [m for n, m in sys.modules.items() if n == "millsratio" or n.startswith("millsratio.")]
        for name, (mod_name, attrs, key, sub) in TARGETS.items():
            home = sys.modules.get(f"millsratio.{mod_name}")
            if home is None:  # cli is loaded by verify_default only
                continue
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    self._set(cls, method, self.wrap(name, original, key, sub))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original, key, sub)
                for module in modules:
                    for held, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, held, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def counters(self) -> dict[str, int]:
        """Exact counts; they repeat whenever the same code gets the same input."""
        pq = self.inputs.get("families.pq_pair", ())
        return {
            "oracle.phi_series.calls": self.calls["oracle.phi_series"],
            "oracle.phi_series.distinct": len(self.inputs["oracle.phi_series"]),
            "oracle.phi_quadrature.calls": self.calls["oracle.phi_quadrature"],
            "families.quadratic_triple.calls": self.calls["families.quadratic_triple"],
            "families.quadratic_triple.distinct": len(self.inputs["families.quadratic_triple"]),
            "families.identities_checked": self.result_len["families.verify_identities"],
            "families.pq_pair.max_n": max(pq, default=0),
            "poly.mul.calls": self.calls["poly.mul"],
            "poly.eval_rational.calls": self.calls["poly.eval_rational"],
            "poly.eval_real.calls": self.calls["poly.eval_real"],
            "poly.horner_error_bound.calls": self.calls["poly.horner_error_bound"],
            "contfrac.cf_convergent.calls": self.calls["contfrac.cf_convergent"],
            "bounds.certificates": self.result_len["bounds.certify_grid"],
            "bounds.log_convexity.calls": self.calls["bounds.log_convexity"],
        }

    def write_spans(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, pass id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# Self-time metrics reported by a traced run, in the order they are printed.
SELF_TIMES = (
    "oracle.phi_series",
    "oracle.phi_series.band_lt2",
    "oracle.phi_series.band_2_10",
    "oracle.phi_series.band_10_30",
    "oracle.phi_quadrature",
    "families.quadratic_triple",
    "families.verify_identities",
    "poly.mul",
    "poly.eval_rational",
    "poly.eval_real",
    "poly.horner_error_bound",
    "contfrac.cf_convergent",
    "bounds.beta",
    "bounds.first_order_enclosure",
    "bounds.second_order_bound",
    "bounds.certify_grid.eq15",
    "bounds.certify_grid.eq16",
    "bounds.certify_grid.eq17",
    "bounds.certify_grid.eq18",
    "bounds.certify_grid.eq19",
    "bounds.certify_grid.i",
    "cli.main",
)
