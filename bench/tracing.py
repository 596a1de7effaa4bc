"""Per-layer tracing of gsb from outside the package.

``Tracer.install()`` replaces the layer functions listed in ``FUNCTIONS`` in
every loaded ``gsb`` module namespace that binds them (``normal_form_with_trace``
is bound in both ``gsb.rewrite`` and ``gsb.completion``, for instance), wraps
``Polynomial.__mul__``, and wraps each key function that ``letter_key``
returns.  Nothing inside ``src/`` is edited.  ``uninstall()`` restores the
originals.

A wrapper records a span only while ``active`` is set, which the benchmark
does around each timed operation, so the output checks are never counted.
Self time is a span's duration minus the time covered by its child spans.
Work counts are read from return values.  Spans are kept in memory and
written out when the run ends; the hot leaves (ordering keys, polynomial
products, ``is_alsw``) are only aggregated, as there are millions of them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

FUNCTIONS = {
    "rewrite": (
        "compile_rules",
        "normal_form",
        "normal_form_with_trace",
        "irr_words",
        "quotient_dim_oracle",
    ),
    "completion": ("shirshov_complete", "find_ambiguities", "composition", "check_gsb"),
    "modules": ("module_nf", "module_ambiguities", "module_check_gsb"),
    "lyndon": ("is_alsw", "alsw_up_to", "std_bracketing", "clf_factorize", "nlsw_basis_count"),
    "constructions": ("build_hnn", "build_malcev", "build_simple_step", "build_module_cyclic"),
    "presentation": ("format_presentation", "load_presentation"),
}

HOT = {"orderings.key", "poly.mul", "lyndon.is_alsw"}

# work counts taken from the return value of a traced function
COUNTERS = {
    "rewrite.compile_rules": lambda out: {"rewrite.compile_rules.rules": len(out)},
    "rewrite.normal_form_with_trace": lambda out: {"rewrite.reduction_steps": len(out[1].steps)},
    "rewrite.irr_words": lambda out: {"rewrite.irr_words.words": len(out)},
    "completion.find_ambiguities": lambda out: {"completion.ambiguities_enumerated": len(out)},
    "completion.check_gsb": lambda out: {"completion.check_evaluated": out.evaluated},
    "completion.shirshov_complete": lambda out: {
        "completion.processed": out.processed,
        "completion.added": len(out.added),
        "completion.removed": len(out.removed),
    },
}

MAX_SPANS = 100_000

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")

# per workload: the layer metrics that should move its end-to-end figures
LAYER_METRICS = {
    "braid_completion": {
        "orderings.key.calls": _COUNT,
        "orderings.key.self_s": _SECONDS,
        "poly.mul.calls": _COUNT,
        "poly.mul.self_s": _SECONDS,
        "rewrite.compile_rules.calls": _COUNT,
        "rewrite.compile_rules.rules": _COUNT,
        "rewrite.compile_rules.self_s": _SECONDS,
        "rewrite.normal_form_with_trace.calls": _COUNT,
        "rewrite.normal_form_with_trace.self_s": _SECONDS,
        "rewrite.reduction_steps": _COUNT,
        "rewrite.irr_words.self_s": _SECONDS,
        "rewrite.irr_words.words": _COUNT,
        "completion.shirshov_complete.calls": _COUNT,
        "completion.shirshov_complete.self_s": _SECONDS,
        "completion.find_ambiguities.calls": _COUNT,
        "completion.find_ambiguities.self_s": _SECONDS,
        "completion.ambiguities_enumerated": _COUNT,
        "completion.composition.calls": _COUNT,
        "completion.composition.self_s": _SECONDS,
        "completion.processed": _COUNT,
        "completion.added": _COUNT,
        "completion.removed": _COUNT,
        "completion.useful_ratio": ("ratio", "higher"),
        "completion.enumerated_per_processed": ("ratio", "lower"),
    },
    "cd_oracle": {
        "rewrite.compile_rules.calls": _COUNT,
        "rewrite.compile_rules.self_s": _SECONDS,
        "rewrite.irr_words.self_s": _SECONDS,
        "rewrite.irr_words.words": _COUNT,
        "rewrite.quotient_dim_oracle.calls": _COUNT,
        "rewrite.quotient_dim_oracle.self_s": _SECONDS,
    },
    "embeddings": {
        "orderings.key.calls": _COUNT,
        "orderings.key.self_s": _SECONDS,
        "poly.mul.calls": _COUNT,
        "poly.mul.self_s": _SECONDS,
        "rewrite.normal_form.calls": _COUNT,
        "rewrite.normal_form.self_s": _SECONDS,
        "completion.check_gsb.calls": _COUNT,
        "completion.check_gsb.self_s": _SECONDS,
        "completion.check_evaluated": _COUNT,
        "modules.module_nf.calls": _COUNT,
        "modules.module_nf.self_s": _SECONDS,
        "modules.module_ambiguities.self_s": _SECONDS,
        "modules.module_check_gsb.self_s": _SECONDS,
        "constructions.build_hnn.self_s": _SECONDS,
        "constructions.build_malcev.self_s": _SECONDS,
        "constructions.build_simple_step.self_s": _SECONDS,
        "constructions.build_module_cyclic.self_s": _SECONDS,
        "presentation.format_presentation.self_s": _SECONDS,
        "presentation.load_presentation.self_s": _SECONDS,
    },
    "lyndon_words": {
        "lyndon.is_alsw.calls": _COUNT,
        "lyndon.alsw_up_to.self_s": _SECONDS,
        "lyndon.std_bracketing.self_s": _SECONDS,
        "lyndon.clf_factorize.self_s": _SECONDS,
        "lyndon.nlsw_basis_count.self_s": _SECONDS,
    },
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_value(name, snapshot):
    """One layer metric from a ``Tracer.snapshot()``."""
    calls, self_ns, counts = snapshot["calls"], snapshot["self_ns"], snapshot["counts"]
    if name == "completion.useful_ratio":
        return _ratio(counts["completion.added"], counts["completion.processed"])
    if name == "completion.enumerated_per_processed":
        return _ratio(counts["completion.ambiguities_enumerated"], counts["completion.processed"])
    if name.endswith(".calls"):
        return calls.get(name[: -len(".calls")], 0)
    if name.endswith(".self_s"):
        return self_ns.get(name[: -len(".self_s")], 0) / 1e9
    return counts.get(name, 0)


class Tracer:
    def __init__(self, gsb):
        self.gsb = gsb
        self.active = False
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._next_id = 0
        self.op = 0

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, count=None):
        tracer = self
        hot = name in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if not hot:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((frame[0], parent, tracer.op, name, start, end))
                    else:
                        tracer.dropped += 1
            if count is not None:
                tracer.counts.update(count(out))
            return out

        return traced

    def install(self):
        gsb = self.gsb
        modules = [
            m for key, m in list(sys.modules.items()) if key == "gsb" or key.startswith("gsb.")
        ]
        for module_name, names in FUNCTIONS.items():
            home = sys.modules[f"gsb.{module_name}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{module_name}.{fname}"
                traced = self._wrap(name, original, COUNTERS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, traced)
        self._patch(gsb.Polynomial, "__mul__", self._wrap("poly.mul", gsb.Polynomial.__mul__))
        for ordering in (gsb.DegLex, gsb.Tower):
            self._patch(ordering, "letter_key", self._traced_letter_key(ordering.letter_key))

    def _traced_letter_key(self, letter_key):
        tracer = self

        @functools.wraps(letter_key)
        def traced(spec, alphabet):
            key = letter_key(spec, alphabet)
            return tracer._wrap("orderings.key", key) if tracer.active else key

        return traced

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
