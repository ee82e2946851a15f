"""Opt-in spans around the public functions of derand, from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
derand module that holds it (methods are replaced on their class), and
``uninstall`` puts the originals back.  A wrapper records one span per
call: id, parent id, name, start, end and a work count.  Spans stay in
memory until ``write`` stores them; ``layer_metrics`` turns the spans of
one round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute, span name, work count taken from (args, result))
TRACED = [
    ("smallbias", "outputs_all_seeds", "smallbias.outputs_all_seeds", lambda a, out: int(out.size)),
    ("smallbias", "subsets_all_seeds", "smallbias.subsets_all_seeds", None),
    ("smallbias", "GF2k.mul_vec", "smallbias.GF2k.mul_vec", lambda a, out: int(out.size)),
    ("smallbias", "output_mask_histogram", "smallbias.output_mask_histogram",
     lambda a, out: 1 << a[0].seed_bits),
    ("smallbias", "exact_bias", "smallbias.exact_bias", None),
    ("smallbias", "generate_biased", "smallbias.generate_biased", lambda a, out: len(out)),
    ("smallbias", "sample_subset", "smallbias.sample_subset", None),
    ("rcnf_prg", "sample", "rcnf_prg.sample", None),
    ("cr_prg", "sample_cr", "cr_prg.sample_cr", None),
    ("bp3", "hsg_sample", "bp3.hsg_sample", None),
    ("bp3", "sudden_death_reduce", "bp3.sudden_death_reduce", None),
    ("bp3", "intersection_reduce", "bp3.intersection_reduce", None),
    ("bp3", "width2_to_decision_list", "bp3.width2_to_decision_list", None),
    ("bp3", "dl_to_cnfx", "bp3.dl_to_cnfx", None),
    ("bp3", "full_reduce", "bp3.full_reduce", None),
    ("bp3", "ReductionCertificate.verify_subset", "bp3.ReductionCertificate.verify_subset", None),
    ("approx", "xor_compose", "approx.xor_compose", None),
    ("approx", "verify_sandwich", "approx.verify_sandwich", lambda a, out: out.points_checked),
    ("approx", "MultilinearPoly.evaluate", "approx.MultilinearPoly.evaluate", None),
    ("harness", "rcnf_structured_advantage", "harness.rcnf_structured_advantage",
     lambda a, out: out.samples),
    ("harness", "rcnf_output_histogram", "harness.rcnf_output_histogram", None),
    ("harness", "hsg_hit_stats", "harness.hsg_hit_stats", None),
    ("harness", "exhaustive_advantage", "harness.exhaustive_advantage", lambda a, out: out.samples),
    ("models", "Robp.eval_all", "models.Robp.eval_all", None),
] + [
    ("models", f"{cls}.{meth}", f"models.{meth}", None)
    for cls in ("ReadOnceCnf", "XorCnf", "CombRect", "Robp")
    for meth in ("evaluate", "exact_expectation")
]

# (metric, span name, statistic): "s" is inclusive time, "self_s" the
# time not covered by child spans, "calls" the span count and "count"
# the summed work count of the spans.
PER_LAYER = [
    ("smallbias.outputs_all_seeds.s", "smallbias.outputs_all_seeds", "s"),
    ("smallbias.outputs_all_seeds.signs", "smallbias.outputs_all_seeds", "count"),
    ("smallbias.subsets_all_seeds.s", "smallbias.subsets_all_seeds", "s"),
    ("smallbias.GF2k.mul_vec.s", "smallbias.GF2k.mul_vec", "s"),
    ("smallbias.GF2k.mul_vec.elements", "smallbias.GF2k.mul_vec", "count"),
    ("smallbias.output_mask_histogram.s", "smallbias.output_mask_histogram", "s"),
    ("smallbias.output_mask_histogram.seeds", "smallbias.output_mask_histogram", "count"),
    ("smallbias.exact_bias.self_s", "smallbias.exact_bias", "self_s"),
    ("harness.rcnf_structured_advantage.self_s", "harness.rcnf_structured_advantage", "self_s"),
    ("harness.rcnf_structured_advantage.seeds", "harness.rcnf_structured_advantage", "count"),
    ("harness.rcnf_output_histogram.self_s", "harness.rcnf_output_histogram", "self_s"),
    ("harness.hsg_hit_stats.self_s", "harness.hsg_hit_stats", "self_s"),
    ("models.Robp.eval_all.s", "models.Robp.eval_all", "s"),
    ("smallbias.generate_biased.s", "smallbias.generate_biased", "s"),
    ("smallbias.generate_biased.calls", "smallbias.generate_biased", "calls"),
    ("smallbias.generate_biased.positions", "smallbias.generate_biased", "count"),
    ("smallbias.sample_subset.self_s", "smallbias.sample_subset", "self_s"),
    ("rcnf_prg.sample.self_s", "rcnf_prg.sample", "self_s"),
    ("rcnf_prg.sample.calls", "rcnf_prg.sample", "calls"),
    ("cr_prg.sample_cr.self_s", "cr_prg.sample_cr", "self_s"),
    ("cr_prg.sample_cr.calls", "cr_prg.sample_cr", "calls"),
    ("bp3.hsg_sample.self_s", "bp3.hsg_sample", "self_s"),
    ("harness.exhaustive_advantage.self_s", "harness.exhaustive_advantage", "self_s"),
    ("harness.exhaustive_advantage.samples", "harness.exhaustive_advantage", "count"),
    ("models.evaluate.s", "models.evaluate", "s"),
    ("models.evaluate.calls", "models.evaluate", "calls"),
    ("approx.xor_compose.s", "approx.xor_compose", "s"),
    ("approx.verify_sandwich.self_s", "approx.verify_sandwich", "self_s"),
    ("approx.verify_sandwich.points", "approx.verify_sandwich", "count"),
    ("approx.MultilinearPoly.evaluate.s", "approx.MultilinearPoly.evaluate", "s"),
    ("approx.MultilinearPoly.evaluate.calls", "approx.MultilinearPoly.evaluate", "calls"),
    ("bp3.sudden_death_reduce.s", "bp3.sudden_death_reduce", "s"),
    ("bp3.intersection_reduce.s", "bp3.intersection_reduce", "s"),
    ("bp3.width2_to_decision_list.s", "bp3.width2_to_decision_list", "s"),
    ("bp3.dl_to_cnfx.s", "bp3.dl_to_cnfx", "s"),
    ("bp3.full_reduce.self_s", "bp3.full_reduce", "self_s"),
    ("bp3.ReductionCertificate.verify_subset.s", "bp3.ReductionCertificate.verify_subset", "s"),
    ("models.exact_expectation.s", "models.exact_expectation", "s"),
]
OVERHEAD_METRIC = "trace.overhead_s"


def metric_unit(metric: str) -> str:
    return "s" if metric.endswith((".s", "_s")) else "count"


class Tracer:
    def __init__(self):
        self.spans = []      # (id, parent id, name, start, end, count), in completion order
        self._stack = []
        self._next_id = 0
        self._restore = []   # (owner, attribute, original)

    def span(self, name: str, fn, count=None):
        """fn wrapped so that each call records a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            work = 0
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, out)
                return out
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, work))
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("derand.") and m is not None]
        for mod_name, attr, name, count in TRACED:
            owner = importlib.import_module(f"derand.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.span(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self.span(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start and end in seconds, count."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("id\tparent\tname\tstart\tend\tcount\n")
            for sid, parent, name, start, end, work in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{work}\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _work in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _work in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, per_layer=PER_LAYER) -> dict:
    """Per-layer metrics of one round's spans.  Inclusive time skips a
    span nested in a span of the same name, so recursion counts once."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
    for sid, parent, name, start, end, work in spans:
        st = stats[name]
        st["self_s"] += selfs[sid]
        st["calls"] += 1
        st["count"] += work
        anc = by_id.get(parent)
        while anc is not None and anc[2] != name:
            anc = by_id.get(anc[1])
        if anc is None:
            st["s"] += end - start
    return {metric: stats[name][stat] if name in stats else 0
            for metric, name, stat in per_layer}
