"""Spans recorded from outside the program, around calls into each layer.

The hofsel modules import names from each other directly
(``from .ica import append_feature``), so a call is intercepted by
replacing the name in the namespace of the module that looks it up, not
in the module that defines it. ``LAYER_PATCHES`` lists those lookups.
A name that no longer exists (a later change deleted the function) is
skipped, and the metrics built on it read 0.

Spans stay in memory as ``[name, start, end, parent]`` rows; a span's
self time is its duration minus the durations of its direct children.
"""

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from hofsel import eval as evaluation
from hofsel.criteria import KINDS


def _n_samples(x):
    """Sample count of an estimator argument: one column or a list of them."""
    if isinstance(x, (list, tuple)):
        x = x[0]
    return len(x)


def _count_infotheory(tracer, span_name, args, kwargs, result):
    tracer.counters[span_name + ".samples"] += _n_samples(args[0])


def _count_append(tracer, span_name, args, kwargs, model):
    tracer.counters["ica.append_feature.bytes_computed"] += (
        model.n_samples * model.dim * 8)
    row = (model.fit_meta.get("rows") or [{}])[-1]
    tracer.counters["ica.fit_row.epochs"] += row.get("epochs", 0)
    tracer.counters["ica.fit_row.nonconverged"] += int(
        not row.get("converged", True))


def _default_epochs():
    param = inspect.signature(evaluation.train_linear).parameters.get("epochs")
    return param.default if param is not None else 0


_PROBE_EPOCHS = _default_epochs()


def _count_train(tracer, span_name, args, kwargs, result):
    epochs = kwargs.get("epochs", _PROBE_EPOCHS)
    n_classes = kwargs.get("n_classes", args[2] if len(args) > 2 else 0)
    tracer.counters["eval.train_linear.sample_epochs"] += (
        len(args[0]) * int(epochs) * int(n_classes))


def _greedy_name(args, kwargs):
    criterion = args[0] if args else kwargs["criterion"]
    return "criteria.select_greedy." + criterion.kind


# (module that looks the name up, name, span name, counter hook)
PHASE_PATCHES = [
    ("hofsel.cli", "discretize", "data.discretize", None),
    ("hofsel.cli", "select_greedy", _greedy_name, None),
    ("hofsel.cli", "cross_validate", "eval.cross_validate", None),
]

LAYER_PATCHES = [
    ("hofsel.cli", "load_csv", "data.load_csv", None),
    ("hofsel.hofs", "discretize", "data.discretize", None),
    ("hofsel.hofs", "append_feature", "ica.append_feature", _count_append),
    ("hofsel.hofs", "label_conditional_entropy",
     "hofs.label_conditional_entropy", None),
    ("hofsel.hofs", "entropy", "infotheory.hofs", _count_infotheory),
    ("hofsel.hofs", "joint_entropy", "infotheory.hofs", _count_infotheory),
    ("hofsel.hofs", "mutual_information", "infotheory.hofs",
     _count_infotheory),
    ("hofsel._accel", "fit_row", "ica.fit_row", None),
    ("hofsel.ica", "signal_entropy", "ica.signal_entropy", None),
    ("hofsel.criteria", "score_candidate", "criteria.score_candidate", None),
    ("hofsel.criteria", "mutual_information", "infotheory.criteria",
     _count_infotheory),
    ("hofsel.criteria", "conditional_mutual_information",
     "infotheory.criteria", _count_infotheory),
    ("hofsel.eval", "train_linear", "eval.train_linear", _count_train),
    ("hofsel.eval", "predict", "eval.predict", None),
]

# One Tracer records one iteration, whose own span is the first.
ROOT = 0

# Spans that make up the end-to-end phases when no enclosing span is one.
SELECT_SPANS = ("hofs.run_hofs", "data.discretize")
CV_SPANS = ("eval.cross_validate",)


class Tracer:
    """In-memory span recorder that patches module attributes while active."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, span_name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, patches):
        """Route the listed lookups through spans for the duration."""
        applied = []
        try:
            for module_name, attr, name, hook in patches:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap(fn, name, hook))
                applied.append((module, attr, fn))
            yield
        finally:
            for module, attr, fn in reversed(applied):
                setattr(module, attr, fn)

    def children(self):
        kids = defaultdict(list)
        for idx, (_, _, _, parent) in enumerate(self.spans):
            kids[parent].append(idx)
        return kids

    def duration(self, idx):
        return self.spans[idx][2] - self.spans[idx][1]

    def self_time(self, idx, kids):
        return self.duration(idx) - sum(self.duration(c) for c in kids[idx])

    def descendants(self, idx, kids):
        out = []
        todo = list(kids[idx])
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(kids[c])
        return out


def _is_select(name):
    return name in SELECT_SPANS or name.startswith("criteria.select_greedy.")


def phase_times(tracer):
    """Selection, HOFS and cross-validation seconds under the root span.

    A span counts toward a phase only when no enclosing span below the
    root already does, so the discretize inside run_hofs is not counted
    twice.
    """
    kids = tracer.children()
    times = {"select_s": 0.0, "hofs_s": 0.0, "cv_s": 0.0}
    todo = list(kids[ROOT])
    while todo:
        idx = todo.pop()
        name = tracer.spans[idx][0]
        if _is_select(name):
            times["select_s"] += tracer.duration(idx)
            if name == "hofs.run_hofs":
                times["hofs_s"] += tracer.duration(idx)
        elif name in CV_SPANS:
            times["cv_s"] += tracer.duration(idx)
        else:
            todo.extend(kids[idx])
    times["baselines_s"] = times["select_s"] - times["hofs_s"]
    return times


def self_times(tracer, top=ROOT):
    """Self seconds per span name over one span and every span under it.

    The values add up to the top span's duration.
    """
    kids = tracer.children()
    out = defaultdict(float)
    for idx in [top] + tracer.descendants(top, kids):
        out[tracer.spans[idx][0]] += tracer.self_time(idx, kids)
    return dict(out)


def layer_metrics(tracer, hofs_traces):
    """Per-layer counts and times for the spans under the root span.

    hofs_traces holds the SelectionTrace of every run_hofs call in the
    iteration; term lookups come from their score_parts and term misses
    from the label_conditional_entropy calls inside run_hofs.
    """
    kids = tracer.children()
    under = tracer.descendants(ROOT, kids)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for idx in under:
        name = tracer.spans[idx][0]
        calls[name] += 1
        total[name] += tracer.duration(idx)
        own[name] += tracer.self_time(idx, kids)

    misses = 0
    for idx in under:
        if tracer.spans[idx][0] == "hofs.run_hofs":
            misses += sum(1 for c in tracer.descendants(idx, kids)
                          if tracer.spans[c][0]
                          == "hofs.label_conditional_entropy")
    lookups = 0
    scored = 0
    for trace in hofs_traces:
        for step in trace.steps:
            scored += len(step.candidate_scores)
            lookups += sum(len(part.get("terms", {}))
                           for part in step.score_parts.values())

    c = tracer.counters
    m = {
        "ica.fit_row.calls": calls["ica.fit_row"],
        "ica.fit_row.s": total["ica.fit_row"],
        "ica.fit_row.epochs": c["ica.fit_row.epochs"],
        "ica.fit_row.nonconverged": c["ica.fit_row.nonconverged"],
        "ica.append_feature.calls": calls["ica.append_feature"],
        "ica.append_feature.s": total["ica.append_feature"],
        "ica.append_feature.self_s": own["ica.append_feature"],
        "ica.append_feature.bytes_computed":
            c["ica.append_feature.bytes_computed"],
        "ica.signal_entropy.calls": calls["ica.signal_entropy"],
        "ica.signal_entropy.s": total["ica.signal_entropy"],
        "hofs.run_hofs.s": total["hofs.run_hofs"],
        "hofs.self_s": own["hofs.run_hofs"],
        "hofs.label_conditional_entropy.calls":
            calls["hofs.label_conditional_entropy"],
        "hofs.label_conditional_entropy.s":
            total["hofs.label_conditional_entropy"],
        "hofs.term_lookups": lookups,
        "hofs.term_misses": misses,
        "hofs.term_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "hofs.candidates_scored": scored,
        "data.discretize.calls": calls["data.discretize"],
        "data.discretize.s": total["data.discretize"],
        "data.load_csv.s": total["data.load_csv"],
        "criteria.select_greedy.s": sum(
            total["criteria.select_greedy." + k] for k in KINDS),
        "criteria.score_candidate.calls": calls["criteria.score_candidate"],
        "criteria.estimator_calls": calls["infotheory.criteria"],
        "eval.cross_validate.calls": calls["eval.cross_validate"],
        "eval.cross_validate.s": total["eval.cross_validate"],
        "eval.train_linear.calls": calls["eval.train_linear"],
        "eval.train_linear.s": total["eval.train_linear"],
        "eval.train_linear.sample_epochs":
            c["eval.train_linear.sample_epochs"],
        "eval.predict.s": total["eval.predict"],
        "cli.s": total["cli"],
        "cli.self_s": own["cli"],
        "trace.spans": len(under),
    }
    for k in KINDS:
        m["criteria.select_greedy.%s.s" % k] = total[
            "criteria.select_greedy." + k]
    for span in ("infotheory.hofs", "infotheory.criteria"):
        m[span + ".calls"] = calls[span]
        m[span + ".s"] = total[span]
        m[span + ".samples"] = c[span + ".samples"]
    for field in ("calls", "s", "samples"):
        m["infotheory." + field] = (m["infotheory.hofs." + field]
                                    + m["infotheory.criteria." + field])
    return m
