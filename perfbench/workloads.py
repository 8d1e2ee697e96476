"""The three benchmark workloads: inputs, the calls they time, output checks.

Every workload uses HofsConfig(C=0.5, bins=5) and builds its inputs from
the seed alone. An op is one call into hofsel (or one CLI command); it
fails when it raises or when its output check raises OutputError. Each
check returns a JSON-able record of the op's output, which the runner
digests to prove that repeated iterations of one seed agree.

Why these three (see README.md for the layer table):

* tree: 100k samples, 9 features. Per-sample passes dominate: the least
  squares, column stacking and signal histogram in ica.append_feature,
  quantile binning in label_conditional_entropy, plug-in counting at
  N=100k and three large probe fits.
* hetero: the paper-sized 1000 x 20, 5-class set. Many subsets times
  candidates at small N, so per-call overhead, the row-fit epoch budget,
  the term cache and many small 5-class probe fits dominate.
* cli-baselines: `hofsel bench` over the six baselines on a 10k-sample
  hetero CSV. The only path through load_csv and the CLI; it bypasses
  ica and hofs entirely, so their optimisations should not move it.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from hofsel import cli, criteria, data, hofs, synth
from hofsel import eval as evaluation

KINDS = criteria.KINDS
CLI_METHODS = "mim,mifs,jmi,mrmr,cmim,speccmi"
CLI_K = (5, 10)


class OutputError(Exception):
    """An op returned, but its output breaks the workload's contract."""


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _config():
    return hofs.HofsConfig(C=0.5, bins=5)


def _check_order(order, T, m):
    ids = [int(f) for f in order]
    if len(ids) != T or len(set(ids)) != T or not all(0 <= f < m for f in ids):
        raise OutputError("order %r is not %d distinct ids below %d"
                          % (ids, T, m))
    return ids


def _check_error(err):
    if not (isinstance(err, float) and math.isfinite(err) and 0 <= err <= 100):
        raise OutputError("probe error %r outside [0, 100]" % (err,))
    return err


def _hofs_record(table, result, T):
    partition, _ = result
    names = table.feature_names
    order = _check_order(partition.selection_order, T, table.n_features)
    return {
        "order": [names[f] for f in order],
        "subsets": [{"features": [names[f] for f in s.feature_ids],
                     "mi": s.mi_estimate} for s in partition.subsets],
        "total_mi": partition.total_mi(),
    }


def _view_record(table, view):
    if len(view.codes) != table.n_features or any(
            len(c) != table.n_samples for c in view.codes):
        raise OutputError("discretized view has the wrong shape")
    h = hashlib.sha256()
    for c in view.codes:
        h.update(np.asarray(c, dtype=np.int64).tobytes())
    return {"codes_sha256": h.hexdigest()}


class _TableWorkload:
    """Shared body of tree and hetero: HOFS, six baselines, then probes.

    Subclasses set T, the probe plan (which orders, how many top features,
    how many folds) and define setup(seed, workdir) and check_hofs(record).
    """

    def input_digest(self, table):
        h = hashlib.sha256()
        for col in table.columns:
            h.update(np.ascontiguousarray(col).tobytes())
        h.update(np.ascontiguousarray(table.labels).tobytes())
        return h.hexdigest()

    def iterate(self, table, it):
        T = self.T
        m = table.n_features

        def hofs_check(result):
            it.hofs_traces.append(result[1])
            record = _hofs_record(table, result, T)
            self.check_hofs(record)
            return record

        orders = {}
        result = it.op("run_hofs", "hofs.run_hofs",
                       lambda: hofs.run_hofs(table, T=T, config=_config()),
                       hofs_check)
        if result is not None:
            orders["hofs"] = result[0].selection_order

        view = it.op("discretize", "data.discretize",
                     lambda: data.discretize(table, bins=5),
                     lambda v: _view_record(table, v))
        for kind in KINDS:
            name = "select_greedy." + kind
            if view is None:
                it.skip(name, "discretize failed")
                continue
            res = it.op(name, "criteria.select_greedy." + kind,
                        lambda: criteria.select_greedy(
                            criteria.Criterion(kind), view, table.labels, T),
                        lambda r: {"order": _check_order(r.order, T, m),
                                   "scores": [float(s) for s in r.scores]})
            if res is not None:
                orders[kind] = res.order

        errors = []
        for method in self.CV_ORDERS:
            name = "cross_validate." + method
            if method not in orders:
                it.skip(name, "its selection failed")
                continue
            err = it.op(name, "eval.cross_validate",
                        lambda: evaluation.cross_validate(
                            table, orders[method][:self.CV_TOP],
                            n_folds=self.CV_FOLDS),
                        _check_error)
            if err is not None:
                errors.append(err)
        if errors:
            it.error_pct = float(np.mean(errors))


class Tree(_TableWorkload):
    T = 9
    CV_ORDERS = ("hofs",)
    CV_TOP = 3
    CV_FOLDS = 3
    PARTITION = {frozenset({"x1", "x4", "x5"}), frozenset({"x2", "x6", "x7"}),
                 frozenset({"x3", "x8", "x9"})}

    def setup(self, seed, workdir):
        return synth.gen_tree(synth.TreeModelSpec(n_samples=100000,
                                                  seed=seed))

    def check_hofs(self, record):
        found = {frozenset(s["features"]) for s in record["subsets"]}
        if found != self.PARTITION:
            raise OutputError("tree partition %r" % (record["subsets"],))
        if record["order"][0] != "x1":
            raise OutputError("first pick %s, not x1" % record["order"][0])


class Hetero(_TableWorkload):
    T = 20
    # error_pct is the mean over all seven orders: the HOFS top-10 alone
    # misclassifies 1 to 7 of 1000 samples, so it moves in whole steps.
    CV_ORDERS = ("hofs",) + KINDS
    CV_TOP = 10
    CV_FOLDS = 10
    FIRST_SUBSET = frozenset({"F1", "F2", "F6", "F7"})
    NOISE = {"F16", "F17", "F18", "F19", "F20"}

    def setup(self, seed, workdir):
        return synth.gen_hetero(synth.HeteroModelSpec(seed=seed))

    def check_hofs(self, record):
        first = frozenset(record["subsets"][0]["features"])
        if first != self.FIRST_SUBSET:
            raise OutputError("first subset %s" % sorted(first))
        noise = self.NOISE.intersection(record["order"][:14])
        if noise:
            raise OutputError("noise %s among the first 14 picks"
                              % sorted(noise))


class CliBaselines:
    """`hofsel bench` over the six baselines on a 10k-sample hetero CSV."""

    def setup(self, seed, workdir):
        table = synth.gen_hetero(synth.HeteroModelSpec(seed=seed,
                                                       block_size=1000))
        path = os.path.join(workdir, "hetero10k.csv")
        data.write_csv(table, path)
        return path

    def input_digest(self, path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def iterate(self, csv_path, it):
        out_dir = os.path.join(os.path.dirname(csv_path),
                               "out-%d" % it.index)
        argv = ["bench", "--data", csv_path, "--methods", CLI_METHODS,
                "--k-list", ",".join(str(k) for k in CLI_K), "--folds", "3",
                "--out-dir", out_dir]

        def call():
            echoed = io.StringIO()
            try:
                with contextlib.redirect_stdout(echoed):
                    cli.main(argv, standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    raise OutputError("hofsel bench exited with %r"
                                      % (exc.code,))
            with open(os.path.join(out_dir, "report.json")) as fh:
                return json.load(fh)

        def check(report):
            rows = report["results"]
            n_methods = len(CLI_METHODS.split(","))
            if len(rows) != n_methods * len(CLI_K):
                raise OutputError("report.json has %d rows" % len(rows))
            for row in rows:
                _check_error(row["error"])
            orders = report["orders"]
            if len(orders) != n_methods or any(
                    len(set(o)) != len(o) or len(o) != max(CLI_K)
                    for o in orders.values()):
                raise OutputError("report.json orders %r" % (orders,))
            it.error_pct = float(np.mean([row["error"] for row in rows]))
            return {"orders": orders, "results": rows}

        try:
            it.op("hofsel_bench", "cli", call, check)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {"tree": Tree(), "hetero": Hetero(),
             "cli-baselines": CliBaselines()}
