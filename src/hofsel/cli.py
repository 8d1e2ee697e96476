"""Command line interface.

Exit codes: 2 for configuration problems, 3 for data problems, 4 for
numeric failures. All output files are written atomically (temp file
plus rename) into --out-dir, which defaults to $HOFSEL_OUT_DIR or the
current directory. Every command echoes its resolved configuration so
runs are reproducible from the logs alone.
"""

import json
import os
import sys
import tempfile

import click
import numpy as np

from . import __version__
from .criteria import Criterion, CriterionError, select_greedy
from .data import DataError, discretize, load_csv, write_csv
from .eval import EvalError, cross_validate, default_k_values, \
    information_gain_curve
from .hofs import HofsConfig, HofsError, partition_correlation, \
    r_balance, run_hofs
from .infotheory import EstimatorError
from .synth import HeteroModelSpec, TreeModelSpec, gen_hetero, gen_tree

_BASELINES = ("mim", "mifs", "jmi", "mrmr", "cmim", "speccmi")
_METHODS = ("hofs",) + _BASELINES
# fewer than two bins is a configuration error from every command
_bins_option = click.option("--bins", type=click.IntRange(min=2), default=5,
                            show_default=True)


def _check_coverage(ctx, param, value):
    # the comparison is false for nan, which click.FloatRange lets through
    if not 0.0 <= value <= 1.0:
        raise click.BadParameter("%r is not in [0, 1]." % (value,))
    return value


# a coverage outside [0, 1] is a configuration error from every command,
# whether or not a HOFS run reads it
_coverage_option = click.option("-C", "--coverage", type=float, default=0.5,
                                show_default=True, callback=_check_coverage,
                                help="Coverage threshold for joining a "
                                     "subset.")


def _resolve_out_dir(out_dir):
    path = out_dir or os.environ.get("HOFSEL_OUT_DIR") or "."
    os.makedirs(path, exist_ok=True)
    return path


def _atomic_write(path, write):
    """Run write(tmp_path) on a temp file beside path, then rename it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hofsel-tmp-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    def write(tmp):
        with open(tmp, "w") as fh:
            fh.write(text)

    _atomic_write(path, write)


def _write_json(path, payload):
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2)
                       + "\n")


def _echo_config(cfg):
    click.echo("config: " + json.dumps(cfg, sort_keys=True))


def _load_table(data_path, label_column, missing_policy):
    try:
        table = load_csv(data_path, label_column=label_column,
                         missing_policy=missing_policy)
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (data_path, exc))
    click.echo("rows: read %(rows_read)d, dropped %(rows_dropped)d"
               % table.load_report)
    return table


def _fail(code, message):
    click.echo("error: %s" % (message,), err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        fn()
    except (DataError,) as exc:
        _fail(3, str(exc))
    except (EstimatorError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        _fail(4, str(exc))
    except (HofsError, CriterionError, EvalError, ValueError) as exc:
        _fail(2, str(exc))


@click.group()
@click.version_option(version=__version__, prog_name="hofsel")
def main():
    """Information-theoretic feature selection toolkit."""


@main.command()
@click.option("--data", "data_path", required=True, help="Input CSV path.")
@click.option("--label-column", default="label", show_default=True)
@click.option("--method", default="hofs", show_default=True,
              type=click.Choice(_METHODS))
@click.option("-T", "--n-select", type=int, default=None,
              help="How many features to select (default: all).")
@_bins_option
@_coverage_option
@click.option("--beta", type=float, default=1.0, show_default=True,
              help="Redundancy weight for MIFS.")
@click.option("--missing-policy", default="drop", show_default=True,
              type=click.Choice(["drop", "impute"]))
@click.option("--out-dir", default=None, help="Output directory.")
@click.option("--config-dump", is_flag=True,
              help="Print the resolved configuration and exit.")
def select(data_path, label_column, method, n_select, bins, coverage, beta,
           missing_policy, out_dir, config_dump):
    """Run one selection method and write the chosen features."""

    def body():
        cfg = {
            "command": "select", "data": data_path,
            "label_column": label_column, "method": method,
            "n_select": n_select, "bins": bins, "C": coverage,
            "beta": beta, "missing_policy": missing_policy,
            "out_dir": out_dir or os.environ.get("HOFSEL_OUT_DIR") or ".",
        }
        _echo_config(cfg)
        if config_dump:
            click.echo(json.dumps(cfg, sort_keys=True, indent=2))
            return
        table = _load_table(data_path, label_column, missing_policy)
        t = n_select if n_select is not None else table.n_features
        if method == "hofs":
            config = HofsConfig(C=coverage, bins=bins)
            partition, trace = run_hofs(table, t, config)
            out = _resolve_out_dir(out_dir)
            names = table.feature_names
            payload = {
                "config": cfg,
                "selection_order": [names[f]
                                    for f in partition.selection_order],
                "subsets": [{
                    "features": [names[f] for f in sub.feature_ids],
                    "mi_estimate": sub.mi_estimate,
                    "rank": rank,
                } for sub, rank in zip(partition.subsets,
                                       partition.ranks())],
                "total_mi": partition.total_mi(),
            }
            _write_json(os.path.join(out, "selection.json"), payload)
            trace_payload = {
                "config": trace.config,
                "steps": [{
                    "step": s.step,
                    "chosen": names[s.chosen],
                    "created_new_subset": s.created_new_subset,
                    "subset_index": s.subset_index,
                    "maxcov": s.maxcov,
                    "gain": s.gain,
                    "total_mi": s.total_mi,
                    "candidate_scores": {names[f]: v for f, v
                                         in s.candidate_scores.items()},
                    "score_parts": {names[f]: part for f, part
                                    in s.score_parts.items()},
                } for s in trace.steps],
            }
            _write_json(os.path.join(out, "trace.json"), trace_payload)
            for sub in partition.subsets:
                click.echo("subset: %s (mi=%.6f)" %
                           (",".join(names[f] for f in sub.feature_ids),
                            sub.mi_estimate))
            click.echo("total mi estimate: %.6f" % (partition.total_mi(),))
        else:
            view = discretize(table, bins=bins)
            criterion = Criterion(kind=method, beta=beta)
            result = select_greedy(criterion, view, table.labels, t)
            out = _resolve_out_dir(out_dir)
            names = table.feature_names
            payload = {
                "config": cfg,
                "selection_order": [names[f] for f in result.order],
                "scores": result.scores,
            }
            _write_json(os.path.join(out, "selection.json"), payload)
            click.echo("order: %s" %
                       (",".join(names[f] for f in result.order),))
        click.echo("wrote %s" % (os.path.join(out, "selection.json"),))

    _guarded(body)


@main.command()
@click.option("--model", required=True, type=click.Choice(["tree", "hetero"]))
@click.option("-n", "--n-samples", type=int, default=None,
              help="Sample count (tree) or block size x10 (hetero).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--flip-rate", type=float, default=0.30, show_default=True)
@click.option("-o", "--out", "out_path", required=True,
              help="Output CSV path.")
def synth(model, n_samples, seed, flip_rate, out_path):
    """Generate one of the synthetic benchmark datasets as CSV."""

    def body():
        cfg = {"command": "synth", "model": model, "n_samples": n_samples,
               "seed": seed, "flip_rate": flip_rate, "out": out_path}
        _echo_config(cfg)
        if model == "tree":
            spec = TreeModelSpec(seed=seed)
            if n_samples is not None:
                spec.n_samples = n_samples
            table = gen_tree(spec)
        else:
            spec = HeteroModelSpec(seed=seed, flip_rate=flip_rate)
            if n_samples is not None:
                if n_samples % 10:
                    raise HofsError("hetero sample count must be a "
                                    "multiple of 10")
                spec.block_size = n_samples // 10
            table = gen_hetero(spec)
        _atomic_write(out_path, lambda tmp: write_csv(table, tmp))
        click.echo("wrote %s (%d samples, %d features)" %
                   (out_path, table.n_samples, table.n_features))

    _guarded(body)


@main.command()
@click.option("--data", "data_path", required=True)
@click.option("--label-column", default="label", show_default=True)
@click.option("--methods", default="hofs,mim,mrmr,jmi,cmim",
              show_default=True, help="Comma-separated method list.")
@click.option("--k-list", default=None,
              help="Comma-separated feature counts to evaluate.")
@click.option("--folds", type=int, default=10, show_default=True)
@_bins_option
@_coverage_option
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", default=None)
def bench(data_path, label_column, methods, k_list, folds, bins, coverage,
          seed, out_dir):
    """Compare selection methods by held-out probe error."""

    def body():
        method_list = [m.strip().lower() for m in methods.split(",")
                       if m.strip()]
        if not method_list:
            raise CriterionError("--methods lists no method")
        for m in method_list:
            if m not in _METHODS:
                raise CriterionError("unknown method %r" % (m,))
        cfg = {"command": "bench", "data": data_path,
               "label_column": label_column, "methods": method_list,
               "k_list": k_list, "folds": folds, "bins": bins,
               "C": coverage, "seed": seed}
        _echo_config(cfg)
        table = _load_table(data_path, label_column, "drop")
        m = table.n_features
        if k_list:
            ks = sorted({int(k) for k in k_list.split(",") if k.strip()})
            if any(k < 1 or k > m for k in ks):
                raise EvalError("k values must lie in [1, %d]" % (m,))
        else:
            ks = default_k_values(m)
        t = max(ks)
        view = discretize(table, bins=bins)
        orders = {}
        for method in method_list:
            if method == "hofs":
                config = HofsConfig(C=coverage, bins=bins)
                partition, _ = run_hofs(table, t, config)
                orders[method] = partition.selection_order
            else:
                result = select_greedy(Criterion(kind=method), view,
                                       table.labels, t)
                orders[method] = result.order
        # the probe error is a function of the feature set: methods whose
        # top-k hold the same features share it, so each set is validated once
        errors = {}
        rows = []
        for method in method_list:
            for k in ks:
                top = tuple(sorted(orders[method][:k]))
                if top not in errors:
                    errors[top] = cross_validate(table, top, n_folds=folds,
                                                 seed=seed)
                rows.append({"method": method, "k": k, "error": errors[top]})
        out = _resolve_out_dir(out_dir)
        names = table.feature_names
        payload = {"config": cfg,
                   "orders": {mth: [names[f] for f in order]
                              for mth, order in orders.items()},
                   "results": rows}
        _write_json(os.path.join(out, "report.json"), payload)
        lines = ["method,k,error"]
        lines += ["%s,%d,%.6f" % (r["method"], r["k"], r["error"])
                  for r in rows]
        _atomic_write_text(os.path.join(out, "report.csv"),
                           "\n".join(lines) + "\n")
        for r in rows:
            click.echo("%s k=%d error=%.3f%%" %
                       (r["method"], r["k"], r["error"]))
        click.echo("wrote %s" % (os.path.join(out, "report.json"),))

    _guarded(body)


@main.command()
@click.option("--data", "data_path", required=True)
@click.option("--label-column", default="label", show_default=True)
@click.option("-T", "--n-select", type=int, default=None)
@_bins_option
@_coverage_option
@click.option("--out-dir", default=None)
def diagnose(data_path, label_column, n_select, bins, coverage, out_dir):
    """Run the subset selector and report model health diagnostics."""

    def body():
        cfg = {"command": "diagnose", "data": data_path,
               "label_column": label_column, "n_select": n_select,
               "bins": bins, "C": coverage}
        _echo_config(cfg)
        table = _load_table(data_path, label_column, "drop")
        t = n_select if n_select is not None else table.n_features
        config = HofsConfig(C=coverage, bins=bins)
        partition, trace = run_hofs(table, t, config)
        max_between, per_corr = partition_correlation(partition, table)
        balance, per_balance = r_balance(partition, table, config,
                                         per_subset=True)
        curve = information_gain_curve(trace)
        ranks = partition.ranks()
        names = table.feature_names
        payload = {
            "config": cfg,
            "subsets": [{
                "features": [names[f] for f in sub.feature_ids],
                "mi_estimate": sub.mi_estimate,
                "rank": ranks[i],
                "mean_corr": per_corr[i],
                "balance_ratio": per_balance[i],
            } for i, sub in enumerate(partition.subsets)],
            "max_between_corr": max_between,
            "avg_balance_ratio": balance,
            "gain_curve": curve,
            "total_mi": partition.total_mi(),
        }
        out = _resolve_out_dir(out_dir)
        _write_json(os.path.join(out, "diagnostics.json"), payload)
        click.echo("max between-subset correlation: %s" %
                   ("n/a" if max_between is None else
                    "%.4f" % (max_between,)))
        click.echo("avg balance ratio: %.4f" % (balance,))
        click.echo("wrote %s" % (os.path.join(out, "diagnostics.json"),))

    _guarded(body)


if __name__ == "__main__":
    main()
