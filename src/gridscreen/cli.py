"""Command-line entry point: gen-data, train, eval, sweep, solve.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Flags may
also be supplied through a JSON file via --config; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .dcopf import check_limits, full_monitored_set, solve_opf
from .gnn import ModelConfig, init_mlp, init_model, load_model, save_model, train
from .netcase import CaseError, parse_case, to_graph
from .pipeline import (
    ModelPredictor,
    evaluate,
    summary_row,
    threshold_sweep,
    write_branch_csv,
    write_cost_csv,
    write_report_json,
    write_sweep_csv,
    write_wrong_histogram_csv,
)
from .samplegen import (
    fit_normalizer,
    generate_dataset,
    read_dataset,
    split_dataset,
    write_dataset,
)

SPLIT_RATIOS = (0.8, 0.1, 0.1)


class ConfigError(ValueError):
    """User-facing configuration problem; maps to exit code 2."""


def _read_input(kind: str, path: str, reader):
    """reader(path) on an existing file; a malformed file is a ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{kind} file not found: {p}")
    try:
        return reader(p)
    except CaseError as exc:
        raise ConfigError(f"{p}: {exc}") from None
    except ValueError as exc:  # dataset and model readers name the file themselves
        raise ConfigError(str(exc)) from None


def _load_case(path: str):
    return _read_input("case", path, lambda p: parse_case(p.read_text(encoding="utf-8")))


def _load_dataset_for(network, path: str):
    dataset = _read_input("dataset", path, read_dataset)
    if dataset.network.fingerprint() != network.fingerprint():
        raise ConfigError(f"{path}: dataset was generated from a different network than the case file")
    return dataset


def _check_threshold(value: float) -> float:
    if not 0 < value <= 1:
        raise ConfigError(f"threshold must be in (0, 1], got {value}")
    return float(value)


def _parse_threshold_list(text: str) -> list[float]:
    taus = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            value = float(tok)
        except ValueError:
            raise ConfigError(f"threshold {tok!r} is not a number") from None
        if value > 1.0:
            value /= 100.0  # percent form, e.g. 95 -> 0.95
        if not 0 < value <= 1:
            raise ConfigError(f"threshold {tok} out of range (0, 1] (or (0, 100] as percent)")
        taus.append(value)
    if not taus:
        raise ConfigError("no thresholds given")
    return sorted(set(taus))


def cmd_gen_data(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if not 0 <= args.magnitude < 1:
        raise ConfigError(f"--magnitude must be in [0, 1), got {args.magnitude}")
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    network = _load_case(args.case)
    t0 = time.perf_counter()
    dataset = generate_dataset(network, args.samples, args.magnitude, args.seed, threads=args.threads)
    elapsed = time.perf_counter() - t0
    write_dataset(dataset, args.out)
    print(f"wrote {dataset.count} samples to {args.out} "
          f"({dataset.redraws} infeasible redraws, {elapsed:.2f} s)")
    return 0


def _build_model(kind: str, config: ModelConfig, network, train_split):
    normalizer = fit_normalizer(train_split)
    sample = train_split[0]
    init = init_model if kind == "gnn" else init_mlp
    return init(
        config,
        sample.node_features.shape[1],
        sample.edge_features.shape[1],
        num_buses=network.num_buses,
        num_branches=network.num_branches,
        normalizer=normalizer,
    )


def _write_history_csv(history, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "train_acc", "val_acc"])
        for i in range(len(history)):
            writer.writerow([i + 1, history.train_loss[i], history.val_loss[i],
                             history.train_acc[i], history.val_acc[i]])


def _config_from_flags(args) -> ModelConfig:
    try:
        return ModelConfig(
            num_layers=args.layers, node_channels=args.channels, edge_channels=args.channels,
            seed=args.seed, learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(args) -> int:
    threshold = _check_threshold(args.threshold)
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    train_split, val_split, _ = split_dataset(dataset, SPLIT_RATIOS, args.seed)
    config = _config_from_flags(args)
    model = _build_model(args.baseline, config, network, train_split)
    result = train(model, network, train_split, val_split, threshold)
    save_model(result.best_model, args.out)
    history_path = args.history or str(Path(args.out).with_suffix("")) + "_history.csv"
    _write_history_csv(result.history, history_path)
    last = len(result.history) - 1
    print(f"trained {args.baseline} for {len(result.history)} epochs at threshold {threshold}: "
          f"val_loss {result.history.val_loss[last]:.6f}, "
          f"val_acc {result.history.val_acc[last]:.4f}; "
          f"model -> {args.out}, history -> {history_path}")
    return 0


def _write_eval_outputs(report, out_dir: Path, tag: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_json(report, out_dir / f"report_{tag}.json")
    write_sweep_csv([report], out_dir / f"summary_{tag}.csv")
    write_branch_csv(report, out_dir / f"branches_{tag}.csv")
    write_wrong_histogram_csv(report, out_dir / f"wrong_histogram_{tag}.csv")
    write_cost_csv(report, out_dir / f"costs_{tag}.csv")


def _tau_tag(threshold: float) -> str:
    return f"{int(round(threshold * 100)):03d}"


def cmd_eval(args) -> int:
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    model = _read_input("model", args.model, load_model)
    threshold = args.threshold if args.threshold is not None else model.trained_threshold
    if threshold is None:
        raise ConfigError("--threshold required: model file records no training threshold")
    threshold = _check_threshold(threshold)
    if model.trained_threshold is not None and abs(model.trained_threshold - threshold) > 1e-12:
        print(f"warning: model was trained at threshold {model.trained_threshold}, "
              f"evaluating at {threshold}", file=sys.stderr)
    _, _, test_split = split_dataset(dataset, SPLIT_RATIOS, args.seed)
    predictor = ModelPredictor(model, to_graph(network))
    report = evaluate(network, predictor, test_split, threshold)
    _write_eval_outputs(report, Path(args.out_dir), _tau_tag(threshold))
    row = summary_row(report)
    print(f"threshold {threshold}: prediction error {row['prediction_error_pct']:.4f}%, "
          f"samples over limit {row['pct_samples_over_limit']:.2f}%, "
          f"lines monitored {row['pct_lines_monitored']:.2f}%, "
          f"time {row['time_pct']:.2f}% of full")
    return 0


def cmd_sweep(args) -> int:
    taus = _parse_threshold_list(args.thresholds)
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    train_split, val_split, test_split = split_dataset(dataset, SPLIT_RATIOS, args.seed)
    config = _config_from_flags(args)
    results = threshold_sweep(
        network, train_split, val_split, test_split, taus,
        model_factory=lambda tau: _build_model(args.baseline, config, network, train_split),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for report, model in results:
        tag = _tau_tag(report.threshold)
        save_model(model, out_dir / f"model_{tag}.json")
        _write_eval_outputs(report, out_dir, tag)
        row = summary_row(report)
        print(f"threshold {report.threshold}: error {row['prediction_error_pct']:.4f}%, "
              f"monitored {row['pct_lines_monitored']:.2f}%, time {row['time_pct']:.2f}%")
    write_sweep_csv([report for report, _ in results], out_dir / "sweep.csv")
    print(f"sweep table -> {out_dir / 'sweep.csv'}")
    return 0


def _read_load_file(path: str, network) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"load file not found: {p}")
    text = p.read_text(encoding="utf-8").strip()
    try:
        values = json.loads(text) if text.startswith("[") else [float(t) for t in text.split()]
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"{p}: cannot parse load file: {exc}") from None
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigError(f"{p}: the load must be a flat list of numbers")
    try:
        load = np.asarray(values, dtype=float)
        finite = np.isfinite(load).all()
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{p}: the load has a non-finite value")
    if load.size != network.num_buses:
        raise ConfigError(f"{p}: {load.size} load values for {network.num_buses} buses")
    return load


def _parse_monitor(spec: str, network) -> frozenset[int]:
    if spec == "all":
        return full_monitored_set(network)
    if spec == "none":
        return frozenset()
    p = Path(spec)
    if not p.is_file():
        raise ConfigError(f"--monitor must be 'all', 'none', or a file of branch indices; "
                          f"no such file: {spec}")
    indices = []
    for tok in p.read_text(encoding="utf-8").split():
        try:
            indices.append(int(tok))
        except ValueError:
            raise ConfigError(f"{p}: bad branch index {tok!r}") from None
    bad = [k for k in indices if not 0 <= k < network.num_branches]
    if bad:
        raise ConfigError(f"{p}: branch indices out of range: {bad}")
    return frozenset(indices)


def cmd_solve(args) -> int:
    network = _load_case(args.case)
    load = _read_load_file(args.load, network) if args.load else network.base_load()
    monitored = _parse_monitor(args.monitor, network)
    sol = solve_opf(network, load, monitored)
    if sol.status != "optimal":
        print(f"status: {sol.status}")
        return 0
    print(f"status: optimal")
    print(f"objective: {sol.objective:.6f}")
    print("generators:")
    for gi, gen in enumerate(network.generators):
        print(f"  bus {gen.bus:>4}  cost {gen.cost_per_mwh:8.2f}  "
              f"P {sol.p_g[gi]:10.4f} MW  [{gen.p_min_mw}, {gen.p_max_mw}]")
    report = check_limits(network, sol.flows)
    print("branches:")
    for k, br in enumerate(network.branches):
        mark = " monitored" if k in monitored else ""
        flag = " VIOLATION" if report.flags[k] else ""
        print(f"  {br.from_bus:>3}-{br.to_bus:<3} flow {sol.flows[k]:10.4f} MW  "
              f"limit {br.rate_a_mw:8.2f}{mark}{flag}")
    if report.any_violation:
        print(f"violations: {int(report.flags.sum())} branch(es), "
              f"worst overload {report.overload_mw.max():.4f} MW")
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """Model kind, training hyperparameters and seed, shared by train and sweep."""
    p.add_argument("--baseline", choices=("gnn", "mlp"), default="gnn")
    p.add_argument("--epochs", type=int, default=250)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--channels", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="gridscreen",
        description="DC optimal power flow constraint screening with a learned line-congestion predictor",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (explicit flags override)")
    sub = parser.add_subparsers(dest="command", required=True)
    subs: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser("gen-data", help="generate a solved-sample dataset")
    p.add_argument("--case", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--magnitude", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_gen_data)
    subs["gen-data"] = p

    p = sub.add_parser("train", help="train a congestion predictor")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, required=True,
                   help="loading threshold as a fraction in (0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="history CSV path (default: <out>_history.csv)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)
    subs["train"] = p

    p = sub.add_parser("eval", help="evaluate a model and emit report files")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="defaults to the model's training threshold")
    p.add_argument("--seed", type=int, default=0, help="split seed used at training time")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)
    subs["eval"] = p

    p = sub.add_parser("sweep", help="train and evaluate across thresholds")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--thresholds", required=True,
                   help="comma list; values above 1 are read as percent (e.g. 70,75,95)")
    p.add_argument("--out-dir", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep)
    subs["sweep"] = p

    p = sub.add_parser("solve", help="solve one case and print the dispatch")
    p.add_argument("--case", required=True)
    p.add_argument("--load", help="per-bus load file (JSON array or whitespace list, MW)")
    p.add_argument("--monitor", default="all",
                   help="'all', 'none', or a file of 0-based branch indices")
    p.set_defaults(func=cmd_solve)
    subs["solve"] = p

    return parser, subs


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    parser, subs = build_parser()

    if known.config:
        config_path = Path(known.config)
        if not config_path.is_file():
            print(f"error: config file not found: {config_path}", file=sys.stderr)
            return 2
        try:
            overrides = json.loads(config_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"error: {config_path}: invalid JSON: {exc}", file=sys.stderr)
            return 2
        command = next((a for a in argv if a in subs), None)
        target = subs.get(command)
        if target is not None:
            valid = {a.dest for a in target._actions}
            mapped = {k.replace("-", "_"): v for k, v in overrides.items()}
            unknown = set(mapped) - valid
            if unknown:
                print(f"error: {config_path}: unknown config keys: {sorted(unknown)}", file=sys.stderr)
                return 2
            target.set_defaults(**mapped)
            for action in target._actions:
                if action.dest in mapped:
                    action.required = False

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
