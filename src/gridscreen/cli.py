"""Command-line entry point: gen-data, train, eval, sweep, solve.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Flags may
also be supplied through a JSON file via --config; explicit flags win.
Every flag value, from the command line or --config, is checked before
any work starts.  A seed, sample or thread count, magnitude, threshold or
model kind is checked when it is parsed, by its flag's argparse type or
choices, which are built on the predicate the library checks that value
with; so a bad value exits 2 naming its flag, or its config key.  The
other model hyperparameters are checked as ModelConfig is built from them,
and a file path as the command first reads or writes it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dcopf import check_limits, full_monitored_set, solve_opf
from .gnn import MODEL_KINDS, Binding, ModelConfig, init_model, load_model, save_model, train
from .netcase import CaseError, parse_case, to_graph
from .pipeline import (
    ModelPredictor, _report_files, _write_csv, evaluate, write_report, write_sweep_csv,
)
from .samplegen import (
    EDGE_FEATURE_WIDTH,
    NODE_FEATURE_WIDTH,
    _is_count,
    _is_magnitude,
    _is_seed,
    _is_threshold,
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
    if dataset.network != network:
        raise ConfigError(f"{path}: dataset was generated from a different network than the case file")
    return dataset


def _split(dataset, path: str, seed: int):
    """The train, validation and test splits of the dataset read from path; one too small to split is a ConfigError."""
    try:
        return split_dataset(dataset, SPLIT_RATIOS, seed)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _check_outputs_apart(args, outputs: list[tuple[str, str]], inputs: tuple[str, ...]) -> None:
    """Check every output file before any work starts.

    outputs are (flag, path) pairs; inputs name the flags of the command's
    input files, and a --config file is an input of every command.  No
    output may be an existing directory, or name an input file or another
    output; paths are compared by realpath, so a symlink or a '..' detour
    to the same file is caught.  An --out-dir file's directory may be made
    later, but any other output's directory must exist.
    """
    seen = [(f"--{name}", path, os.path.realpath(path))
            for name in (*inputs, "config") if (path := getattr(args, name))]
    for flag, path in outputs:
        if Path(path).is_dir():
            raise ConfigError(f"{flag} {path} is a directory")
        parent = Path(path).parent
        if flag != "--out-dir" and not parent.is_dir():
            raise ConfigError(f"{flag} {path}: output directory {parent} does not exist")
        real = os.path.realpath(path)
        for other_flag, other_path, other_real in seen:
            if real == other_real:
                raise ConfigError(f"{flag} {path} names the same file as {other_flag} {other_path}")
        seen.append((flag, path, real))


def _check_out_dir_target(path: str) -> None:
    """An --out-dir must be a directory, or creatable as one, before any work starts."""
    p = Path(path)
    existing = next(a for a in (p, *p.parents) if a.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out-dir {p}: {existing} exists and is not a directory")


def _check_binding(model, network, path: str) -> None:
    """The model must have been built for this case's buses, branches and feature widths."""
    case = Binding(network.num_buses, network.num_branches, NODE_FEATURE_WIDTH, EDGE_FEATURE_WIDTH)
    wrong = [f"{name} {value} (the case has {getattr(case, name)})"
             for name, value in model.binding.__dict__.items() if value != getattr(case, name)]
    if wrong:
        raise ConfigError(f"{path}: model does not fit the case: " + ", ".join(wrong))


def _checked(convert, ok, wanted: str):
    """An argparse type: `convert` the text, then refuse a value that `ok` rejects, saying it must be `wanted`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


_seed = _checked(int, _is_seed, "an integer in [0, 2**64)")
_count = _checked(int, _is_count, "a positive integer")
_threshold = _checked(float, _is_threshold, "a number in (0, 1]")
_magnitude = _checked(float, _is_magnitude, "a number in [0, 1)")


def _tau_tag(threshold: float) -> str:
    return f"{int(round(threshold * 100)):03d}"


def _parse_threshold_list(text: str) -> list[float]:
    """The argparse type of --thresholds: sorted fractions from a comma list, read above 1 as percents; one file tag each."""
    taus = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            value = float(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"threshold {tok!r} is not a number") from None
        if value > 1.0:
            value /= 100.0  # percent form, e.g. 95 -> 0.95
        if not _is_threshold(value):
            raise argparse.ArgumentTypeError(f"threshold {tok} out of range (0, 1] (or (0, 100] as percent)")
        taus.append(value)
    if not taus:
        raise argparse.ArgumentTypeError("no thresholds given")
    taus = sorted(set(taus))
    for low, high in zip(taus, taus[1:]):  # sorted, so thresholds that share a tag are neighbours
        if _tau_tag(low) == _tau_tag(high):
            raise argparse.ArgumentTypeError(f"thresholds {low} and {high} share the file tag {_tau_tag(high)}, "
                                             f"so the files of one would replace the other's")
    return taus


def cmd_gen_data(args) -> int:
    _check_outputs_apart(args, [("--out", args.out)], ("case",))
    network = _load_case(args.case)
    t0 = time.perf_counter()
    dataset = generate_dataset(network, args.samples, args.magnitude, args.seed, threads=args.threads)
    elapsed = time.perf_counter() - t0
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset.samples)} samples to {args.out} "
          f"({dataset.redraws} infeasible redraws, {elapsed:.2f} s)")
    return 0


def _train_step(kind: str, config: ModelConfig, network, train_split, val_split, threshold: float):
    """The train step of train and sweep: a fresh model on the training split's normalizer, trained at `threshold`."""
    sample = train_split[0]
    model = init_model(
        config,
        sample.node_features.shape[1],
        sample.edge_features.shape[1],
        num_buses=network.num_buses,
        num_branches=network.num_branches,
        normalizer=fit_normalizer(train_split),
        kind=kind,
    )
    return train(model, network, train_split, val_split, threshold)


def _eval_step(model, network, test_split, threshold: float, out_dir, tag: str):
    """The eval step of eval and sweep: screen the test split with the model and write the report files."""
    report = evaluate(network, ModelPredictor(model, to_graph(network)), test_split, threshold)
    write_report(report, out_dir, tag)
    return report


def _write_history_csv(history, path) -> None:
    """One row per epoch, written atomically."""
    _write_csv(path, ["epoch", "train_loss", "val_loss", "train_acc", "val_acc"], (
        [i + 1, history.train_loss[i], history.val_loss[i], history.train_acc[i], history.val_acc[i]]
        for i in range(len(history))))


def _config_from_flags(args) -> ModelConfig:
    try:
        return ModelConfig(num_layers=args.layers, channels=args.channels, seed=args.seed,
                           learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_train(args) -> int:
    history_path = args.history or str(Path(args.out).with_suffix("")) + "_history.csv"
    _check_outputs_apart(args, [("--out", args.out), ("--history", history_path)], ("case", "data"))
    config = _config_from_flags(args)
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    train_split, val_split, _ = _split(dataset, args.data, args.seed)
    t0 = time.perf_counter()
    result = _train_step(args.baseline, config, network, train_split, val_split, args.threshold)
    elapsed = time.perf_counter() - t0
    save_model(result.best_model, args.out)
    _write_history_csv(result.history, history_path)
    last = len(result.history) - 1
    print(f"trained {args.baseline} for {len(result.history)} epochs in {elapsed:.2f} s at threshold {args.threshold}: "
          f"val_loss {result.history.val_loss[last]:.6f}, "
          f"val_acc {result.history.val_acc[last]:.4f}; "
          f"model -> {args.out}, history -> {history_path}")
    return 0


def cmd_eval(args) -> int:
    _check_out_dir_target(args.out_dir)
    model = _read_input("model", args.model, load_model)
    threshold = args.threshold if args.threshold is not None else model.trained_threshold
    if threshold is None:
        raise ConfigError("--threshold required: model file records no training threshold")
    threshold = float(threshold)  # load_model checked a model's threshold; an int one prints as a float
    if model.trained_threshold is not None and abs(model.trained_threshold - threshold) > 1e-12:
        print(f"warning: model was trained at threshold {model.trained_threshold}, "
              f"evaluating at {threshold}", file=sys.stderr)
    # train and sweep split with the seed they store in the model config
    seed = model.config.seed if args.seed is None else args.seed
    if seed != model.config.seed:
        print(f"warning: model was trained on the split of seed {model.config.seed}, "
              f"evaluating on the split of seed {seed}", file=sys.stderr)
    tag = _tau_tag(threshold)
    _check_outputs_apart(args, [("--out-dir", str(path)) for path in _report_files(args.out_dir, tag).values()],
                         ("case", "data", "model"))
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    _check_binding(model, network, args.model)
    _, _, test_split = _split(dataset, args.data, seed)
    report = _eval_step(model, network, test_split, threshold, args.out_dir, tag)
    print(f"threshold {threshold}: prediction error {report.edge_prediction_error_pct:.4f}%, "
          f"samples over limit {report.pct_samples_with_violation:.2f}%, "
          f"lines monitored {report.pct_lines_monitored:.2f}%, "
          f"time {report.time_pct:.2f}% of full")
    return 0


def cmd_sweep(args) -> int:
    tags = [_tau_tag(tau) for tau in args.thresholds]
    _check_out_dir_target(args.out_dir)
    out_dir = Path(args.out_dir)
    outputs = [("--out-dir", str(out_dir / "sweep.csv"))]
    for tag in tags:
        outputs += [("--out-dir", str(path))
                    for path in (out_dir / f"model_{tag}.json", *_report_files(out_dir, tag).values())]
    _check_outputs_apart(args, outputs, ("case", "data"))
    config = _config_from_flags(args)
    network = _load_case(args.case)
    dataset = _load_dataset_for(network, args.data)
    train_split, val_split, test_split = _split(dataset, args.data, args.seed)
    reports = []
    for tau, tag in zip(args.thresholds, tags):
        model = _train_step(args.baseline, config, network, train_split, val_split, tau).best_model
        out_dir.mkdir(parents=True, exist_ok=True)  # once a model is trained, so an early failure leaves no directory
        save_model(model, out_dir / f"model_{tag}.json")
        report = _eval_step(model, network, test_split, tau, out_dir, tag)
        reports.append(report)
        print(f"threshold {tau}: error {report.edge_prediction_error_pct:.4f}%, "
              f"monitored {report.pct_lines_monitored:.2f}%, time {report.time_pct:.2f}%")
    write_sweep_csv(reports, out_dir / "sweep.csv")
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
    p.add_argument("--baseline", choices=MODEL_KINDS, default=MODEL_KINDS[0])
    p.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    p.add_argument("--lr", type=float, default=ModelConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=ModelConfig.batch_size)
    p.add_argument("--layers", type=int, default=ModelConfig.num_layers)
    p.add_argument("--channels", type=int, default=ModelConfig.channels)
    p.add_argument("--seed", type=_seed, default=ModelConfig.seed)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="gridscreen",
        description="DC optimal power flow constraint screening with a learned line-congestion predictor",
    )
    parser.add_argument("--config", help="JSON file of flag defaults (explicit flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a solved-sample dataset")
    p.add_argument("--case", required=True)
    p.add_argument("--samples", type=_count, required=True)
    p.add_argument("--magnitude", type=_magnitude, default=0.1,
                   help="largest load draw away from the base, as a fraction in [0, 1)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_count, default=1)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a congestion predictor")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=_threshold, required=True,
                   help="loading threshold as a fraction in (0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="history CSV path (default: <out>_history.csv)")
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model and emit report files")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_threshold, default=None,
                   help="fraction in (0, 1]; defaults to the model's training threshold")
    p.add_argument("--seed", type=_seed, default=None,
                   help="split seed; defaults to the seed the model was trained with")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train and evaluate across thresholds")
    p.add_argument("--case", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--thresholds", type=_parse_threshold_list, required=True,
                   help="comma list of fractions in (0, 1]; values above 1 are read as percent (e.g. 70,75,95)")
    p.add_argument("--out-dir", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("solve", help="solve one case and print the dispatch")
    p.add_argument("--case", required=True)
    p.add_argument("--load", help="per-bus load file (JSON array or whitespace list, MW)")
    p.add_argument("--monitor", default="all",
                   help="'all', 'none', or a file of 0-based branch indices")
    p.set_defaults(func=cmd_solve)

    # argparse's own map of each subcommand's name to its parser
    return parser, sub.choices


def _config_tokens(path: Path, parser: argparse.ArgumentParser) -> list[str]:
    """A --config file's entries as --flag=value tokens, each checked by its flag's own conversion."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        overrides = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: the config must be a JSON object of flag defaults")
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    unknown = sorted(set(k.replace("-", "_") for k in overrides) - set(flags))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {unknown}")
    tokens = []
    for key, value in overrides.items():
        action = flags[key.replace("-", "_")]
        try:
            if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                raise ValueError
            converted = (action.type or str)(str(value))
            if action.choices is not None and converted not in action.choices:
                raise ValueError
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"{path}: config key {key!r}: {json.dumps(value)} is not a valid "
                              f"{action.option_strings[0]} value") from None
        tokens.append(f"{action.option_strings[0]}={value}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand onward, past --config's value
    known, _ = pre.parse_known_args(argv)
    parser, subs = build_parser()

    if known.config and known.rest and known.rest[0] in subs:
        # right after the subcommand, so the explicit flags that follow win
        at = len(argv) - len(known.rest) + 1
        try:
            argv[at:at] = _config_tokens(Path(known.config), subs[known.rest[0]])
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

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
