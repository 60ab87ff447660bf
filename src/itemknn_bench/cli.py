"""Command-line harness: pipeline subcommands plus the full experiment runner.

Subcommands: stats, preprocess, split, train, recommend, evaluate,
experiment, report.  ``experiment`` is the replication path; its flags can
also come from a key=value config file, with command-line flags taking
precedence.  Exit code is 0 on success, 2 on any tagged failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ContractError, ExperimentError, SchemaError
from .harness import (
    DEFAULT_PRESETS,
    DEFAULT_SEEDS,
    ExperimentConfig,
    ExperimentResult,
    emit_report,
    run_experiment,
)
from .ingest import (
    ImplicitThreshold,
    load_interactions,
    save_interactions,
    stats,
    to_implicit,
)
from .knn import (
    STRATEGY_FULL,
    STRATEGY_TOPK,
    build_matrix,
    cosine_similarity,
    load_similarity,
    save_similarity,
    truncate_topk,
)
from .metrics import IDCG_FIXED_K, IDCG_TRUNCATED, report_from_gains, user_gains
from .recommend import PRESETS, load_recommendations, recommend_all, save_recommendations
from .split import SplitConfig, save_split, split_holdout


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in _parse_list(text))


def _parse_idcg(text: str) -> tuple[str, ...]:
    if text == "both":
        return (IDCG_TRUNCATED, IDCG_FIXED_K)
    return tuple(_parse_list(text))


def _parse_column_map(text: str) -> dict[str, str]:
    out = {}
    for pair in _parse_list(text):
        key, _, value = pair.partition("=")
        if not value:
            raise ValueError(f"bad column-map entry {pair!r} (want field=column)")
        out[key.strip()] = value.strip()
    return out


def _read_config_file(path: str, keys: set[str]) -> dict[str, str]:
    """The key=value lines of a config file; each key is one of ``keys``, once."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}: bad config line {raw!r} (want key=value)")
        if key not in keys:
            raise ValueError(f"{path}: line {line_no}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(keys))})")
        if key in values:
            raise ValueError(f"{path}: line {line_no}: key {key!r} is repeated")
        values[key] = value
    return values


def _threshold_from(args) -> ImplicitThreshold | None:
    if args.threshold is None:
        return None
    return ImplicitThreshold(args.threshold, args.threshold_mode or "gt")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="interaction file path")
    p.add_argument("--format", default="atomic", choices=["atomic", "csv"])
    p.add_argument("--column-map", type=_parse_column_map, default=None,
                   help="logical=actual column pairs, e.g. user=uid,item=movie")


def _cmd_stats(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    payload = {"dataset": Path(args.data).stem, "before": stats(ds).as_dict()}
    threshold = _threshold_from(args)
    if threshold is not None:
        payload["after"] = stats(to_implicit(ds, threshold)).as_dict()
        payload["threshold"] = {"cutoff": threshold.cutoff, "mode": threshold.mode}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_preprocess(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    implicit = to_implicit(ds, ImplicitThreshold(args.threshold, args.threshold_mode))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = save_interactions(implicit, out_dir / f"{Path(args.data).stem}.implicit.inter")
    print(path)
    return 0


def _cmd_split(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    stem = Path(args.data).stem
    for seed in args.seeds:
        pair = split_holdout(ds, SplitConfig(train_ratio=args.ratio, seed=seed))
        train_path, test_path = save_split(pair, args.out, f"{stem}.seed{seed}")
        print(train_path)
        print(test_path)
    return 0


def _cmd_train(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    s = cosine_similarity(build_matrix(ds))
    if args.strategy == STRATEGY_TOPK:
        s = truncate_topk(s, args.k)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = save_similarity(s, out_dir / f"{Path(args.data).stem}.{args.strategy}.sim.tsv",
                           ds.item_ids)
    print(path)
    return 0


def _load_test(args):
    test = load_interactions(args.test, args.format, args.column_map)
    if test.n_interactions == 0:
        raise ContractError(f"{args.test}: no test interactions: nothing to evaluate")
    return test


def _codes(ids: list[str], universe: list[str]) -> np.ndarray:
    """Each id's code in ``universe``, or -1 where the universe lacks it."""
    code = {x: c for c, x in enumerate(universe)}
    return np.array([code.get(x, -1) for x in ids], dtype=np.int64)


def _cmd_recommend(args) -> int:
    preset = PRESETS[args.preset]
    train = load_interactions(args.train, args.format, args.column_map)
    test = _load_test(args)
    # Score in the train file's own universe, the one train saved its matrix in.
    # A test user absent from train has no profile, so no list.
    users = _codes(test.user_ids, train.user_ids)[test.users]  # train codes of the test rows
    items = _codes(test.item_ids, train.item_ids)[test.items]
    keys = users * train.n_items + items
    shared = (users >= 0) & (items >= 0) & np.isin(keys, train.users * train.n_items + train.items)
    if shared.any():
        t = int(np.argmax(shared))
        raise ContractError(
            f"{args.test}: line {t + 2}: pair ({test.user_ids[test.users[t]]}, "
            f"{test.item_ids[test.items[t]]}) is also in train file {args.train}, but the two "
            f"files of a holdout split share no pair"
        )
    users = np.unique(users[users >= 0])
    x = build_matrix(train)
    if args.matrix:
        s = load_similarity(args.matrix, train.item_ids)
        want_k = args.k if preset.matrix_strategy == STRATEGY_TOPK else None
        if (s.strategy, s.k) != (preset.matrix_strategy, want_k):
            raise ContractError(
                f"{args.matrix} is a {s.strategy} matrix with k={s.k or 0}, but preset "
                f"{args.preset} with --k {args.k} needs a {preset.matrix_strategy} matrix "
                f"with k={want_k or 0}"
            )
    else:
        s = cosine_similarity(x)
        if preset.matrix_strategy == STRATEGY_TOPK:
            s = truncate_topk(s, args.k)
    recs = recommend_all(s, x, preset.scoring_mode(args.k), args.topn, users)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = save_recommendations(
        recs, train, out_dir / f"{Path(args.train).stem}.{args.preset}.recs.tsv"
    )
    print(path)
    return 0


def _cmd_evaluate(args) -> int:
    recs = load_recommendations(args.recs)
    test = _load_test(args)
    # The dump's external ids in the test file's codes; an item it lacks is -1, a miss.
    users = _codes(list(recs), test.user_ids)
    if (users < 0).any():
        absent = list(recs)[int(np.argmax(users < 0))]
        raise ContractError(f"user {absent!r} of {args.recs} is not in test file {args.test}")
    items = _codes([item for entries in recs.values() for item, _ in entries], test.item_ids)
    sizes = np.array([len(entries) for entries in recs.values()], dtype=np.int64)
    hits, n_relevant = user_gains(test, users, items, sizes, args.topn)
    payload = {mode: report_from_gains(list(recs), hits, n_relevant, args.topn, mode).as_dict()
               for mode in args.idcg}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "evaluation.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    """Merge CLI flags over config-file values over built-in defaults."""
    # A config key is an experiment flag's name, as pick reads it.
    keys = {name.replace("_", "-") for name in vars(args)} - {"command", "func", "config"}
    file_values = _read_config_file(args.config, keys) if args.config else {}

    def pick(flag: str, parser, default):
        cli_value = getattr(args, flag.replace("-", "_"))
        if cli_value is not None:
            return cli_value
        if flag in file_values:
            return parser(file_values[flag])
        return default

    threshold_cutoff = pick("threshold", float, None)
    if threshold_cutoff is None:
        raise ValueError("experiment requires --threshold (or threshold= in the config file)")
    data = pick("data", str, None)
    if data is None:
        raise ValueError("experiment requires --data (or data= in the config file)")
    return ExperimentConfig(
        data=data,
        format=pick("format", str, "atomic"),
        column_map=pick("column-map", _parse_column_map, None),
        threshold=ImplicitThreshold(threshold_cutoff, pick("threshold-mode", str, "gt")),
        train_ratio=pick("ratio", float, 0.8),
        seeds=pick("seeds", _parse_seeds, DEFAULT_SEEDS),
        k=pick("k", int, 20),
        n=pick("topn", int, 10),
        presets=pick("preset", lambda t: tuple(_parse_list(t)), DEFAULT_PRESETS),
        idcg_modes=pick("idcg", _parse_idcg, (IDCG_TRUNCATED,)),
        out_dir=pick("out", str, "out"),
        formats=pick("emit", lambda t: tuple(_parse_list(t)), ("json", "csv", "md")),
    )


def _cmd_experiment(args) -> int:
    cfg = _experiment_config(args)
    result = run_experiment(cfg)
    written = emit_report(result)
    for (preset, seed, mode), rep in result.cells.items():
        print(
            f"{cfg.dataset} preset={preset} seed={seed} idcg={mode} "
            f"nDCG@{cfg.n}={rep.mean_ndcg:.4f} precision={rep.mean_precision:.4f} "
            f"recall={rep.mean_recall:.4f}"
        )
    for path in written:
        print(path)
    return 0


def _cmd_report(args) -> int:
    payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
    result = ExperimentResult.from_json_dict(payload)
    for path in emit_report(result, formats=args.emit, out_dir=args.out):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itemknn-bench",
        description="Item-based KNN recommendation with pluggable similarity "
        "strategies, scoring modes, and nDCG semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics, optionally after thresholding")
    _add_data_args(p)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--threshold-mode", choices=["gt", "ge"], default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("preprocess", help="convert explicit ratings to implicit feedback")
    _add_data_args(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--threshold-mode", choices=["gt", "ge"], default="gt")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("split", help="seeded per-user holdout split of an implicit dataset")
    _add_data_args(p)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seeds", type=_parse_seeds, default=DEFAULT_SEEDS)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="build and persist an item-item similarity matrix")
    _add_data_args(p)
    p.add_argument("--strategy", choices=[STRATEGY_FULL, STRATEGY_TOPK], default=STRATEGY_TOPK)
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recommend", help="emit top-N recommendations for test users")
    p.add_argument("--train", required=True, help="train interaction file")
    p.add_argument("--test", required=True, help="test interaction file")
    p.add_argument("--format", default="atomic", choices=["atomic", "csv"])
    p.add_argument("--column-map", type=_parse_column_map, default=None)
    p.add_argument("--matrix", default=None, help="previously trained similarity file")
    p.add_argument("--preset", choices=sorted(PRESETS), default="recbole")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--topn", type=int, default=10)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score a recommendation dump against a test set")
    p.add_argument("--recs", required=True, help="recommendation dump file")
    p.add_argument("--test", required=True, help="test interaction file")
    p.add_argument("--format", default="atomic", choices=["atomic", "csv"])
    p.add_argument("--column-map", type=_parse_column_map, default=None)
    p.add_argument("--topn", type=int, default=10)
    p.add_argument("--idcg", type=_parse_idcg, default=(IDCG_TRUNCATED,))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("experiment", help="full preset x seed x IDCG-mode replication run")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--data", default=None)
    p.add_argument("--format", default=None, choices=["atomic", "csv"])
    p.add_argument("--column-map", type=_parse_column_map, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--threshold-mode", default=None, choices=["gt", "ge"])
    p.add_argument("--ratio", type=float, default=None)
    p.add_argument("--seeds", type=_parse_seeds, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--topn", type=int, default=None)
    p.add_argument("--preset", type=lambda t: tuple(_parse_list(t)), default=None)
    p.add_argument("--idcg", type=_parse_idcg, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--emit", type=lambda t: tuple(_parse_list(t)), default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="re-emit reports from a stored report.json")
    p.add_argument("--input", required=True)
    p.add_argument("--emit", type=lambda t: tuple(_parse_list(t)), default=("csv", "md"))
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExperimentError as e:
        print(f"error {e}", file=sys.stderr)
        return 2
    except (SchemaError, ContractError, ValueError, OSError, KeyError) as e:
        print(f"error [{args.command}] {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
