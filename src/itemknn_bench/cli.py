"""Command-line harness: pipeline subcommands plus the full experiment runner.

Subcommands: stats, preprocess, split, train, recommend, evaluate,
experiment, report.  ``experiment`` is the replication path; its flags can
also come from a key=value config file, with command-line flags taking
precedence.  Every flag of every subcommand, and every config-file key, goes
through the one parser per flag that ``_FLAGS`` names, and every given value
through experiment's one config check before any work.  A flag not given
takes the default its subcommand lists in ``_COMMANDS``, or else
``ExperimentConfig``'s default for the keyword it sets.  Exit code is 0 on
success, 2 on any tagged failure, argparse's own refusals included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import ContractError, ExperimentError, SchemaError
from .harness import (
    REPORT_FORMATS,
    ExperimentConfig,
    _canonical_json,
    _config_fault,
    check_formats,
    emit_report,
    load_report,
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
from .metrics import IDCG_MODES, report_from_gains
from .recommend import PRESETS, load_recommendations, recommend_all, save_recommendations
from .split import save_split, split_holdout


def _parse_list(text: str) -> tuple[str, ...]:
    """The comma-separated entries of ``text``; ``ValueError`` when it holds none."""
    if not (parts := tuple(part.strip() for part in text.split(",") if part.strip())):
        raise ValueError("an empty list")
    return parts


def _parse_column_map(text: str) -> dict[str, str]:
    out = {}
    for pair in _parse_list(text):
        key, _, value = (part.strip() for part in pair.partition("="))
        if not value:
            raise ValueError(f"entry {pair!r} is not field=column")
        if key in out:
            raise ValueError(f"field {key!r} is mapped twice")
        out[key] = value
    return out


# Each flag of every subcommand (an experiment flag is also a config-file key): its
# text's parser and the keyword it sets (cutoff and mode make the threshold).
_FLAGS = {
    "data": (str, "data"),
    "train": (str, "train"),
    "test": (str, "test"),
    "recs": (str, "recs"),
    "matrix": (str, "matrix"),
    "input": (str, "input"),
    "format": (str, "format"),
    "column-map": (_parse_column_map, "column_map"),
    "threshold": (float, "cutoff"),
    "threshold-mode": (str, "mode"),
    "ratio": (float, "train_ratio"),
    "seeds": (lambda text: tuple(int(s) for s in _parse_list(text)), "seeds"),
    "strategy": (str, "strategy"),
    "k": (int, "k"),
    "topn": (int, "n"),
    "preset": (_parse_list, "presets"),
    "idcg": (lambda text: IDCG_MODES if text == "both" else _parse_list(text), "idcg_modes"),
    "out": (str, "out"),
    "emit": (lambda text: check_formats(_parse_list(text)), "emit"),
}
_CONFIG = ExperimentConfig("", ImplicitThreshold(0))  # the defaults every subcommand shares
_REQUIRED = object()


def _default(flag: str, listed):
    """A flag's value when not given: the one its subcommand lists, else ``_CONFIG``'s."""
    return getattr(_CONFIG, _FLAGS[flag][1], None) if listed is None else listed


def _read_config_file(path: str, keys: set[str]) -> dict[str, str]:
    """The key=value lines of a config file; each key is one of ``keys``, once."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}: line {line_no}: bad config line {raw!r} (want key=value)")
        if key not in keys:
            raise ValueError(f"{path}: line {line_no}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(keys))})")
        if key in values:
            raise ValueError(f"{path}: line {line_no}: key {key!r} is repeated")
        values[key] = value
    return values


def _cmd_stats(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    payload = {"dataset": Path(args.data).stem, "before": stats(ds)}
    if (threshold := args.threshold) is not None:
        payload["after"] = stats(to_implicit(ds, threshold))
        payload["threshold"] = {"cutoff": threshold.cutoff, "mode": threshold.mode}
    print(_canonical_json(payload).decode("utf-8"), end="")
    return 0


def _cmd_preprocess(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    implicit = to_implicit(ds, args.threshold)
    path = save_interactions(implicit, Path(args.out, f"{Path(args.data).stem}.implicit.inter"))
    print(path)
    return 0


def _cmd_split(args) -> int:
    ds = load_interactions(args.data, args.format, args.column_map)
    stem = Path(args.data).stem
    for seed in args.seeds:
        train, test = split_holdout(ds, args.train_ratio, seed)
        train_path, test_path = save_split(train, test, args.out, f"{stem}.seed{seed}")
        print(train_path)
        print(test_path)
    return 0


def _cmd_train(args) -> int:
    if args.strategy not in (STRATEGY_FULL, STRATEGY_TOPK):
        raise ValueError(f"bad strategy {args.strategy!r}: not {STRATEGY_FULL} or {STRATEGY_TOPK}")
    ds = load_interactions(args.data, args.format, args.column_map)
    s = cosine_similarity(build_matrix(ds))
    if args.strategy == STRATEGY_TOPK:
        s = truncate_topk(s, args.k)
    path = save_similarity(s, Path(args.out, f"{Path(args.data).stem}.{args.strategy}.sim.tsv"),
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
    if len(args.presets) != 1:  # --preset is a list flag of known presets
        raise ValueError(f"bad preset {','.join(args.presets)!r}: recommend runs one preset")
    name = args.presets[0]
    preset = PRESETS[name]
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
        if s.k != want_k:
            raise ContractError(
                f"{args.matrix} is a {s.strategy} matrix with k={s.k or 0}, but preset "
                f"{name} with --k {args.k} needs a {preset.matrix_strategy} matrix "
                f"with k={want_k or 0}"
            )
    else:
        s = cosine_similarity(x)
        if preset.matrix_strategy == STRATEGY_TOPK:
            s = truncate_topk(s, args.k)
    recs = recommend_all(s, x, preset.scoring_mode(args.k), args.n, users)
    path = save_recommendations(
        recs, train, Path(args.out, f"{Path(args.train).stem}.{name}.recs.tsv")
    )
    print(path)
    return 0


def _cmd_evaluate(args) -> int:
    (users, user_ids), (items, item_ids), _ = load_recommendations(args.recs)
    test = _load_test(args)
    # The dump's distinct ids in the test file's codes; an item it lacks is -1, a miss.
    user_codes = _codes(user_ids, test.user_ids)
    if (user_codes < 0).any():
        absent = user_ids[int(np.argmax(user_codes < 0))]
        raise ContractError(f"user {absent!r} of {args.recs} is not in test file {args.test}")
    # One list per test user, in test code order: a user without dump rows
    # gets an empty list, which scores 0, as in the experiment.
    rows = user_codes[users]
    order = np.argsort(rows, kind="stable")  # keeps each list's rank order
    items = _codes(item_ids, test.item_ids)[items[order]]
    sizes = np.bincount(rows, minlength=test.n_users)
    payload = {mode: report_from_gains(test, np.arange(test.n_users), items, sizes, args.n,
                                       mode).as_dict() for mode in args.idcg_modes}
    text = _canonical_json(payload)
    print(text.decode("utf-8"), end="")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        Path(args.out, "evaluation.json").write_bytes(text)
    return 0


def _cmd_experiment(args) -> int:
    values = vars(args)
    out, formats = values.pop("out"), values.pop("emit")
    cfg = ExperimentConfig(**values)
    payload, timings = run_experiment(cfg)
    written = emit_report(payload, formats, out, timings)
    for seed in cfg.seeds:
        for preset in cfg.presets:
            for mode, rep in payload["results"][preset][str(seed)].items():
                print(
                    f"{cfg.dataset} preset={preset} seed={seed} idcg={mode} "
                    f"nDCG@{cfg.n}={rep['mean_ndcg']:.4f} "
                    f"precision={rep['mean_precision']:.4f} recall={rep['mean_recall']:.4f}"
                )
    for path in written:
        print(path)
    return 0


def _cmd_report(args) -> int:
    for path in emit_report(load_report(args.input), args.emit, args.out):
        print(path)
    return 0


_DATA = {"format": None, "column-map": None}
# Each subcommand: its handler, its help and its flags, each with the default it takes
# when not given: _REQUIRED, a value, or None for _default's.
_COMMANDS = {
    "stats": (_cmd_stats, "dataset statistics, optionally after thresholding",
              {"data": _REQUIRED, **_DATA, "threshold": None, "threshold-mode": None}),
    "preprocess": (_cmd_preprocess, "convert explicit ratings to implicit feedback",
                   {"data": _REQUIRED, **_DATA, "threshold": _REQUIRED, "threshold-mode": None,
                    "out": "out"}),
    "split": (_cmd_split, "seeded per-user holdout split of an implicit dataset",
              {"data": _REQUIRED, **_DATA, "ratio": None, "seeds": None, "out": "out"}),
    "train": (_cmd_train, "build and persist an item-item similarity matrix",
              {"data": _REQUIRED, **_DATA, "strategy": STRATEGY_TOPK, "k": None, "out": "out"}),
    "recommend": (_cmd_recommend, "emit top-N recommendations for test users",
                  {"train": _REQUIRED, "test": _REQUIRED, **_DATA, "matrix": None,
                   "preset": ("recbole",), "k": None, "topn": None, "out": "out"}),
    "evaluate": (_cmd_evaluate, "score a recommendation dump against a test set",
                 {"recs": _REQUIRED, "test": _REQUIRED, **_DATA, "topn": None, "idcg": None,
                  "out": None}),
    "experiment": (_cmd_experiment, "full preset x seed x IDCG-mode replication run",
                   {"data": _REQUIRED, **_DATA, "threshold": _REQUIRED, "threshold-mode": None,
                    "ratio": None, "seeds": None, "k": None, "topn": None, "preset": None,
                    "idcg": None, "out": "out", "emit": REPORT_FORMATS}),
    "report": (_cmd_report, "re-emit reports from a stored report.json",
               {"input": _REQUIRED, "emit": ("csv", "md"), "out": "out"}),
}


def _settings(args: argparse.Namespace) -> argparse.Namespace:
    """Each flag of ``args.command`` parsed into its keyword: the flag's text over
    experiment's config file over the flag's default.  Every given value then passes
    experiment's config check, so a bad one is refused as ``bad <flag> '<text>': ...``."""
    flags = _COMMANDS[args.command][2]
    texts = {flag: text for flag in flags
             if (text := getattr(args, flag.replace("-", "_"))) is not None}
    if getattr(args, "config", None):
        texts = {**_read_config_file(args.config, set(flags)), **texts}
    values = {}
    for flag, listed in flags.items():
        parse, keyword = _FLAGS[flag]
        if flag not in texts:
            values[keyword] = _default(flag, listed)
            continue
        try:
            values[keyword] = parse(texts[flag])
        except ValueError as e:
            raise ValueError(f"bad {flag} {texts[flag]!r}: {e}") from None
    if missing := [f for f, listed in flags.items() if listed is _REQUIRED and f not in texts]:
        where = f" (or {missing[0]}= in the config file)" if args.command == "experiment" else ""
        raise ValueError(f"{args.command} requires --{missing[0]}{where}")
    if "threshold-mode" in texts and "threshold" not in texts:
        raise ValueError("--threshold-mode needs --threshold")
    # Every given value by experiment's config rules, before the handler reads a file; data
    # stays out, as recommend, evaluate and report take none.
    given = {_FLAGS[flag][1]: values[_FLAGS[flag][1]] for flag in texts if flag != "data"}
    cfg = {**_CONFIG.as_dict(), **{key: list(v) if isinstance(v, tuple) else v
                                   for key, v in given.items()}}
    threshold = cfg["threshold"]
    threshold.update({key: given[key] for key in ("cutoff", "mode") if key in given})
    if "threshold" in flags:  # cutoff and mode make one threshold (None for stats without)
        del values["cutoff"], values["mode"]
        values["threshold"] = ImplicitThreshold(**threshold) if "threshold" in texts else None
    if fault := _config_fault(cfg):  # its first word names the field: a flag's keyword
        flag = next(f for f in texts if _FLAGS[f][1] == fault.split()[0].rpartition(".")[2])
        raise ValueError(f"bad {flag} {texts[flag]!r}: {fault}")
    return argparse.Namespace(**values)


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own refusals (an unknown subcommand, a flag without its value)
    as one line tagged with the subcommand, where one is known, not as a usage dump."""

    def error(self, message):
        raise ExperimentError(self.prog.split()[-1], message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="itemknn-bench",
        description="Item-based KNN recommendation with pluggable similarity "
        "strategies, scoring modes, and nDCG semantics.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "experiment":
            p.add_argument("--config", help="key=value file of the other flags; a flag wins")
        for flag, listed in flags.items():  # text, parsed as a config file's is
            default = _default(flag, listed)
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            p.add_argument(f"--{flag}", help="required" if default is _REQUIRED
                           else None if default is None else f"default: {default}")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    command = parser.prog  # until argparse has read the subcommand
    try:
        args, unknown = parser.parse_known_args(argv)
        if (command := args.command) is None:
            parser.error(f"no subcommand (one of {', '.join(_COMMANDS)})")
        if unknown:  # argparse hands a subcommand's unknown flags up to the top parser
            raise ExperimentError(command, f"unrecognized arguments: {' '.join(unknown)}")
        return _COMMANDS[command][0](_settings(args))
    except ExperimentError as e:
        print(f"error {e}", file=sys.stderr)
        return 2
    except (SchemaError, ContractError, ValueError, OSError, KeyError) as e:
        print(f"error [{command}] {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
