"""Command-line pipeline: ingest, split, augment, train, eval, predict,
benchmark, synth.

Configuration comes from flags and optional JSON config files only (no
environment variables), every command runs with BLAS on one thread, and
every artifact embeds its run's `container.provenance` (config hash, seed,
toolkit version) so runs are reproducible byte for byte. Exit codes:
0 success; 2 for a missing, unreadable or damaged input file or an
out-of-range flag value; 1 for a runtime or write failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from socialseq import __version__
from socialseq.container import provenance, read_json, write_container, write_json, write_jsonl
from socialseq.dataset import (
    Dataset,
    SocialSequence,
    ValidationError,
    load_dataset,
    save_dataset,
    sequences_in_groups,
)
from socialseq.features import (
    AugmentConfig,
    augment,
    ingest_raw_corpus,
    load_raw_records,
)
from socialseq.model import forward, load_model, save_model
from socialseq.numerics import PcaModel, Rng, single_blas_thread
from socialseq.splits import SplitSuite, load_split_suite, save_split_suite, select_splits
from socialseq.synth import (
    SynthConfig,
    attribute_group_columns,
    generate_corpus,
    generate_raw_corpus,
)
from socialseq.taxonomy import Domain, Relation, infer_domain_distribution
from socialseq.training import (
    EVAL_MODES,
    TrainConfig,
    TrainingDiverged,
    benchmark_suite,
    evaluate,
    render_benchmark_table,
    selection_mode,
    train,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2

VARIANCE_TARGET = 0.90  # ingest's table flags a PCA that keeps less; never enforced


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """One flag per field of the config dataclass `cls`, named after the
    field, typed and defaulted by the field's default (enum fields take the
    enum's values as choices)."""
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if isinstance(f.default, Enum):
            p.add_argument(flag, choices=[m.value for m in type(f.default)],
                           default=f.default.value)
        else:
            p.add_argument(flag, type=type(f.default), default=f.default)


def _config_from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="socialseq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of flag defaults (flags override)")
        parsers[name] = p
        return p

    p = command("synth", "generate a synthetic labelled corpus")
    p.add_argument("--out", help="dataset file to write")
    p.add_argument("--raw-dir", help="also write a pre-ingest raw corpus here")
    p.add_argument("--raw-cnn-width", type=int, default=64)
    p.add_argument("--sequences", type=int, default=108)
    p.add_argument("--users", type=int, default=4)
    p.add_argument("--days-per-user", type=int, default=5)
    p.add_argument("--min-len", type=int, default=2)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--domain-sep", type=float, default=1.0)
    p.add_argument("--relation-sep", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--within-style", choices=["shared", "aliased"], default="shared",
                   help="'aliased' makes the fine task depend on resolving the coarse one")
    p.add_argument("--seed", type=int, default=0)

    p = command("ingest", "compress raw attribute blocks into a dataset file")
    p.add_argument("--raw-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", help="split-suite file; PCA fits on its outer train side only")
    p.add_argument("--pca-out", help="fitted PCA bank path (default: <out>.pca)")
    p.add_argument("--quant-levels", type=int, default=32)

    p = command("split", "select grouped train/val/test splits by KL score")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="dataset file with labels and provenance")
    src.add_argument("--sequences", help="pre-ingest sequences.json (labels only)")
    p.add_argument("--out", required=True)
    p.add_argument("--candidates", type=int, default=1000)
    p.add_argument("--cv", type=int, default=3)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)

    p = command("augment", "write a dataset extended with PCA-noise copies")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", help="only augment the outer train side of this suite")
    _add_config_flags(p, AugmentConfig)

    p = command("train", "train one architecture on one cross-validation split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--cv-index", type=int, default=0)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--history", help="history JSONL path (default: <out>.history.jsonl)")
    _add_config_flags(p, TrainConfig)

    p = command("eval", "evaluate a saved model on a dataset side")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", help="split-suite file selecting a side")
    p.add_argument("--side", choices=["all", "test", "pool", "cv-train", "cv-val"],
                   default="all")
    p.add_argument("--cv-index", type=int, default=0)
    p.add_argument("--mode", choices=list(EVAL_MODES))
    p.add_argument("--out", help="report JSON path")

    p = command("predict", "emit per-sequence probabilities as JSONL")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)

    p = command("benchmark", "train and score every strategy on every CV split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", help="rows JSONL path")
    p.add_argument("--table-out", help="rendered table path")
    p.add_argument("--groups", default="none",
                   help="'none', 'default', or a JSON file of attribute-group name lists")
    _add_config_flags(p, TrainConfig)

    return parser, parsers


def _side_sequences(ds: Dataset, suite: SplitSuite | None, side: str,
                    cv_index: int) -> list[SocialSequence]:
    if side == "all":
        return list(ds.sequences)
    if suite is None:
        raise ValidationError(f"--side {side} requires --split")
    if side in ("test", "pool"):
        plan = suite.outer
    elif not 0 <= cv_index < len(suite.inner):
        raise ValidationError(f"--cv-index {cv_index} out of range (k={len(suite.inner)})")
    else:
        plan = suite.inner[cv_index]
    keys = plan.train_groups if side in ("pool", "cv-train") else plan.val_groups
    return sequences_in_groups(ds.by_group(), keys)


def cmd_synth(args) -> int:
    if not args.out and not args.raw_dir:
        raise ValidationError("synth needs --out and/or --raw-dir")
    cfg = SynthConfig(
        n_sequences=args.sequences, users=args.users, days_per_user=args.days_per_user,
        min_len=args.min_len, max_len=args.max_len, domain_sep=args.domain_sep,
        relation_sep=args.relation_sep, noise=args.noise,
        within_style=args.within_style, seed=args.seed,
    )
    if args.raw_dir:  # first: it refuses a corpus ingest cannot compress before writing
        generate_raw_corpus(cfg, args.raw_dir, raw_cnn_width=args.raw_cnn_width)
        print(f"wrote raw corpus under {args.raw_dir}")
    if args.out:
        ds = generate_corpus(cfg)
        ds.meta.update(provenance(cfg.seed, {"command": "synth", **cfg.to_json()}))
        save_dataset(args.out, ds)
        print(f"wrote {args.out}: {len(ds.sequences)} sequences, "
              f"width {ds.manifest.total_width}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    fit_groups = load_split_suite(args.split).outer.train_groups if args.split else None
    ds, pcas = ingest_raw_corpus(args.raw_dir, fit_groups, args.quant_levels)
    print(f"{'attribute':<18} {'raw':>5} {'out':>5} {'explained var':>14}")
    for e in ds.manifest.block_entries:
        if e.name in pcas:
            pca = pcas[e.name]
            explained = float(pca.explained_variance_ratio.sum())
            low = " (below target)" if explained < VARIANCE_TARGET else ""
            print(f"{e.name:<18} {pca.n_features:>5} {e.width:>5} {explained:>13.1%}{low}")
        else:  # compress_attribute checked that a pass-through block has its manifest width
            print(f"{e.name:<18} {e.width:>5} {e.width:>5} {'pass-through':>14}")
    print(f"total width: {ds.manifest.total_width}")

    run = provenance(0, {"command": "ingest", "quant_levels": args.quant_levels,
                         "split": bool(args.split), "manifest_hash": ds.manifest.hash})
    ds.meta.update(run)
    save_dataset(args.out, ds)
    pca_path = args.pca_out or f"{args.out}.pca"
    write_container(pca_path, "pca-bank", {
        **run, "manifest_hash": ds.manifest.hash, "attributes": list(pcas),
    }, [(f"{name}/{f.name}", getattr(pca, f.name))
        for name, pca in pcas.items() for f in dataclasses.fields(PcaModel)])
    print(f"wrote {args.out} and {pca_path}")
    return EXIT_OK


def cmd_split(args) -> int:
    if args.dataset:
        sequences = load_dataset(args.dataset).sequences
    else:
        records, relations = load_raw_records(args.sequences)
        sequences = [
            SocialSequence(id=r["id"], user=r["user"], day=r["day"],
                           relation=relation, frames=np.zeros((1, 1)))
            for r, relation in zip(records, relations)
        ]
    suite = select_splits(sequences, n_candidates=args.candidates, k=args.cv,
                          ratio=args.ratio, seed=args.seed)
    save_split_suite(args.out, suite, meta=provenance(args.seed, {
        "command": "split", "candidates": args.candidates, "cv": args.cv,
        "ratio": args.ratio, "seed": args.seed}))
    flag = "" if suite.outer.ratio_ok else "  [outside ratio tolerance]"
    print(f"outer split: {suite.outer.train_size}/{suite.outer.val_size} sequences, "
          f"ratio {suite.outer.achieved_ratio:.3f}, KL {suite.outer.kl_score:.6f}{flag}")
    for i, plan in enumerate(suite.inner):
        print(f"cv[{i}]: {plan.train_size}/{plan.val_size}, "
              f"ratio {plan.achieved_ratio:.3f}, KL {plan.kl_score:.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_augment(args) -> int:
    ds = load_dataset(args.dataset)
    if args.split:
        suite = load_split_suite(args.split)
        targets = sequences_in_groups(ds.by_group(), suite.outer.train_groups)
    else:
        targets = list(ds.sequences)
    cfg = _config_from_args(AugmentConfig, args)
    new = augment(targets, cfg, Rng(cfg.seed).split("augment"))
    out_ds = Dataset(manifest=ds.manifest, sequences=list(ds.sequences) + new,
                     meta=provenance(cfg.seed, {"command": "augment", **dataclasses.asdict(cfg),
                                                "split": bool(args.split)}))
    save_dataset(args.out, out_ds)
    print(f"wrote {args.out}: {len(ds.sequences)} original + {len(new)} augmented")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    suite = load_split_suite(args.split)
    train_seqs = _side_sequences(ds, suite, "cv-train", args.cv_index)
    val_seqs = _side_sequences(ds, suite, "cv-val", args.cv_index)
    cfg = _config_from_args(TrainConfig, args)
    run = provenance(cfg.seed, {"command": "train", "cv_index": args.cv_index,
                                "split_seed": suite.seed, **cfg.to_json()})
    result = train(cfg, train_seqs, val_seqs)
    save_model(args.out, result.model, manifest_hash=ds.manifest.hash,
               config_hash=run["config_hash"], seed=cfg.seed,
               meta={"best_iteration": result.best_iteration,
                     "best_selection": result.best_selection,
                     "cv_index": args.cv_index})
    history_path = args.history or f"{args.out}.history.jsonl"
    write_jsonl(history_path, {
        **run, "config": cfg.to_json(), "best_iteration": result.best_iteration,
        "best_selection": result.best_selection,
    }, (rec.to_json() for rec in result.history))
    print(f"trained {cfg.arch.value} on cv[{args.cv_index}]: best iteration "
          f"{result.best_iteration}, validation macro-F1 {result.best_selection:.4f}")
    print(f"wrote {args.out} and {history_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = load_dataset(args.dataset)
    model, header = load_model(args.model, expect_manifest_hash=ds.manifest.hash)
    suite = load_split_suite(args.split) if args.split else None
    seqs = _side_sequences(ds, suite, args.side, args.cv_index)
    mode = args.mode or selection_mode(model.arch)
    report = evaluate(model, seqs, mode)
    print(f"mode {mode} on {args.side} ({report.n} sequences): "
          f"acc {report.accuracy:.4f}, macro-F1 {report.macro_f1:.4f}")
    for c, f1 in enumerate(report.per_class_f1):
        print(f"  class {c}: precision {report.per_class_precision[c]:.4f} "
              f"recall {report.per_class_recall[c]:.4f} f1 {f1:.4f}")
    if args.out:
        write_json(args.out, {**report.to_json(), "meta": {
            "model_config_hash": header["config_hash"], "seed": header["seed"],
            "toolkit_version": __version__, "side": args.side}})
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    ds = load_dataset(args.dataset)
    model, header = load_model(args.model, expect_manifest_hash=ds.manifest.hash)

    def rows():
        for seq in ds.sequences:
            out = forward(model, seq.frames)
            row: dict = {"id": seq.id}
            if out.relation_probs is not None:
                row["relation_probs"] = out.relation_probs.tolist()
                row["relation_pred"] = Relation(int(np.argmax(out.relation_probs))).label
                inferred = infer_domain_distribution(out.relation_probs)
                row["domain_inferred"] = inferred.tolist()
                row["domain_inferred_pred"] = Domain(int(np.argmax(inferred))).label
            if out.domain_probs is not None:
                row["domain_probs"] = out.domain_probs.tolist()
                row["domain_pred"] = Domain(int(np.argmax(out.domain_probs))).label
            yield row

    write_jsonl(args.out, {"model_config_hash": header["config_hash"], "seed": header["seed"],
                           "toolkit_version": __version__, "arch": model.arch.value}, rows())
    print(f"wrote {args.out}: {len(ds.sequences)} predictions")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    ds = load_dataset(args.dataset)
    suite = load_split_suite(args.split)
    if args.groups == "none":
        masks = None
    elif args.groups == "default":
        masks = attribute_group_columns(ds.manifest)
    else:
        masks = attribute_group_columns(ds.manifest, read_json(args.groups))
    cfg = _config_from_args(TrainConfig, args)
    rows = benchmark_suite(cfg, ds.by_group(), suite, masks)
    table = render_benchmark_table(rows)
    print(table)
    if args.out:
        write_jsonl(args.out, provenance(cfg.seed, {
            "command": "benchmark", "groups": args.groups, "split_seed": suite.seed,
            **cfg.to_json()}), (row.to_json() for row in rows))
        print(f"wrote {args.out}")
    if args.table_out:
        Path(args.table_out).write_text(table + "\n")
        print(f"wrote {args.table_out}")
    return EXIT_OK


def _config_defaults(sp: argparse.ArgumentParser, overrides: dict) -> dict:
    """Config-file values, converted and checked as the same values given as
    flags would be."""
    actions = {action.dest: action for action in sp._actions}
    unknown = set(overrides) - set(actions)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, value in overrides.items():
        action = actions[key]
        if action.type is not None:
            try:
                value = action.type(str(value))
            except ValueError:
                raise ValidationError(f"config key {key!r}: invalid "
                                      f"{action.type.__name__} value {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValidationError(f"config key {key!r}: {value!r} is not one of "
                                  f"{list(action.choices)}")
        out[key] = value
    return out


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "split": cmd_split,
    "augment": cmd_augment,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, parsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            sp = parsers[args.command]
            sp.set_defaults(**_config_defaults(sp, read_json(args.config)))
            args = parser.parse_args(argv)
        with single_blas_thread():  # artifact bytes must not depend on the core count
            return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TrainingDiverged, ValueError, OSError, KeyError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
