#!/usr/bin/env python3
"""Compare the top-down and independent multi-task wirings over many seeds.

Generates a corpus where the coarse (domain) task is easy and the fine
(relation) task only resolves cleanly once the domain is known (the
"aliased" generator style), then trains mt-td and mt-ind with paired
seeds and reports per-seed validation relation macro-F1.
"""

import argparse

import numpy as np

from socialseq.dataset import sequences_in_groups
from socialseq.model import Arch
from socialseq.splits import select_splits
from socialseq.synth import SynthConfig, generate_corpus
from socialseq.training import TrainConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sequences", type=int, default=216)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=60)
    parser.add_argument("--corpus-seed", type=int, default=100)
    args = parser.parse_args()

    ds = generate_corpus(SynthConfig(
        n_sequences=args.sequences, users=6, days_per_user=4,
        min_len=2, max_len=8, domain_sep=2.5, relation_sep=0.8, noise=0.6,
        within_style="aliased", seed=args.corpus_seed,
    ))
    suite = select_splits(ds.sequences, n_candidates=128, k=1, ratio=0.7, seed=0)
    by_group = ds.by_group()
    plan = suite.inner[0]
    tr = sequences_in_groups(by_group, plan.train_groups)
    va = sequences_in_groups(by_group, plan.val_groups)
    print(f"train {len(tr)} / val {len(va)} sequences "
          f"(outer test side held out: {suite.outer.val_size})")

    wins = 0
    deltas = []
    print(f"{'seed':>4}  {'mt-td F1':>9}  {'mt-ind F1':>9}  {'delta':>7}")
    for seed in range(args.seeds):
        results = {}
        for arch in (Arch.MT_TD, Arch.MT_IND):
            results[arch] = train(
                TrainConfig(arch=arch, hidden=args.hidden,
                            iterations=args.iterations, seed=seed), tr, va,
            ).best_selection
        delta = results[Arch.MT_TD] - results[Arch.MT_IND]
        deltas.append(delta)
        wins += delta >= 0
        print(f"{seed:>4}  {results[Arch.MT_TD]:>9.3f}  "
              f"{results[Arch.MT_IND]:>9.3f}  {delta:>+7.3f}")
    print(f"\nmt-td >= mt-ind on {wins}/{args.seeds} seeds, "
          f"mean delta {np.mean(deltas):+.3f}")


if __name__ == "__main__":
    main()
