"""Mutation check of the unit tests: each listed mutant must make one of its
unit test files fail.

    python3 scripts/mutants.py            # every mutant
    python3 scripts/mutants.py regrowth-depth-ignored   # only the named ones

Each entry is (name, file under the repository, exact old text, new text,
unit test files). The script copies ``src/`` and ``tests/`` to a temporary
directory, runs the named test files there once unmutated (they must pass),
then, for each mutant, applies its replacement to a clean copy of its file
and runs its test files with ``pytest -x``, a fixed hypothesis seed and
hypothesis's shrinking switched off: a failing example is enough, and
shrinking one can take minutes. A run past 60 s counts as killed and is
marked so. The checkout is never modified. It prints ``killed`` or
``survived`` per mutant and exits 1 if any survives, or 2 if a name is
unknown, an old text is not found exactly once or a clean run fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CART = "src/driftel/cart.py"
CORE = "src/driftel/core.py"
DIVERSITY = "src/driftel/diversity.py"
DTEL = "src/driftel/dtel.py"
EVALUATION = "src/driftel/evaluation.py"
STREAMS = "src/driftel/streams.py"
TRANSFER = "src/driftel/transfer.py"
TIMEOUT_S = 60  # the unmutated unit files take 1-11 s each
PROFILE = """
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])
"""

MUTANTS = [
    ("route-strict", CART,
     "go = values <= threshold[node]",
     "go = values < threshold[node]",
     ["test_cart.py"]),
    ("feature-last-maximum", CART,
     "feature = gain.argmax(axis=0)  # the first maximum: the lowest feature",
     "feature = gain.shape[0] - 1 - gain[::-1].argmax(axis=0)",
     ["test_cart.py"]),
    ("subset-pick-last-maximum", CART,
     "pick = np.where(own, subset_gain, -np.inf).argmax(axis=1)  # enumeration order",
     "pick = own.shape[1] - 1 - np.where(own, subset_gain, -np.inf)[:, ::-1].argmax(axis=1)",
     ["test_cart.py"]),
    ("best-swap-ge", "src/driftel/baselines.py",
     "return slot if correct[slot] > base else None",
     "return slot if correct[slot] >= base else None",
     ["test_baselines.py"]),
    ("near-tie-zero", DIVERSITY,
     "NEAR_TIE = 1e-9",
     "NEAR_TIE = 0",
     ["test_diversity.py"]),
    ("regrowth-depth-ignored", CART,
     "else np.concatenate([t.depth for t in forest.trees])[reached]",
     "else 0 * np.concatenate([t.depth for t in forest.trees])[reached]",
     ["test_transfer.py"]),
    ("new-tree-rooted-at-depth-one", CART,
     "else np.concatenate([t.depth for t in forest.trees])[reached]",
     "else np.concatenate([t.depth for t in forest.trees[:-1]] + [[1]])[reached]",
     ["test_transfer.py"]),
    ("no-transfer-regrows-sources", TRANSFER,
     "sites = leaves if adapt else leaves[-1:]",
     "sites = leaves",
     ["test_dtel.py"]),
    ("new-tree-from-first-slot", TRANSFER,
     "members.trees[-1] = members.tree(-1, chunk.schema, chunk.index)",
     "members.trees[-1] = members.tree(0, chunk.schema, chunk.index)",
     ["test_transfer.py"]),
    ("single-category-searched", CART,
     "self.categorical = [f for f, s in subsets.items() if s]",
     "self.categorical = list(subsets)",
     ["test_transfer.py"]),
    ("node-sizes-unweighted", CART,
     "n = np.add.reduce(counts)  # rows per node",
     "n = size  # rows per node",
     ["test_transfer.py"]),
    ("numeric-counts-unweighted", CART,
     "onehot = onehot * weight[order].reshape(-1)",
     "onehot = onehot * 1",
     ["test_transfer.py"]),
    ("numeric-mixed-bin-dropped", CART,
     "mixed = (boundary & ~differs).nonzero()[0]",
     "mixed = (boundary & False).nonzero()[0]",
     ["test_cart.py"]),
    ("numeric-label-wrong-neighbour", CART,
     "boundary = label[1:] != label[:-1]",
     "boundary = np.append(False, label[1:-1] != label[:-2])",
     ["test_cart.py"]),
    ("numeric-pure-node-dropped", CART,
     "pure = (np.maximum.reduce(totals) == n) & (size > 0)",
     "pure = (np.maximum.reduce(totals) < 0) & (size > 0)",
     ["test_cart.py"]),
    ("pair-weight-one", CART,
     "None if weight is None else weight[entry]",
     "None if weight is None else weight[entry] ** 0",
     ["test_cart.py"]),
    ("pair-spread-sorted", CART,
     "take(spread, axis=1)",
     "take(np.sort(spread), axis=1)",
     ["test_cart.py"]),
    ("pair-leaf-at-pair-index", CART,
     "leaves = leaves.reshape(-1, n).take(pair_rows, axis=1).ravel()",
     "leaves = leaves.reshape(-1, n).take(np.arange(pair_rows.size), axis=1).ravel()",
     ["test_cart.py"]),
    ("new-tree-label-last-maximum", CART,
     "return _readonly(self.counts.argmax(axis=1))",
     "return _readonly(self.counts.shape[1] - 1 - self.counts[:, ::-1].argmax(axis=1))",
     ["test_transfer.py"]),
    ("batched-last-maximum", CART,
     "hit = hit[_heads(group[hit])]",
     "hit = hit[np.append(group[hit][1:] != group[hit][:-1], True)]",
     ["test_transfer.py"]),
    ("batched-split-drops-positions", CART,
     "node, pos = child[order], pos[order]",
     "node, pos = child[order], pos",
     ["test_transfer.py"]),
    ("batched-depth-stop-off-by-one", CART,
     "grow &= depth < max_depth",
     "grow &= depth <= max_depth",
     ["test_transfer.py"]),
    ("kids-swapped", CART,
     "self.kids[0::2] = right + shift\n        self.kids[1::2] = left + shift",
     "self.kids[0::2] = left + shift\n        self.kids[1::2] = right + shift",
     ["test_cart.py"]),
    ("splice-appended-off-by-one", CART,
     "appended[order] = (self.starts + self.sizes)[tree[order]] + np.arange(tree.size)",
     "appended[order] = (self.starts + self.sizes)[tree[order]] + np.arange(tree.size) - 1",
     ["test_transfer.py"]),
    ("splice-appended-ranked-across-trees", CART,
     "appended[order] = (self.starts + self.sizes)[tree[order]] + np.arange(tree.size)",
     "appended[order] = (starts + self.sizes)[tree[order]] + np.arange(tree.size)",
     ["test_transfer.py"]),
    ("splice-child-rule-off-by-one", CART,
     "left[feature >= 0], right[feature >= 0] = local[n_sites:].reshape(-1, 2).T",
     "left[feature >= 0], right[feature >= 0] = local[n_sites - 1 : -1].reshape(-1, 2).T",
     ["test_cart.py"]),
    ("splice-root-keeps-its-leaf", CART,
     "out[at] = new  # a reached leaf's row takes its site's root",
     "out[at[n_sites:]] = new[n_sites:]",
     ["test_cart.py"]),
    ("splice-rebuilds-untouched-trees", CART,
     "if t in touched else source",
     "if True else source",
     ["test_transfer.py"]),
    ("growth-right-child-first", CART,
     "child = (2 * internal.cumsum() - 1)[node] - go",
     "child = (2 * internal.cumsum() - 2)[node] + go",
     ["test_cart.py"]),
    ("code-test-and", CART,
     "go |= column[node] == values",
     "go &= column[node] == values",
     ["test_cart.py"]),
    ("exact-rows-by-count", DIVERSITY,
     "key = candidates[i].bits.tobytes()",
     "key = int(candidates[i].bits.sum())",
     ["test_diversity.py"]),
    ("source-bits-inverted", TRANSFER,
     "bits = forest.labels[leaves] == chunk.y",
     "bits = forest.labels[leaves] != chunk.y",
     ["test_dtel.py"]),
    ("no-transfer-posterior-of-class-zero", TRANSFER,
     "p_true = np.concatenate([forest.probabilities[leaves[:-1], chunk.y], p_true])",
     "p_true = np.concatenate([forest.probabilities[leaves[:-1], 0], p_true])",
     ["test_dtel.py"]),
    ("least-accurate-max", DIVERSITY,
     "return min(ordered, key=lambda c: np.count_nonzero(c.bits)).model_id",
     "return max(ordered, key=lambda c: np.count_nonzero(c.bits)).model_id",
     ["test_diversity.py"]),
    ("distinct-columns-first-occurrence", CORE,
     "return _readonly(ranked[:, head]), _readonly(inverse)",
     "return _readonly(columns[:, np.sort(order[head])]), _readonly(inverse)",
     ["test_core.py"]),
    ("distinct-inverse-sorted", CORE,
     "inverse[order] = np.cumsum(head) - 1",
     "inverse[:] = np.cumsum(head) - 1",
     ["test_core.py"]),
    ("distinct-fast-exit-any", CORE,
     "if np.all(col[1:] != col[:-1]):",
     "if np.any(col[1:] != col[:-1]):",
     ["test_core.py"]),
    ("distinct-first-column-only", CORE,
     "for col in ranked[1:]:",
     "for col in ranked[1:1]:",
     ["test_core.py"]),
    ("route-spread-out-of-order", CART,
     "return leaves if inverse is None else leaves.take(inverse, axis=1)",
     "return leaves if inverse is None else leaves.take(np.sort(inverse), axis=1)",
     ["test_cart.py"]),
    ("route-spread-f-order", CART,
     "return leaves if inverse is None else leaves.take(inverse, axis=1)",
     "return leaves if inverse is None else leaves[:, inverse]",
     ["test_dtel.py"]),
    ("vote-spread-out-of-order", DTEL,
     "return acc if inverse is None else acc[inverse]",
     "return acc if inverse is None else acc[np.sort(inverse)]",
     ["test_dtel.py"]),
    ("vote-weights-shifted", CART,
     "return self.probabilities * np.repeat(weights, self.sizes)[:, None]",
     "return self.probabilities * np.repeat(np.roll(weights, 1), self.sizes)[:, None]",
     ["test_dtel.py"]),
    ("vote-last-tree-offset-off-by-one", CART,
     "shift = np.repeat(self.starts, sizes)",
     "shift = np.repeat(self.starts + (np.arange(len(sizes)) == len(sizes) - 1), sizes)",
     ["test_dtel.py"]),
    ("vote-total-without-new-member", DTEL,
     'object.__setattr__(self, "total", np.add.accumulate(weights)[-1])',
     'object.__setattr__(self, "total", np.add.accumulate(weights[:-1])[-1])',
     ["test_dtel.py"]),
    ("capacity-one-skips-accuracy-rule", DTEL,
     "if diverse and archive.capacity == 1:",
     "if archive.capacity == 1:",
     ["test_dtel.py"]),
    ("diverse-ignored", DTEL,
     "removed = select_removal(candidates) if diverse else select_least_accurate(candidates)",
     "removed = select_removal(candidates)",
     ["test_dtel.py"]),
    ("split-score-drops-right-side", CART,
     "return np.add.reduce(left) / nl + np.add.reduce(right) / (n - nl)",
     "return np.add.reduce(left) / nl",
     ["test_cart.py"]),
    ("squared-error-unsquared", DTEL,
     "return np.mean((1.0 - p_true) ** 2, axis=-1)",
     "return np.mean(1.0 - p_true, axis=-1)",
     ["test_dtel.py"]),
    ("prequential-pairs-shifted", EVALUATION,
     "zip(chunks, chunks[1:])",
     "zip(chunks[1:], chunks[1:])",
     ["test_evaluation.py"]),
    ("run-result-length-unchecked", EVALUATION,
     "if acc.shape != sec.shape:",
     "if False:",
     ["test_evaluation.py"]),
    ("posterior-over-all-counts", CART,
     "return _readonly(self.counts / self.counts.sum(axis=1, keepdims=True))",
     "return _readonly(self.counts / self.counts.sum())",
     ["test_cart.py"]),
    ("class-prior-unnormalised", CORE,
     "return counts / counts.sum()",
     "return counts / chunk.schema.num_classes",
     ["test_core.py"]),
    ("empty-child-unchecked", CART,
     "            if not size.all():  # a chosen split always parts its entries\n"
     "                raise RuntimeError(\"a split left a child without entries\")\n",
     "",
     ["test_cart.py"]),
    ("duplicate-weight-dropped", CART,
     "counts = np.bincount(labels[pos] * m + node, weigh(pos), K * m)",
     "counts = np.bincount(labels[pos] * m + node, None, K * m)",
     ["test_metamorphic.py"]),
    ("stream-noise-before-test-rows", STREAMS,
     "    train = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n"
     "    test = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n"
     "    return ChunkPair(add_noise(train, cfg.noise_rate, rng), test)",
     "    train = add_noise(Chunk(step, schema, *draw(rng, cfg.chunk_size, concept)), cfg.noise_rate, rng)\n"
     "    test = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n"
     "    return ChunkPair(train, test)",
     ["test_streams.py"]),
    ("stream-test-rows-first", STREAMS,
     "    train = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n"
     "    test = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n",
     "    test = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n"
     "    train = Chunk(step, schema, *draw(rng, cfg.chunk_size, concept))\n",
     ["test_streams.py"]),
]


def run_tests(copy: Path, files: list[str], timeout: float) -> str:
    """"passed", "failed", or "timeout" when they run past ``timeout``: a
    mutated loop bound may never end."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", "--hypothesis-profile=mutants",
             *(f"tests/{f}" for f in files)],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"ERROR unknown mutants: {' '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    for name, path, old, _new, _files in chosen:
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            print(f"ERROR {name}: old text found {found} times in {path}")
            return 2
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "tests" / "conftest.py", "a") as conftest:
            conftest.write(PROFILE)
        files = sorted({f for m in chosen for f in m[4]})
        if run_tests(copy, files, TIMEOUT_S * len(files)) != "passed":
            print(f"ERROR unmutated tests fail: {' '.join(files)}")
            return 2
        for name, path, old, new, files in chosen:
            target = copy / path
            clean = target.read_text()
            target.write_text(clean.replace(old, new))
            start = time.perf_counter()
            outcome = run_tests(copy, files, TIMEOUT_S)
            target.write_text(clean)
            survivors += outcome == "passed"
            verdict = {"passed": "survived", "failed": "killed", "timeout": "killed (timeout)"}
            print(f"{verdict[outcome]:16} {name}  "
                  f"({' '.join(files)}, {time.perf_counter() - start:.1f}s)", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
