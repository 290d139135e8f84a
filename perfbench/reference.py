"""Reference outcomes from the pure-Python oracle, and the committed digests.

Every workload's outputs are checked against the same inputs run through
``backend="python"`` — the reference implementation the numpy kernels,
the parallel engine and the streaming engine must agree with (truths and
copying decisions exactly, accuracies within 1e-9).

``references.json`` holds digests (see :mod:`digest`) for a range of
seeds, keyed ``<workload>/<size>/<seed>`` and tagged with the fingerprint
of the inputs they were recorded from.  For any other seed, or when the
inputs no longer match the tag, the oracle runs once in a child process
before measuring starts (so it counts neither towards the measured
figures nor towards this process's peak RSS) and its outcome is cached
under ``.perfbench/reference/``.

Regenerate committed digests (e.g. after a deliberate change to the
reference implementation or to a workload's inputs)::

    python3 perfbench/reference.py --record --seeds 0-31 1009

Compute one full oracle outcome::

    python3 perfbench/reference.py --workload stream_growing --seed 1 --out out.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "references.json"

#: The oracle of the largest workload takes ~25 s; leave room on slow hosts.
ORACLE_TIMEOUT_S = 150


def import_repro():
    """Put this checkout's ``src/`` first on the path and import ``repro`` from it.

    Raises:
        SystemExit: when the checkout has no ``src/repro`` package — the
            benchmark must never measure some other installed copy.
    """
    src = ROOT / "src"
    package = src / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro source tree at {package}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    return repro


def oracle_outcome(workload: str, size: str, seed: int):
    """Run a workload's inputs through the pure-Python reference.

    Returns ``(outcome, fingerprint of the inputs)``.
    """
    from digest import Outcome
    from workloads import (
        BATCH_SPECS,
        PINNED_ROUNDS,
        _as_deltas,
        build_dataset,
        fingerprint,
        make_inputs,
        stream_partitions,
    )

    from repro.core import CopyParams, SingleRoundDetector
    from repro.data import coalesce_deltas
    from repro.fusion import FusionConfig, run_fusion
    from repro.streaming import StreamEngine

    inputs = make_inputs(workload, size, seed)
    tag = fingerprint(workload, size, inputs)
    params = CopyParams(backend="python")
    if workload == "stream_growing":
        # The live service coalesces every flushed micro-batch the same way.
        with StreamEngine(store=None, params=params) as engine:
            for part in stream_partitions(inputs, size):
                engine.run_epoch(coalesce_deltas(_as_deltas(part)))
            state = engine.state
        return Outcome.from_fusion(
            state.dataset, state.chosen, state.accuracies, state.detection.copying_pairs()
        ), tag
    spec = BATCH_SPECS[(workload, size)]
    dataset = build_dataset(inputs)
    result = run_fusion(
        dataset,
        params,
        SingleRoundDetector(params, method=spec.method),
        FusionConfig(**PINNED_ROUNDS),
    )
    return Outcome.from_fusion(
        dataset, result.chosen, result.accuracies, result.final_detection().copying_pairs()
    ), tag


def _key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


class References:
    """Reference digests and full outcomes for (workload, size, seed, inputs tag)."""

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir

    def _committed(self) -> dict:
        if not REFERENCE_FILE.is_file():
            return {}
        return json.loads(REFERENCE_FILE.read_text())

    def full(self, workload: str, size: str, seed: int, tag: str):
        """The oracle's full outcome, computed in a child process on first use."""
        from digest import Outcome

        path = self.cache_dir / f"{workload}-{size}-{seed}-{tag}.json"
        if not path.is_file():
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            partial = path.with_suffix(".partial")
            subprocess.run(
                [
                    sys.executable,
                    str(HERE / "reference.py"),
                    "--workload", workload,
                    "--size", size,
                    "--seed", str(seed),
                    "--out", str(partial),
                ],
                check=True,
                timeout=ORACLE_TIMEOUT_S,
                cwd=ROOT,
            )
            recorded = json.loads(partial.read_text())
            if recorded["inputs"] != tag:
                raise RuntimeError(
                    f"the oracle saw inputs {recorded['inputs']}, this run has {tag}"
                )
            partial.replace(path)
        return Outcome.from_json(json.loads(path.read_text()))

    def digest(self, workload: str, size: str, seed: int, tag: str) -> dict:
        """The committed digest for these inputs, else the (cached) oracle's digest."""
        committed = self._committed().get(_key(workload, size, seed))
        if committed is not None and committed["inputs"] == tag:
            return committed
        return self.full(workload, size, seed, tag).digest()


def _seed_list(tokens: list[str]) -> list[int]:
    seeds = []
    for token in tokens:
        if "-" in token:
            lo, hi = token.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(token))
    return seeds


def main(argv=None) -> int:
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path, help="write the full oracle outcome here")
    parser.add_argument("--record", action="store_true", help=f"record digests in {REFERENCE_FILE.name}")
    parser.add_argument("--seeds", nargs="+", default=[], help="seeds for --record, e.g. 0-31 1009")
    args = parser.parse_args(argv)
    import_repro()
    workloads = args.workload or list(WORKLOADS)

    if args.out is not None:
        if args.seed is None or len(workloads) != 1:
            parser.error("--out needs one --workload and a --seed")
        outcome, tag = oracle_outcome(workloads[0], args.size, args.seed)
        args.out.write_text(json.dumps({**outcome.to_json(), "inputs": tag}))
        return 0
    if not args.record:
        parser.error("give --out or --record")
    seeds = _seed_list(args.seeds) if args.seeds else [args.seed]
    recorded = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    for workload in workloads:
        for seed in seeds:
            outcome, tag = oracle_outcome(workload, args.size, seed)
            recorded[_key(workload, args.size, seed)] = {**outcome.digest(), "inputs": tag}
            REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
            print(f"recorded {_key(workload, args.size, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    from measure import stop_children

    try:
        status = main()
    finally:
        stop_children()
    sys.exit(status)
