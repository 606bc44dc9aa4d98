"""Byte-compare the CLI outputs of this checkout with those of another one.

    python scripts/compare_outputs.py OTHER_CHECKOUT [--T 300]

Runs ``asaddle run`` and ``asaddle compare`` on every shipped config in both
checkouts, each from its own ``src/`` with one BLAS thread, and lists every
output file that differs by a single byte or exists on one side only. Exits
0 when every file is identical, 1 otherwise, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("consensus.json", "pricing.json", "pricing_margin4db.json")
VERBS = ("run", "compare")


def run_outputs(checkout: str, out_root: str, T: int) -> None:
    """Write every (config, verb) output of ``checkout`` under ``out_root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ASADDLE_OUT", None)
    for config in CONFIGS:
        for verb in VERBS:
            out = os.path.join(out_root, f"{os.path.splitext(config)[0]}-{verb}")
            cmd = [sys.executable, "-m", "asaddle.cli", verb,
                   os.path.join(checkout, "configs", config), "--T", str(T), "--out", out]
            done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")


def differing_files(a: str, b: str) -> list:
    """Relative paths that differ in content or exist under one root only."""
    found = []
    for sub in sorted(set(os.listdir(a)) | set(os.listdir(b))):
        pa, pb = os.path.join(a, sub), os.path.join(b, sub)
        if os.path.isdir(pa) and os.path.isdir(pb):
            found += [os.path.join(sub, f) for f in differing_files(pa, pb)]
        elif not (os.path.isfile(pa) and os.path.isfile(pb)
                  and filecmp.cmp(pa, pb, shallow=False)):
            found.append(sub)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--T", type=int, default=300, help="horizon of every run")
    args = parser.parse_args(argv)
    other = os.path.abspath(args.other)
    if not os.path.isdir(os.path.join(other, "src", "asaddle")):
        print(f"compare_outputs: no src/asaddle under {other}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        sides = {"this": ROOT, "other": other}
        try:
            for name, checkout in sides.items():
                run_outputs(checkout, os.path.join(tmp, name), args.T)
        except RuntimeError as exc:
            print(f"compare_outputs: {exc}", file=sys.stderr)
            return 2
        diff = differing_files(os.path.join(tmp, "this"), os.path.join(tmp, "other"))
        n_files = sum(len(files) for _, _, files in os.walk(os.path.join(tmp, "this")))
    for path in diff:
        print(f"differs: {path}")
    print(f"{len(diff)} of {n_files} files differ ({other} vs {ROOT}, T={args.T})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
