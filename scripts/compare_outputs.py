"""Byte-compare the CLI outputs of this checkout with those of another one.

    python scripts/compare_outputs.py OTHER_CHECKOUT [--T 300]

Runs ``asaddle run``, ``compare``, ``advise`` and ``audit`` on every shipped
config, ``run`` on the pricing config with ``--tau 70``, and ``run`` on the
consensus config with ``--T 128`` and with ``--T 4160``, in both
checkouts, each from its own ``src/`` with one BLAS thread,
and lists every output file that differs by a single byte or exists on one
side only, with what differs in it: the columns of a CSV, the keys of a JSON
file (nested keys joined by dots). ``advise`` and ``audit`` write no files;
their stdout is saved as ``<config>-<verb>.txt``. Exits 0 when every file is
identical, 1 otherwise, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("consensus.json", "pricing.json", "pricing_margin4db.json")
VERBS = ("run", "compare")
STDOUT_VERBS = ("advise", "audit")


# (verb, config, extra arguments, output name): every verb on every config,
# then a pricing run whose stale window (tau = 70) reaches two observation
# blocks back, a consensus run whose horizon ends on a block boundary, so
# that its last block is recorded only when the traces are read, and one that
# crosses the first 4096-step chunk of the random delays
JOBS = tuple((verb, config, (), f"{os.path.splitext(config)[0]}-{verb}")
             for config in CONFIGS for verb in VERBS + STDOUT_VERBS) + (
    ("run", "pricing.json", ("--tau", "70"), "pricing-run-tau70"),
    ("run", "consensus.json", ("--T", "128"), "consensus-run-T128"),
    ("run", "consensus.json", ("--T", "4160"), "consensus-run-T4160"))


def run_outputs(checkout: str, out_root: str, T: int) -> None:
    """Write the output of every job of ``checkout`` under ``out_root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("ASADDLE_OUT", None)
    os.makedirs(out_root, exist_ok=True)
    for verb, config, extra, name in JOBS:
        out = os.path.join(out_root, name)
        cmd = [sys.executable, "-m", "asaddle.cli", verb,
               os.path.join(checkout, "configs", config), "--T", str(T), *extra]
        if verb in VERBS:
            cmd += ["--out", out]
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
        if verb in STDOUT_VERBS:
            with open(out + ".txt", "w", encoding="utf-8") as fh:
                fh.write(done.stdout)


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


def _csv_columns(path: str) -> dict:
    """Column name -> the column's cells, as written."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {name: [row[k] if k < len(row) else None for row in body]
            for k, name in enumerate(header)}


def _json_leaves(value, prefix: str = "") -> dict:
    """Dotted key -> JSON text of every non-object value in a JSON document
    (as text, a NaN equals itself)."""
    if not isinstance(value, dict):
        return {prefix: json.dumps(value)}
    out = {}
    for key, sub in value.items():
        out.update(_json_leaves(sub, f"{prefix}.{key}" if prefix else key))
    return out


def what_differs(a: str, b: str) -> str:
    """What differs between two files of the same name: a CSV's differing
    columns, a JSON file's differing keys, else "content"; "only on one
    side" when one of them is missing."""
    if not (os.path.isfile(a) and os.path.isfile(b)):
        return "only on one side"
    if a.endswith(".csv"):
        ca, cb = _csv_columns(a), _csv_columns(b)
        names = [n for n in ca if ca[n] != cb.get(n)] + [n for n in cb if n not in ca]
        return "columns " + ", ".join(names) if names else "content"
    if a.endswith(".json"):
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            ja, jb = _json_leaves(json.load(fa)), _json_leaves(json.load(fb))
        keys = [k for k in ja if ja[k] != jb.get(k)] + [k for k in jb if k not in ja]
        return "keys " + ", ".join(keys) if keys else "content"
    return "content"


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
        this, that = os.path.join(tmp, "this"), os.path.join(tmp, "other")
        diff = differing_files(this, that)
        n_files = sum(len(files) for _, _, files in os.walk(this))
        for path in diff:
            print(f"differs: {path}: {what_differs(os.path.join(this, path), os.path.join(that, path))}")
    print(f"{len(diff)} of {n_files} files differ ({other} vs {ROOT}, T={args.T})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
