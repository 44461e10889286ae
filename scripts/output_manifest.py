#!/usr/bin/env python3
"""Manifest of the CLI's output files: every command on every shipped config.

    python3 scripts/output_manifest.py --output DIR

Runs the six commands with ``--plot`` on each ``configs/*.json`` of the
checkout this script sits in, one process per run, writing to
``DIR/<config>/<command>/``.  Prints one ``exit`` line per run, ending in
the number of stderr lines that report a DecayWarning, and one SHA-256 line
per file it wrote, in a fixed order, so two checkouts' output bytes and
warnings compare with ``diff`` of their manifests.  DIR must be empty or
absent.

The runs see ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1: a multithreaded BLAS sums matrix products in
another order, which moves the last digits of the ``normfield`` reports, so
only single-threaded manifests compare across hosts.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "algebroid", "bracket", "fourier-check", "deform", "normfield")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="empty directory for the report files")
    args = parser.parse_args()
    out = Path(args.output)
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")

    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    for config in sorted((ROOT / "configs").glob("*.json")):
        for command in COMMANDS:
            run_dir = out / config.stem / command
            argv = [sys.executable, "-m", "groupoidlab.cli", command,
                    "--config", str(config), "--output", str(run_dir), "--plot"]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            warned = sum("DecayWarning" in line for line in proc.stderr.splitlines())
            print(f"exit {proc.returncode} {config.stem} {command} decay_warnings {warned}", flush=True)
            for path in sorted(run_dir.rglob("*")) if run_dir.exists() else ():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}", flush=True)


if __name__ == "__main__":
    main()
