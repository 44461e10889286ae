"""Correctness gate for one item run.

An item fails on any of: a traceback on stderr, an exit code other than the
expected ones, a summary that strict JSON rejects (bare ``NaN``), or a result
outside the checks below.  Failures other than a crash (traceback, signal,
timeout) are wrong answers and make the whole run incorrect.

* Oracles, for every seed: the heisenberg/pair limit constant is within 1e-2
  relative of 1/(2 pi), the bracket's antisymmetry residual is exactly 0, the
  Fourier round-trip residual is at most 1e-10.
* Reference, for the default seed at full size: every result value of the
  item is within 1e-10 times the item's sup of the values recorded in
  ``reference.json``.  The sup leaves out integral values (sizes, counts,
  grid nodes), and labels match exactly.  Diagnostics are not compared: the power-iteration
  residual column of ``normfield.csv`` (and iteration counts, which no output
  carries yet).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_RTOL = 1e-10
CSV_SAMPLE_ROWS = 256
DIAGNOSTIC_COLUMNS = {"normfield": ("residual",)}


@dataclass
class Outcome:
    """Verdict on one item run; ``reason`` is None when it passed."""

    reason: str | None = None
    crashed: bool = False
    values: dict | None = None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _strict_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _flatten(node, prefix: str, out: dict):
    if isinstance(node, bool) or isinstance(node, str):
        return
    if node is None or isinstance(node, (int, float)):
        out[prefix] = node
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _flatten(child, f"{prefix}[{i}]", out)
    elif isinstance(node, dict):
        for key in sorted(node):
            _flatten(node[key], f"{prefix}.{key}", out)


def _csv_values(path: Path, command: str) -> dict:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    skip = DIAGNOSTIC_COLUMNS.get(command, ())
    stride = max(1, -(-len(body) // CSV_SAMPLE_ROWS))
    picked = sorted(set(range(0, len(body), stride)) | ({len(body) - 1} if body else set()))
    out = {"csv.rows": len(body)}
    for r in picked:
        for name, cell in zip(header, body[r]):
            if name not in skip:
                out[f"csv[{r}].{name}"] = _csv_number(cell)
    return out


def _csv_number(cell: str):
    """A CSV cell as a float, None for ``nan``; label cells stay strings."""
    try:
        value = float(cell)
    except ValueError:
        return cell
    return None if math.isnan(value) else value


def result_values(command: str, out_dir: Path) -> dict:
    """Result values of a finished item: summary ``results`` leaves plus CSV cells.

    Raises ValueError when the summary is not strict JSON.
    """
    stem = command.replace("-", "_")
    values = {}
    _flatten(_strict_json(out_dir / f"{stem}_summary.json")["results"], "results", values)
    table = out_dir / f"{stem}.csv"
    if table.exists():
        values.update(_csv_values(table, command))
    return values


def _oracle_problems(names, values: dict) -> list[str]:
    problems = []
    for name in names:
        if name == "limit_constant":
            got = values.get("results.observed_limit_constant")
            want = 1.0 / (2.0 * math.pi)
            if got is None or not abs(got - want) <= 1e-2 * want:
                problems.append(f"limit constant {got} not within 1e-2 of 1/(2 pi)")
        elif name == "antisymmetry":
            got = values.get("results.antisymmetry_residual")
            if got != 0.0:
                problems.append(f"antisymmetry residual {got} is not exactly 0")
        elif name == "roundtrip":
            got = values.get("results.roundtrip_residual")
            if got is None or not got <= 1e-10:
                problems.append(f"round-trip residual {got} exceeds 1e-10")
        else:
            raise KeyError(f"unknown oracle {name!r}")
    return problems


def _reference_problems(values: dict, reference: dict) -> list[str]:
    if set(values) != set(reference):
        missing = sorted(set(reference) - set(values))[:3]
        extra = sorted(set(values) - set(reference))[:3]
        return [f"result keys differ from the reference (missing {missing}, extra {extra})"]
    # Integral values (sizes, counts, grid nodes) do not set the scale.
    numbers = [v for v in reference.values() if isinstance(v, (int, float))]
    sup = max((abs(v) for v in numbers if v != round(v)), default=0.0)
    tol = REFERENCE_RTOL * sup
    for key, want in reference.items():
        got = values[key]
        if not isinstance(want, (int, float)) or not isinstance(got, (int, float)):
            if want != got:
                return [f"{key} = {got!r}, reference {want!r}"]
        elif not abs(got - want) <= tol:
            return [f"{key} = {got!r}, reference {want!r} (tolerance {tol:.3g})"]
    return []


def check_item(item, exit_code: int, stderr: str, out_dir: Path, reference: dict | None) -> Outcome:
    """Judge one run of ``item``; ``reference`` is None when no comparison applies."""
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Outcome(f"traceback: {last}", crashed=True)
    if exit_code < 0:
        return Outcome(f"killed by signal {-exit_code}", crashed=True)
    if exit_code not in item.exits:
        return Outcome(f"exit code {exit_code}, expected {' or '.join(map(str, item.exits))}")
    if exit_code == 2:
        if "config error:" not in stderr:
            return Outcome("exit 2 without a config error message")
        return Outcome()
    try:
        values = result_values(item.command, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return Outcome(f"unreadable result: {exc}")
    problems = _oracle_problems(item.oracles, values)
    if reference is not None:
        problems += _reference_problems(values, reference)
    return Outcome(problems[0] if problems else None, values=values)
