"""Workload definitions: the items each workload runs and the configs they read.

An item is one ``groupoidlab <command> --config <file>`` invocation.  The
configs are generated from the shipped ones in ``configs/``; the workload seed
jitters symbol widths (by at most 3 %) and the centres a shipped symbol
already has (by at most 0.05).  That keeps every item on the same code path
(same decay verdicts, same exit code) while changing the numbers it computes;
moving a centred ax+b symbol off 0 already breaks the monotone norm deltas.
The ``cli`` part runs the shipped configs unchanged; there the seed only
reaches ``validate --seed``.  Why each workload exists is recorded in
``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 0
SIZES = ("full", "smoke")

# The same group as the built-in ax_plus_b chart, written as a custom chart so
# that the Newton solve, the finite-difference Jacobian and the expression
# evaluator are exercised.
CUSTOM_AX_PLUS_B = {
    "name": "custom_ax_plus_b",
    "base_dim": 0,
    "fiber_dim": 2,
    "source_map": [],
    "product": [["+", "v1", "w1"], ["+", "v2", ["*", ["exp", "v1"], "w2"]]],
    "unit_weight": 1.0,
    "base_box": [],
    "fiber_box": [[-4.0, 4.0], [-4.0, 4.0]],
}

@dataclass(frozen=True)
class Item:
    """One CLI invocation and what a correct run of it looks like.

    ``exits`` are the exit codes a correct run may end with.  ``oracles``
    name the seed-independent checks of ``checks.py``.  An item with
    ``takes_seed`` passes the workload seed on as ``--seed``.
    """

    name: str
    command: str
    config: str
    exits: tuple[int, ...]
    oracles: tuple[str, ...] = ()
    takes_seed: bool = False


def _shipped(root: Path, name: str) -> dict:
    path = root / "configs" / name
    return json.loads(path.read_text(encoding="utf-8"))


def _jitter(doc: dict, rng: random.Random) -> dict:
    doc = copy.deepcopy(doc)
    for terms in doc.get("symbols", {}).values():
        for term in terms:
            for side, dim in (("x", len(doc["grid"].get("base", []))), ("xi", len(doc["grid"]["fiber"]))):
                if not dim:
                    continue
                widths = term.get(f"{side}_widths", [1.0] * dim)
                term[f"{side}_widths"] = [w * rng.uniform(0.97, 1.03) for w in widths]
                if f"{side}_centers" in term:
                    term[f"{side}_centers"] = [c + rng.uniform(-0.05, 0.05) for c in term[f"{side}_centers"]]
    return doc


def _set_intervals(doc: dict, base: int | None, fiber: int) -> dict:
    doc = copy.deepcopy(doc)
    for axis in doc["grid"].get("base", []):
        axis["intervals"] = base
    for axis in doc["grid"]["fiber"]:
        axis["intervals"] = fiber
    return doc


def _limit(root, rng, smoke):
    heis = _set_intervals(_shipped(root, "heisenberg_fourier.json"), None, 10 if smoke else 12)
    heis["t_values"] = [0.2, 0.1, 0.05]
    pair = _set_intervals(_shipped(root, "pair1_deform.json"), *((32, 32) if smoke else (128, 128)))
    axb = _shipped(root, "ax_plus_b_deform.json")
    configs = {
        "heisenberg.json": _jitter(heis, rng),
        "ax_plus_b.json": _jitter(axb, rng),
        "pair.json": _jitter(pair, rng),
    }
    items = [
        # The heisenberg error is second order, so the first ratio sits near the
        # edge of the CLI's first-order window [0.35, 0.65] and the verdict
        # (exit 0 or 1) moves with the seed; the limit constant does not.
        Item("deform_heisenberg", "deform", "heisenberg.json", (0, 1), ("limit_constant",)),
        Item("deform_ax_plus_b", "deform", "ax_plus_b.json", (0,)),
        Item("deform_pair", "deform", "pair.json", (0,), ("limit_constant",)),
    ]
    return items, configs


def _bracket(root, rng, smoke):
    heis = _set_intervals(_shipped(root, "heisenberg_fourier.json"), None, 16 if smoke else 20)
    pair = _set_intervals(_shipped(root, "pair1_fourier.json"), *((64, 64) if smoke else (384, 384)))
    configs = {"heisenberg.json": _jitter(heis, rng), "pair.json": _jitter(pair, rng)}
    items = [
        Item("bracket_heisenberg", "bracket", "heisenberg.json", (0,), ("antisymmetry",)),
        Item("fourier_heisenberg", "fourier-check", "heisenberg.json", (0,), ("roundtrip",)),
        Item("bracket_pair", "bracket", "pair.json", (0,), ("antisymmetry",)),
        Item("fourier_pair", "fourier-check", "pair.json", (0,), ("roundtrip",)),
    ]
    return items, configs


def _custom_ax_plus_b(root, intervals: int) -> dict:
    doc = _set_intervals(_shipped(root, "ax_plus_b_deform.json"), None, intervals)
    doc["chart"] = {"custom": copy.deepcopy(CUSTOM_AX_PLUS_B)}
    return doc


def _norm(root, rng, smoke):
    axb = _shipped(root, "ax_plus_b_deform.json")
    pair = _shipped(root, "pair1_normfield.json")
    if smoke:
        axb = _set_intervals(axb, None, 12)
    configs = {
        "ax_plus_b.json": _jitter(axb, rng),
        "custom_ax_plus_b.json": _jitter(_custom_ax_plus_b(root, 8 if smoke else 16), rng),
        "pair.json": _jitter(pair, rng),
    }
    items = [
        Item("normfield_ax_plus_b", "normfield", "ax_plus_b.json", (0,)),
        Item("normfield_custom_ax_plus_b", "normfield", "custom_ax_plus_b.json", (0,)),
        Item("normfield_pair", "normfield", "pair.json", (0,)),
    ]
    return items, configs


def _cli(root, rng, smoke):
    shipped = [
        "abelian_degenerate.json",
        "ax_plus_b_deform.json",
        "corrupted_validate.json",
        "heisenberg_fourier.json",
        "heisenberg_validate.json",
        "pair1_deform.json",
        "pair1_fourier.json",
        "pair1_normfield.json",
    ]
    configs = {name: _shipped(root, name) for name in shipped}
    bad = copy.deepcopy(configs["pair1_fourier.json"])
    bad["grid"]["fiber"][0]["intervals"] = 63  # odd: rejected by validation
    bad["t_values"] = [0.1, 0.2]  # increasing: a second violation
    configs["config_error.json"] = bad
    configs["custom_deform.json"] = _custom_ax_plus_b(root, 16)
    items = [
        Item("validate_heisenberg", "validate", "heisenberg_validate.json", (0,), takes_seed=True),
        Item("validate_corrupted", "validate", "corrupted_validate.json", (1,), takes_seed=True),
        Item("validate_pair1", "validate", "pair1_deform.json", (0,), takes_seed=True),
        Item("validate_abelian", "validate", "abelian_degenerate.json", (0,), takes_seed=True),
        Item("validate_ax_plus_b", "validate", "ax_plus_b_deform.json", (0,), takes_seed=True),
        Item("algebroid_pair1", "algebroid", "pair1_normfield.json", (0,)),
        Item("bracket_heisenberg", "bracket", "heisenberg_fourier.json", (0,), ("antisymmetry",)),
        Item("fourier_heisenberg", "fourier-check", "heisenberg_fourier.json", (0,), ("roundtrip",)),
        Item("fourier_pair1", "fourier-check", "pair1_fourier.json", (0,), ("roundtrip",)),
        Item("deform_pair1", "deform", "pair1_deform.json", (0,), ("limit_constant",)),
        Item("deform_abelian", "deform", "abelian_degenerate.json", (0,)),
        Item("normfield_pair1", "normfield", "pair1_normfield.json", (0,)),
        Item("config_error", "fourier-check", "config_error.json", (2,)),
        # Known defect: compile_expression broadcasts to the batch shape of
        # the first operand only, so deform on any custom chart raises.
        Item("deform_custom_ax_plus_b", "deform", "custom_deform.json", (0,)),
    ]
    return items, configs


_BUILDERS = {"limit": _limit, "bracket": _bracket, "norm": _norm, "cli": _cli}
# The parts each workload runs, one after another in every pass.  Two
# workloads rather than one per part leave each run a minute, which the noise
# of a shared host needs.  ``bracket`` does no deformation and no normfield
# work, so a change to those layers shows on ``limit_norm_cli`` and not there.
PARTS = {"bracket": ("bracket",), "limit_norm_cli": ("limit", "norm", "cli")}
WORKLOADS = tuple(PARTS)


def build(workload: str, seed: int, size: str, root: Path) -> tuple[list[Item], dict[str, dict]]:
    """Items and generated config documents (by file name) of a workload."""
    items, configs = [], {}
    for part in PARTS[workload]:
        # one random stream per part, so that a part's configs do not depend
        # on the workload it runs in
        rng = random.Random(f"{part}:{seed}")
        part_items, part_configs = _BUILDERS[part](root, rng, size == "smoke")
        items += [replace(item, config=f"{part}-{item.config}") for item in part_items]
        configs.update((f"{part}-{name}", doc) for name, doc in part_configs.items())
    if len({item.name for item in items}) != len(items):
        raise ValueError(f"item names repeat in workload {workload}")
    return items, configs
