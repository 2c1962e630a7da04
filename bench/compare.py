"""``python -m bench compare BASE.json NEW.json``: is a change a gain?

Both files are result documents of ``python -m bench run --out``.  For
every workload and end-to-end metric the two sides' repeats are paired
in order, and the verdict follows the rule a claimed gain must meet:

* ``unresolved`` — the base's own spread (q3 − q1, as a share of its
  median) exceeds the metric's bound, unless every new repeat beats
  every base repeat (then ``improved``);
* ``improved`` — the new side wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ, in the better
  direction, by more than the base's q3 − q1;
* ``regressed`` — the new median is worse than the base median by more
  than the bound;
* ``unchanged`` — otherwise.

The error rate has an absolute bound of zero: any rise regresses.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Sequence

from bench.driver import load_benchmark, summary

__all__ = ["compare", "verdict"]

#: Share of pairs the new side must win to claim a gain.
WIN_SHARE = 0.9


def verdict(base: "Sequence[float]", new: "Sequence[float]", *,
            better: str, bound: float) -> "dict[str, Any]":
    """Compare two sets of repeats of one metric on one workload."""
    b, n = summary(base), summary(new)
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (nv - bv) for bv, nv in zip(base, new)]
    won = sum(g > 0 for g in gains) / len(gains)
    base_iqr = b["q3"] - b["q1"]
    change = sign * (n["value"] - b["value"]) / abs(b["value"])
    if base_iqr / abs(b["value"]) > bound:
        every_run_better = all(sign * (nv - bv) > 0 for nv in new for bv in base)
        outcome = "improved" if every_run_better else "unresolved"
    elif won >= WIN_SHARE and sign * (n["value"] - b["value"]) > base_iqr:
        outcome = "improved"
    elif change < -bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {"base": b, "new": n, "change": change, "pairs_won": won,
            "verdict": outcome}


def compare(base_doc: "dict[str, Any]", new_doc: "dict[str, Any]") -> "list[dict[str, Any]]":
    """One row per workload x end-to-end metric, plus each error rate."""
    rows = []
    metrics = load_benchmark()["end_to_end"]
    for name, base in base_doc["workloads"].items():
        new = new_doc["workloads"].get(name)
        if new is None:
            continue
        for metric in metrics:
            m = metric["name"]
            rows.append({"workload": name, "metric": m, "unit": metric["unit"],
                         **verdict(base["metrics"][m]["samples"],
                                   new["metrics"][m]["samples"],
                                   better=metric["better"], bound=metric["bound"])})
        rows.append({"workload": name, "metric": "error_rate",
                     "base": base["error_rate"], "new": new["error_rate"],
                     "verdict": ("regressed" if new["error_rate"] > base["error_rate"]
                                 else "unchanged")})
    return rows


def render(rows: "list[dict[str, Any]]") -> str:
    lines = []
    for r in rows:
        if r["metric"] == "error_rate":
            lines.append(f"{r['workload']:<13} {'error_rate':<16} "
                         f"{r['base']:>10.4f} -> {r['new']:<10.4f} {'':34} {r['verdict']}")
            continue
        b, n = r["base"], r["new"]
        lines.append(
            f"{r['workload']:<13} {r['metric']:<16} {b['value']:>10.4f} -> "
            f"{n['value']:<10.4f} {r['unit']:<6} {r['change']:+7.1%}  "
            f"base IQR {(b['q3'] - b['q1']) / abs(b['value']):6.1%}  "
            f"won {r['pairs_won']:4.0%}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(base_path: str, new_path: str) -> int:
    rows = compare(json.loads(pathlib.Path(base_path).read_text()),
                   json.loads(pathlib.Path(new_path).read_text()))
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0
