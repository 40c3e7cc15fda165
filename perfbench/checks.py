"""Correctness checks the benchmark applies to every simulated request.

Each request becomes a compact record (:func:`record`); :func:`failures`
returns the indices of records that break a rule:

* every policy run of one trace retires the same instruction count (the
  operation stream never depends on where PEIs execute);
* ``pim_fraction`` is exactly 0 under Ideal-Host and Host-Only and exactly
  1 under PIM-Only;
* the digest of ``RunResult.to_dict()`` equals the checked-in reference
  for the default seed (``digests.json``), when one is given.

:func:`disagreements` compares the same requests across passes (forward,
reverse, traced): any digest difference is a cross-request state leak or a
tracing side effect, and fails the request.
"""

import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Hex digits of each per-request digest kept in records and digests.json.
DIGEST_LEN = 16

_EXACT_PIM_FRACTION = {"ideal-host": 0.0, "host-only": 0.0, "pim-only": 1.0}


def digest(result_dict: Dict) -> str:
    """Stable content digest of one ``RunResult.to_dict()``."""
    text = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_LEN]


def record(request, result) -> Dict:
    """The compact per-request record the checks and digests consume."""
    return {
        "group": json.dumps([spec.describe() for spec in request.workloads]
                            + [request.max_ops_per_thread], sort_keys=True),
        "policy": request.policy.value,
        "instructions": result.instructions,
        "pim_fraction": result.pim_fraction,
        "digest": digest(result.to_dict()),
    }


def failures(records: Sequence[Dict],
             reference: Optional[Sequence[str]] = None) -> Set[int]:
    """Indices of records that violate a correctness rule."""
    failed: Set[int] = set()
    groups: Dict[str, List[int]] = defaultdict(list)
    for index, rec in enumerate(records):
        groups[rec["group"]].append(index)
        exact = _EXACT_PIM_FRACTION.get(rec["policy"])
        if exact is not None and rec["pim_fraction"] != exact:
            failed.add(index)
    for indices in groups.values():
        counts = Counter(records[i]["instructions"] for i in indices)
        if len(counts) == 1:
            continue
        mode, hits = counts.most_common(1)[0]
        # With no strict majority there is no telling which run is right.
        majority = hits * 2 > len(indices)
        failed.update(i for i in indices
                      if not majority or records[i]["instructions"] != mode)
    if reference is not None:
        if len(reference) != len(records):
            return set(range(len(records)))
        failed.update(i for i, rec in enumerate(records)
                      if rec["digest"] != reference[i])
    return failed


def disagreements(passes: Sequence[Sequence[Dict]]) -> Set[int]:
    """Indices whose digest differs between passes over the same requests."""
    if not passes:
        return set()
    n = len(passes[0])
    if any(len(records) != n for records in passes):
        return set(range(n))
    return {i for i in range(n)
            if len({records[i]["digest"] for records in passes}) > 1}


def load_reference(workload: str, seed: int) -> Optional[List[str]]:
    """The checked-in digests for ``workload`` at ``seed``, if recorded."""
    try:
        payload = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("seed") != seed:
        return None
    return payload.get("workloads", {}).get(workload)


def write_reference(seed: int, digests: Dict[str, List[str]]) -> Path:
    """Record per-request digests (run after a deliberate model change)."""
    payload = {"seed": seed, "workloads": {}}
    try:
        existing = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
        if existing.get("seed") == seed:
            payload["workloads"].update(existing.get("workloads", {}))
    except (OSError, json.JSONDecodeError):
        pass
    payload["workloads"].update(digests)
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return DIGESTS_PATH
