"""The one writer of the benches' ``BENCH_*.json`` artifacts.

Every bench hands its measurements to :func:`write_bench_json`, which
merges them into the artifact file and writes it back, so tests of one
bench (and reruns) accumulate instead of clobbering each other.  CI
uploads the files; ``REPRO_BENCH_JSON`` overrides the path.
"""

from __future__ import annotations

import json
import os


def write_bench_json(default_name: str, payload: dict) -> str:
    """Merge ``payload`` into the artifact and return the path written.

    Top-level keys of ``payload`` replace the file's; a dict value merges
    one level deep into the file's dict under the same key, so records
    under ``results`` add up by key.
    """
    path = os.environ.get("REPRO_BENCH_JSON", default_name)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    for key, value in payload.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    return path
