"""Rewrite tests/golden.json from a fresh run of the acceptance battery.

Run from the repository root, and only once a change of the battery's
outcomes or of the numpy/scipy/BLAS builds is known to be intended:

    PYTHONPATH=src python tests/make_golden.py
"""

import json

from irsplan.scenario import load_scenario

from conftest import DESK_CONFIG
from test_acceptance import GOLDEN, golden_record, run_battery

record = golden_record(run_battery(load_scenario(DESK_CONFIG)))
GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
print(f"wrote {GOLDEN} ({len(record['cells'])} cells)")
