"""Set-up probe, run in a fresh interpreter: everything before the first solve.

Usage: python3 probe_setup.py <command> <config.ini>

Imports ``hjlab.cli``, loads the config and generates its medium, as the
CLI does before any corrector or pde call, then prints the stage times
as one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import hjlab.cli  # noqa: E402

t1 = time.perf_counter()
cfg = hjlab.cli.load_config(sys.argv[2], sys.argv[1], None, 1, None)
t2 = time.perf_counter()
env = cfg.make_env()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                  "generate_env_s": t3 - t2, "nodes": int(env.n)}))
