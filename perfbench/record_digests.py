"""Record the sha256 and size of every benchmark command's stdout.

Usage: python3 perfbench/record_digests.py

Runs each command any seed can choose, at full and smoke sizes, as
``python -m hookpart ...`` and writes ``digests.json``.  The CLI promises
byte-identical output, so the file is recorded once, at a commit whose
output is trusted, and later runs compare against it.  Re-record only
when a workload gains a command.
"""

import hashlib
import json
import subprocess
import sys

from run import DIGESTS, FULL, ROOT, SMOKE, WORKLOADS, candidates, check_output, child_env, key


def main() -> int:
    env = child_env()
    digests = {}
    for sizes in (FULL, SMOKE):
        for workload in WORKLOADS:
            for slot in candidates(workload, sizes):
                for cmd in slot:
                    proc = subprocess.run([sys.executable, "-m", "hookpart", *cmd],
                                          capture_output=True, env=env, cwd=ROOT)
                    entry = {"sha256": hashlib.sha256(proc.stdout).hexdigest(),
                             "bytes": len(proc.stdout)}
                    reason = check_output(key(cmd), proc.returncode, proc.stdout,
                                          {key(cmd): entry})
                    if reason:
                        print(f"{key(cmd)}: {reason}", file=sys.stderr)
                        return 1
                    digests[key(cmd)] = entry
                    print(f"{entry['bytes']:>10} {key(cmd)}")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
