"""Record the pinned |v|_0 series that ref1d and surface2d are checked against.

Run once at a commit whose trajectories are trusted:

    python3 perfbench/pin_reference.py

Each trajectory runs at initial phase 0, and the commit is stored with the
series.  Only the samples above workload.PIN_FLOOR are stored; they form a
prefix because |v|_0 decays.
"""

import json

import numpy as np

from run import git_commit
from workload import PIN_FLOOR, REFERENCE_FILE, trajectory, trajectory_specs


def main() -> None:
    pinned = {"recorded_at": git_commit()}
    for workload in ("ref1d", "surface2d"):
        for label, _, _, raw in trajectory_specs(workload, None):
            w = trajectory(raw).series.wiener[0.0]
            keep = int(np.argmax(w <= PIN_FLOOR)) if np.any(w <= PIN_FLOOR) else len(w)
            pinned[label] = {"samples": len(w), "wiener_0": [float(x) for x in w[:keep]]}
            print(f"{label}: {keep} of {len(w)} samples pinned")
    REFERENCE_FILE.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
