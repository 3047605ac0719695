#!/usr/bin/env python3
"""Build the catalogue of exact 4-design fiducial vectors up to five qubits.

Runs the tensor-completion chain from the magic state and the equiangular
three-qubit fiducial, plus bisection roots at n = 2, 3, verifies every
output through the independent deviation metric, and writes one state
file per construction.
"""

import argparse
import json
import pathlib
import sys

import numpy as np


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="fiducials")
    ap.add_argument("--tol", type=float, default=1e-8)
    args = ap.parse_args()

    from cliffdesigns.designs import design_report
    from cliffdesigns import fiducial

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pt = fiducial.psi_t()
    hog = fiducial.hoggar_fiducial()
    jobs = {
        "completion_n2_magic": fiducial.tensor_completion(pt, 2),
        "completion_n3_magic2": fiducial.tensor_completion(np.kron(pt, pt), 3),
        "completion_n4_magic3": fiducial.tensor_completion(np.kron(np.kron(pt, pt), pt), 4),
        "completion_n4_equiangular": fiducial.tensor_completion(hog, 4),
        "completion_n5_equiangular_magic": fiducial.tensor_completion(np.kron(hog, pt), 5),
    }
    for n in (2, 3):
        stab = np.zeros(1 << n, dtype=complex)
        stab[0] = 1.0
        neg = np.kron(fiducial.singer_eigenstates(n - 1)[0], pt)
        jobs[f"bisection_n{n}"] = fiducial.bisection_root(stab, neg, tol=args.tol)

    ok = True
    summary = []
    for name, psi in jobs.items():
        rep = design_report(psi)
        good = abs(rep.epsilon) <= max(args.tol, 1e-9)
        ok &= good
        summary.append({"name": name, "n": rep.n, "epsilon": rep.epsilon, "pass": good})
        payload = {
            "n": rep.n,
            "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
            "report": rep.to_dict(),
        }
        (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2))
    print(json.dumps({"fiducials": summary, "pass": ok}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
