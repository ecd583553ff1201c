"""Generate a synthetic spatiotemporal tensor, hide 30% of it, contaminate
it with block anomalies, and recover both components with the ADMM solver.

This is the headline experiment with a reduced iteration budget so it
finishes in about 10-15 s on 2 cores; raise `MAX_OUTER` to 2500 for the
full-quality run (about 20-30 s, F1 around 0.9).

Run:  python3 demos/demo_synthetic_recovery.py
"""

import numpy as np

from tslto import (
    SolverConfig,
    SyntheticSpec,
    detection_metrics,
    generate,
    imputation_metrics,
    project_observed,
    solve,
    sparsity_report,
)

DIMS = (50, 50, 50)
MAX_OUTER = 1200

spec = SyntheticSpec(
    dims=DIMS,              # defaults give 10% block contamination
    missing_rate=0.3,
    seed=1,
)
inst = generate(spec)
report = sparsity_report(inst)
print("instance:", DIMS, "| observed fraction",
      f"{report['observed_fraction']:.3f}",
      "| anomalous entries", report["anomaly_entries"])

y = project_observed(inst.full, inst.mask)
cfg = SolverConfig(ranks=(3, 3, 3), max_outer=MAX_OUTER)
print(f"solving ({MAX_OUTER} outer iterations max) ...")
result = solve(y, inst.mask, cfg, trace_every=100)
for row in result.trace:
    print(f"  iter {row.iter:4d}  objective {row.objective:12.2f}  "
          f"|X-L-R| residual {row.res_xlr:.2e}")

imp = imputation_metrics(inst.lowrank, result.l, scope="missing",
                         mask=inst.mask)
det = detection_metrics(inst.anomaly_truth, result.r)
print("\nregular-component recovery at the missing entries:")
print(f"  RMSE {imp['rmse']:.3f} | MAPE {imp['mape']:.2f}% | "
      f"MAE {imp['mae']:.3f}")
print("anomaly diagnosis from the support of R:")
print(f"  precision {det['precision']:.3f} | recall {det['recall']:.3f} | "
      f"F1 {det['f1']:.3f}")
