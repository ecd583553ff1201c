"""Show what each sparsity regularizer contributes by zeroing them out.

Variants: a = no factor-smoothness weights (lam), b = no anomaly sparsity
(mu1), c = no block-continuity sparsity (mu2), d-f = pairs, g = all three.
With mu1 = 0 the anomaly tensor keeps every entry, so detection degenerates
to "flag everything": precision equals the contamination ratio p and
F1 = 2p / (1 + p).

Run:  python3 demos/demo_ablation.py
"""

from tslto import (
    SolverConfig,
    SyntheticSpec,
    detection_metrics,
    generate,
    imputation_metrics,
    project_observed,
    solve,
)
from tslto.solver import ABLATION_VARIANTS, ablation_config

spec = SyntheticSpec(missing_rate=0.3, seed=1)
inst = generate(spec)
y = project_observed(inst.full, inst.mask)
# a reduced budget keeps the eight runs at about 20-25 s on 2 cores
base = SolverConfig(ranks=(3, 3, 3), max_outer=400)

p = inst.anomaly_truth.mean()
print(f"contamination ratio p = {p:.3f}; "
      f"all-flagged F1 would be {2 * p / (1 + p):.3f}\n")
print(f"{'variant':8s} {'dropped':14s} {'MAE':>7s} {'precision':>10s} "
      f"{'recall':>7s} {'F1':>6s}")
for variant, dropped in ABLATION_VARIANTS.items():
    cfg = ablation_config(base, variant)
    result = solve(y, inst.mask, cfg)
    imp = imputation_metrics(inst.lowrank, result.l, scope="missing",
                             mask=inst.mask)
    det = detection_metrics(inst.anomaly_truth, result.r)
    print(f"{variant:8s} {','.join(dropped) or '-':14s} {imp['mae']:7.3f} "
          f"{det['precision']:10.3f} {det['recall']:7.3f} {det['f1']:6.3f}")
