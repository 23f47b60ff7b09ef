"""How the promised windows hold up on data the designer never saw.

Train on one batch of scenarios, test on a fresh one, and count misses.
The scenario model tracks its in-sample rates; the moment model pays
extra width for slack that survives distribution shift.  Waiting at
closed doors is simulated to show the cost of arriving early.
"""

import numpy as np

from twdesign import (
    DroModel,
    SaaModel,
    branch_and_bound,
    evaluate_plan,
    guideline_sweep,
    penalties_from_beta,
    random_network,
    sample_travel_times,
    simulate_waiting,
    substream,
)

seed, n, q = 1, 8, 1000
net = random_network(n, seed=seed)
train = sample_travel_times(net, q, substream(seed, "sampling-train"))
test = sample_travel_times(net, q, substream(seed, "sampling-test"))

beta = 0.05
pen = penalties_from_beta(beta, beta, n)

for label, model in (("scenario", SaaModel(train)), ("moment", DroModel())):
    res = branch_and_bound(net, model, pen)
    rep = evaluate_plan(res.route, res.plan, test)
    print(f"{label:8s}: early {rep.early_rate:.3f}  late {rep.late_rate:.3f}  "
          f"mean width {rep.mean_length:.2f}  (target {beta})")

# early arrivals wait for the window to open: each stop's service starts
# at the later of the arrival and the window's lower edge
res = branch_and_bound(net, SaaModel(train), pen)
lowers = {k: res.plan.window_for(k)[0] for k in res.route.customers}
waits = simulate_waiting(res.route, lowers, test)
print(f"\nwith waiting, mean service start per stop:")
for j, k in enumerate(res.route.customers):
    print(f"  customer {k}: {waits[:, j].mean():8.2f} (window opens {lowers[k]:.2f})")

# sweep the miss target: tighter targets buy wider windows
print("\nguideline sweep, one network, 3 seeds")
grid = ((0.1, 0.1), (0.05, 0.05), (0.025, 0.025))
rows = guideline_sweep(net, beta_grid=grid, models=("sm", "rm"),
                       seeds=(0, 1, 2), q_train=400, q_test=400)
print(f"{'model':5s} {'beta':>6s} {'seed':>4s} {'early':>7s} {'late':>7s} {'width':>8s}")
for r in rows:
    print(f"{r['model']:5s} {float(r['beta_l']):6.3f} {r['seed']:4d} "
          f"{float(r['early_rate']):7.3f} {float(r['late_rate']):7.3f} "
          f"{float(r['width']):8.2f}")
