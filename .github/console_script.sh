#!/usr/bin/env bash
# Runs every blindsearch command on tiny inputs in the current directory and
# checks the outputs that must exist or match byte for byte.
# Usage: cd <empty dir> && bash <repo>/.github/console_script.sh
set -euxo pipefail

blindsearch simulate --theta 0.8 --photons 200 --span 50 --omega 1.5 --omegadot=0 --seed 1 --out photons.txt
blindsearch naive --photons-file photons.txt --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --qreject 12 --out-dir sweep
test -f sweep/detections.csv
test -f sweep/manifest.json
blindsearch fit --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --lambda 0.01 --paths 3000 --qtrain-quantile 0.99 --seed 1 --out strategy.json
blindsearch fit --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --lambda 0.01 --paths 3000 --qtrain-quantile 0.99 --seed 1 --out strategy2.json
cmp strategy.json strategy2.json
# a config file is read with the flags' own types, so it gives the flag run's bytes
cat > fit.cfg <<'EOF'
omega_min = 1.0
omega_max = 2.0
omegadot_min = -1e-6
omegadot_max = 0
layers = 3
span = 50
photons = 200
lam = 0.01
paths = 3000
qtrain_quantile = 0.99
seed = 1
EOF
blindsearch fit --config fit.cfg --out strategy_cfg.json
cmp strategy.json strategy_cfg.json
blindsearch search --strategy strategy.json --photons-file photons.txt --qreject 12 --out-dir search
test -f strategy.json
test -f strategy.json.manifest.json
test -f search/detections.csv
blindsearch evaluate --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --lambdas 0.0,0.01,1.0 --thetas 0.8 --sims 2 --paths 2000 --qtrain-quantile 0.99 --qreject 12 --workers 2 --seed 1 --out curve.csv
test -f curve.csv
test "$(wc -l < curve.csv)" -eq 4
test -f curve.csv.manifest.json
blindsearch evaluate --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --lambdas 0.0,0.01,1.0 --thetas 0.8 --sims 2 --paths 2000 --qtrain-quantile 0.99 --qreject 12 --workers 1 --seed 1 --out curve1.csv
cmp curve.csv curve1.csv
blindsearch oracle --rho 0.8 --layers 3 --branching 2 --lambda 0.05 --q 1.0 --paths 2000 --sims 2000 --seed 0
blindsearch simulate --theta 0.8 --photons 200 --span 100 --omega 1.01 --omegadot=-5e-4 --seed 2 --out photons_mixed.txt
blindsearch naive --photons-file photons_mixed.txt --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --qreject 12 --out-dir sweep_mixed
grep -q '"method": "screen"' sweep_mixed/manifest.json
# the screened sweep reports exact values only, so a rerun writes the same bytes
blindsearch naive --photons-file photons_mixed.txt --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --qreject 12 --out-dir sweep_mixed2
cmp sweep_mixed/detections.csv sweep_mixed2/detections.csv
cmp sweep_mixed/layers.csv sweep_mixed2/layers.csv
# 16 drift rows of 9000 frequency positions: two screen segments a row, and the
# screen's batches of transforms cross rows; a config file gives the flag run's bytes
blindsearch simulate --theta 0.3 --photons 200 --span 1000 --omega 2.5 --omegadot=-5e-7 --seed 3 --out photons_long.txt
blindsearch naive --photons-file photons_long.txt --omega-min 1.0 --omega-max 4.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --qreject 12 --out-dir sweep_long
grep -q '"segments": 32' sweep_long/manifest.json
cat > naive.cfg <<'EOF'
omega_min = 1.0
omega_max = 4.0
omegadot_min = -1e-6
omegadot_max = 0
layers = 3
qreject = 12
EOF
blindsearch naive --config naive.cfg --photons-file photons_long.txt --out-dir sweep_long_cfg
cmp sweep_long/detections.csv sweep_long_cfg/detections.csv
cmp sweep_long/layers.csv sweep_long_cfg/layers.csv
# the mixed and long sweeps again, all four in one process: each sweep after the first
# screens in the buffers an earlier one gave back, and writes the separate runs' bytes
python -c '
import sys
from blindsearch.cli import run
mixed = ["naive", "--photons-file", "photons_mixed.txt", "--omega-min", "1.0",
         "--omega-max", "1.02", "--omegadot-min=-1e-3", "--omegadot-max=0", "--layers", "5",
         "--span", "100", "--qreject", "12"]
long = ["naive", "--photons-file", "photons_long.txt", "--omega-min", "1.0", "--omega-max", "4.0",
        "--omegadot-min=-1e-6", "--omegadot-max=0", "--layers", "3", "--qreject", "12"]
long_cfg = ["naive", "--config", "naive.cfg", "--photons-file", "photons_long.txt"]
for argv, out in ((mixed, "sweep_mixed_in1"), (long, "sweep_long_in1"),
                  (mixed, "sweep_mixed_in2"), (long_cfg, "sweep_long_in2")):
    if run(argv + ["--out-dir", out]) != 0:
        sys.exit(f"naive into {out} failed")
'
for run in 1 2; do
  cmp sweep_mixed/detections.csv "sweep_mixed_in$run/detections.csv"
  cmp sweep_mixed/layers.csv "sweep_mixed_in$run/layers.csv"
  cmp sweep_long/detections.csv "sweep_long_in$run/detections.csv"
  cmp sweep_long/layers.csv "sweep_long_in$run/layers.csv"
done
blindsearch evaluate --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --photons 200 --lambdas 0.0,0.01,1.0 --thetas 0.8 --sims 2 --paths 2000 --qtrain-quantile 0.99 --qreject 12 --workers 2 --seed 1 --out curve_mixed.csv
test "$(wc -l < curve_mixed.csv)" -eq 4
blindsearch evaluate --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --photons 200 --lambdas 0.0,0.01,1.0 --thetas 0.8 --sims 2 --paths 2000 --qtrain-quantile 0.99 --qreject 12 --workers 1 --seed 1 --out curve_mixed1.csv
cmp curve_mixed.csv curve_mixed1.csv
# the strategies walk each null dataset in turn over one evaluator that computes each
# node once, so the lambdas' order moves no lambda's point
blindsearch evaluate --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --photons 200 --lambdas 1.0,0.01,0.0 --thetas 0.8 --sims 2 --paths 2000 --qtrain-quantile 0.99 --qreject 12 --workers 1 --seed 1 --out curve_mixed_rev.csv
diff <(tail -n +2 curve_mixed1.csv | sort) <(tail -n +2 curve_mixed_rev.csv | sort)
# a search that writes its observed log on the mixed grid writes the same bytes twice
blindsearch fit --omega-min 1.0 --omega-max 1.02 --omegadot-min=-1e-3 --omegadot-max=0 --layers 5 --span 100 --photons 200 --lambda 0.01 --paths 3000 --qtrain-quantile 0.99 --seed 1 --out strategy_mixed.json
blindsearch search --strategy strategy_mixed.json --photons-file photons_mixed.txt --qreject 12 --emit-observed --out-dir search_mixed
blindsearch search --strategy strategy_mixed.json --photons-file photons_mixed.txt --qreject 12 --emit-observed --out-dir search_mixed2
cmp search_mixed/observed.csv search_mixed2/observed.csv
cmp search_mixed/detections.csv search_mixed2/detections.csv
# malformed input exits 3: a list value that is not numbers, and a strategy whose tree is a list
printf 'lambdas = abc\n' > bad_lambdas.cfg
rc=0
blindsearch evaluate --config bad_lambdas.cfg --out bad_curve.csv || rc=$?
test "$rc" -eq 3
python -c 'import json; d = json.load(open("strategy.json")); d["tree"] = list(d["tree"].values()); json.dump(d, open("bad_tree.json", "w"))'
rc=0
blindsearch search --strategy bad_tree.json --photons-file photons.txt --qreject 12 --out-dir bad_search || rc=$?
test "$rc" -eq 3
# a photon file with a time beyond its span exits 3 and names the file
printf '# T=50\n10.0\n60.0\n' > late_photons.txt
rc=0
blindsearch search --strategy strategy.json --photons-file late_photons.txt --qreject 12 --out-dir late_search 2> late_search.err || rc=$?
test "$rc" -eq 3
grep -q 'late_photons.txt' late_search.err
# a span that is not finite exits 3 at once: simulate's sampler would never accept a photon
rc=0
timeout 60 blindsearch simulate --span inf --out inf_photons.txt || rc=$?
test "$rc" -eq 3
printf '# T=inf\n1.0\n2.0\n' > inf_span.txt
rc=0
blindsearch naive --photons-file inf_span.txt --qreject 12 --out-dir inf_sweep 2> inf_sweep.err || rc=$?
test "$rc" -eq 3
grep -q 'inf_span.txt' inf_sweep.err
# a grid whose phases reach 2^40 cycles exits 3: one position at 1 Hz over 1e13 s
printf '# T=1e13\n1.0\n2.0\n' > far_photons.txt
rc=0
blindsearch naive --photons-file far_photons.txt --omega-min 1.0 --omega-max 1.0 --omegadot-min=0 --omegadot-max=0 --layers 3 --qreject 12 --out-dir far_sweep 2> far_sweep.err || rc=$?
test "$rc" -eq 3
grep -q 'phase bound' far_sweep.err
# two thetas that would write the same file exit 3 before any work, writing no CSV
rc=0
blindsearch evaluate --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --lambdas 0.01 --thetas 0.5,0.5 --sims 2 --paths 2000 --qreject 12 --workers 1 --seed 1 --out dup_curve.csv || rc=$?
test "$rc" -eq 3
test -z "$(find . -maxdepth 1 -name 'dup_curve*.csv')"
# a training sample with no path at the training threshold exits 4 in evaluate, as in fit,
# before any simulation, writing no curve
rc=0
blindsearch evaluate --omega-min 1.0 --omega-max 2.0 --omegadot-min=-1e-6 --omegadot-max=0 --layers 3 --span 50 --photons 200 --paths 200 --qtrain-quantile 0.9999 --lambdas 0.0,0.01 --thetas 0.8 --sims 8 --qreject 12 --workers 1 --out degenerate_curve.csv || rc=$?
test "$rc" -eq 4
test ! -e degenerate_curve.csv
# one oracle simulation gives no standard error: exit 3
rc=0
blindsearch oracle --layers 2 --paths 400 --sims 1 || rc=$?
test "$rc" -eq 3
