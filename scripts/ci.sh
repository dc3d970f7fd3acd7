#!/usr/bin/env bash
# The CI checks, one step each; .github/workflows/tests.yml calls them one
# by one after installing the package with its dev extras.
#
#     bash scripts/ci.sh STEP    runs one step, its output on the terminal
#     bash scripts/ci.sh         runs every step in order, each one's output
#                                to ci-out/STEP.log, and prints one line per
#                                step; exits 1 if any step failed
#
# Run from the root of the repository.  Every step puts src on PYTHONPATH,
# so none needs the package installed.

set -euo pipefail

STEPS=(
  tier-1
  sweep-filter
  stepper-filter
  second-call
  gates-figures-dense
  gates-threshold-gate-1
  gates-threshold-gate-2
  gates-threshold-gate-3
  gates-relax-1
  gates-relax-2
  traced-threshold-gate
  traced-relax
)

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

run_step() {
  case "$1" in
    tier-1)
      python -m pytest -q --continue-on-collection-errors ;;
    sweep-filter)  # sweep rows do not depend on the warning filter
      python scripts/filter_scans.py overflow-spec overflow-scan.json
      for filter in default error; do
        python -W "$filter" -m omsqueeze.cli sweep --config overflow-scan.json --out "scan-$filter.csv"
        python -W "$filter" -m omsqueeze.cli sweep --config overflow-scan.json --format json --out "scan-$filter.json"
      done
      cmp scan-default.csv scan-error.csv
      cmp scan-default.json scan-error.json ;;
    stepper-filter)  # stepper verdicts do not depend on the warning filter
      for filter in default error; do
        python -W "$filter" scripts/filter_scans.py stepper-verdicts > "verdicts-$filter.txt"
      done
      cat verdicts-default.txt
      cmp verdicts-default.txt verdicts-error.txt ;;
    second-call)  # a second in-process call prints what a fresh process prints
      python -m omsqueeze.cli evolve --preset appendixC > fresh-evolve.txt
      python -m omsqueeze.cli stability --preset paper > fresh-stability.txt
      python - <<'EOF'
import contextlib, io
from omsqueeze.cli import main
argvs = {"evolve": ["evolve", "--preset", "appendixC"],
         "stability": ["stability", "--preset", "paper"]}
for _ in range(2):  # the second pass overwrites the first
    for name, argv in argvs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        with open(f"second-{name}.txt", "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
EOF
      cmp fresh-evolve.txt second-evolve.txt
      cmp fresh-stability.txt second-stability.txt ;;
    gates-figures-dense)
      python3 perfbench/run.py --workload figures-dense --seed 1 --seconds 1 ;;
    gates-threshold-gate-[123])
      python3 perfbench/run.py --workload threshold-gate --seed "${1##*-}" --seconds 1 ;;
    gates-relax-[12])
      python3 perfbench/run.py --workload relax --seed "${1##*-}" --seconds 1 ;;
    traced-threshold-gate)
      python3 perfbench/run.py --workload threshold-gate --seed 1 --seconds 1 --trace 1 ;;
    traced-relax)
      python3 perfbench/run.py --workload relax --seed 1 --seconds 1 --trace 1 ;;
    *)
      echo "unknown step '$1'; steps: ${STEPS[*]}" >&2
      exit 2 ;;
  esac
}

if [[ $# -gt 0 ]]; then
  run_step "$1"
  exit
fi

# Each step runs in its own shell, so `set -e` stops it at its first failure.
mkdir -p ci-out
failed=0
for step in "${STEPS[@]}"; do
  start=$SECONDS
  if bash "$0" "$step" > "ci-out/$step.log" 2>&1; then
    status=ok
  else
    status=FAIL
    failed=1
  fi
  printf '%-4s %-24s %4ds  ci-out/%s.log\n' "$status" "$step" $((SECONDS - start)) "$step"
done
exit "$failed"
