#!/bin/sh
# Pins the campaign artifact bytes (cell JSON, lens sidecars, summaries)
# against tests/tools/artifacts_golden, in both directions of the layout:
#
#   1. a fresh run of every golden config must write exactly the golden
#      files (timing sidecars excluded: wall-clock is not pinned);
#   2. a --resume run over a copy of the golden files must restore every
#      cell (no "resumed": false in the timing sidecars) and leave the
#      bytes unchanged, so the reader accepts what the writer pinned.
#
# usage: check_artifacts_golden.sh <campaign-binary> <tests/tools dir> <scratch dir>
set -eu
campaign=$1
src=$2
work=$3
golden=$src/artifacts_golden

# All configs into one directory. The window sweep finds agreement
# violations (pinned in violating_seeds), so exit 1 is expected; exit 2 is
# an error.
run() {
  for cfg in window async async_censor; do
    status=0
    "$campaign" "$src/campaign_golden_$cfg.cfg" --output-dir "$@" || status=$?
    if [ "$status" -gt 1 ]; then
      echo "campaign failed on $cfg (exit $status)" >&2
      exit 1
    fi
  done
}

rm -rf "$work"
mkdir -p "$work"
run "$work/fresh"
diff -r -x '*_timing.json' "$golden" "$work/fresh"

cp -r "$golden" "$work/resumed"
run "$work/resumed" --resume
if grep -l '"resumed": false' "$work"/resumed/*_timing.json; then
  echo "some golden cells were recomputed instead of resumed" >&2
  exit 1
fi
diff -r -x '*_timing.json' "$golden" "$work/resumed"
echo "artifacts match golden (fresh and resumed)"
