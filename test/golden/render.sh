#!/usr/bin/env bash
# Prints the codec golden: the replies and journal payloads of a 1-worker
# `rpq batch --journal` over jobs.txt, then one `rpq certify --json`
# hardness record, with wall-clock fields (wall_s, stages, trace) blanked.
# Run from the repository root with the path of a built rpq binary:
#
#   bash test/golden/render.sh _build/default/bin/rpq_cli.exe > out.txt
#   diff -u test/golden/expected.txt out.txt
set -euo pipefail
rpq=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
blank() {
  sed -E -e 's/"wall_s":[^,}]*/"wall_s":0/g' \
    -e 's/"stages":\{[^}]*\}/"stages":{}/g' \
    -e 's/"trace":"[^"]*"/"trace":""/g'
}
set +e
"$rpq" batch test/golden/jobs.txt --workers 1 --journal "$dir/j" > "$dir/replies" 2> /dev/null
code=$?
set -e
echo "# batch exit $code"
blank < "$dir/replies"
echo "# journal payloads"
# Record lines are <len>:<crc>:<seq>:<payload>; the header line is skipped.
tail -n +2 "$dir/j" | cut -d: -f4- | blank
echo "# certify --json aa"
"$rpq" certify --json aa | blank
