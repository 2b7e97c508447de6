#!/bin/sh
# ci.sh — the one-command verification gate for a PR branch:
# build + bench-smoke + fmt-check + vet + lint + race + race-hub +
# race-search + race-dist + fingerprint + fingerprint-pooled +
# fingerprint-hub, in order, stopping at the first failure. Slower
# batteries are separate opt-ins: `make fuzz` (hostile-input budget),
# `make bench` (paper tables).
#
# Each stage's full output is streamed and also kept in
# .ci-logs/<target>.log, so a failure deep in a long stage (a -race FAIL
# among dozens of packages) survives a truncated terminal; a failing
# stage names its log.
#
# Usage: scripts/ci.sh   (or: make ci)
set -eu

cd "$(dirname "$0")/.."

logs=.ci-logs
mkdir -p "$logs"

# stage runs one make target, teeing its output into its log. The
# pipeline's status is tee's, so the target's failure is recorded in a
# marker file beside the log.
stage() {
	log=$logs/$1.log
	echo "==> make $1"
	rm -f "$log.failed"
	{ make "$1" 2>&1 || touch "$log.failed"; } | tee "$log"
	if [ -e "$log.failed" ]; then
		rm -f "$log.failed"
		echo "ci: make $1 failed; full output in $log" >&2
		exit 1
	fi
}

for target in build bench-smoke fmt-check vet lint race race-hub race-search \
	race-dist fingerprint fingerprint-pooled fingerprint-hub; do
	stage "$target"
done

echo "==> ci: all gates passed"
