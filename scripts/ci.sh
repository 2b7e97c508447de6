#!/bin/sh
# ci.sh — the one-command verification gate for a PR branch:
# build + bench-smoke + fmt-check + vet + lint + race + race-hub +
# race-search + fingerprint + fingerprint-pooled + fingerprint-hub, in
# order, stopping at the first failure. Slower batteries are separate
# opt-ins: `make fuzz` (hostile-input budget), `make race-dist` (full
# distributed campaign battery over localhost TCP), `make bench` (paper
# tables).
#
# Usage: scripts/ci.sh   (or: make ci)
set -eu

cd "$(dirname "$0")/.."

stage() {
	echo "==> $*"
}

stage make build
make build
stage make bench-smoke
make bench-smoke
stage make fmt-check
make fmt-check
stage make vet
make vet
stage make lint
make lint
stage make race
make race
stage make race-hub
make race-hub
stage make race-search
make race-search
stage make fingerprint
make fingerprint
stage make fingerprint-pooled
make fingerprint-pooled
stage make fingerprint-hub
make fingerprint-hub

stage "ci: all gates passed"
