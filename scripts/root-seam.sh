#!/usr/bin/env bash
# Rank 0 answers for the catalog in one place: internal/core broadcasts
# through onRoot (root.go) and in the paper's process-0 baseline
# (original.go) only. Fails when a non-comment line of any other non-test
# .go file of internal/core calls Bcast or BcastSlice.
set -euo pipefail
cd "$(dirname "$0")/../internal/core"
files=$(ls *.go | grep -v -e '_test\.go$' -e '^root\.go$' -e '^original\.go$')
if grep -nE 'Bcast(Slice)?(\[[^]]*\])?\(' $files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "root-seam: internal/core broadcasts outside onRoot (root.go) and original.go (lines above)" >&2
	exit 1
fi
