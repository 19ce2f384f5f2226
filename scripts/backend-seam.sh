#!/usr/bin/env bash
# The bundle layer names a backend kind ("dir", "cas", "obj") or a kind's
# concrete type (store.CAS, objstore.Service) in bundle_store.go only.
# Fails when a non-comment line of any other non-test .go file of the root
# package does.
set -euo pipefail
cd "$(dirname "$0")/.."
files=$(ls *.go | grep -v -e '_test\.go$' -e '^bundle_store\.go$')
if grep -nE '"(dir|cas|obj)"|store\.CAS|objstore\.Service' $files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "backend-seam: a backend kind is named outside bundle_store.go (lines above)" >&2
	exit 1
fi
