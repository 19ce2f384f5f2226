#!/usr/bin/env bash
# The setup path builds meshes and partition graphs in flat arrays, not
# hash maps: dropping the maps halved the benchmark's setup_s, and that
# metric's loose bound would not catch one coming back. Fails when a
# non-comment line of a non-test .go file under internal/mesh or
# internal/partition declares a map type.
set -euo pipefail
cd "$(dirname "$0")/../internal"
files=$(ls mesh/*.go partition/*.go | grep -v '_test\.go$')
if grep -nE '(^|[^[:alnum:]_])map\[' $files | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
	echo "setup-maps: a map type in the mesh or partition setup path (lines above)" >&2
	exit 1
fi
