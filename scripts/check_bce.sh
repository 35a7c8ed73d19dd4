#!/usr/bin/env bash
# check_bce.sh — bounds-check-elimination regression gate for the blocked
# hot kernels of the training data plane.
#
# Builds internal/matrix and internal/classifier with the compiler's BCE
# diagnostic (-gcflags=-d=ssa/check_bce) and fails if any per-element
# bounds check ("Found IsInBounds") survives in the named hot-kernel
# files — matrix/kernels.go (the scalar AffineInto / SqDistInto /
# ScatterRows / SigmoidInto / TanhInto / LogInto loops, the dispatch to their AVX2
# forms in kernels_amd64.s, and the row and fallback tails the vector
# kernels leave to Go) and classifier/flatfit.go (logistic regression's flat
# gradient and the MLP's batch passes). These are the inner loops every
# grid cell runs millions of times; their prologue re-slicing proves
# every element access in range, and this gate keeps refactors from
# silently reintroducing per-element checks.
#
# Slice-header checks ("Found IsSliceInBounds") are expected and allowed:
# they are the one-time prologue bounds proofs the blocked form hoists
# out of the loops, not per-element work.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! diag="$(go build -gcflags=-d=ssa/check_bce ./internal/matrix ./internal/classifier 2>&1)"; then
    echo "$diag"
    echo "check_bce.sh: go build failed" >&2
    exit 1
fi

hot='(internal/)?(matrix/kernels|classifier/flatfit)\.go'
if regressions="$(echo "$diag" | grep -E "${hot}.*Found IsInBounds")"; then
    echo "check_bce.sh: FAIL: per-element bounds checks in hot kernels:" >&2
    echo "$regressions" >&2
    echo "check_bce.sh: restore the prologue re-slicing that proves these accesses in range" >&2
    exit 1
fi

total="$(echo "$diag" | grep -c 'Found IsInBounds' || true)"
echo "check_bce.sh: OK: no per-element bounds checks in matrix/kernels.go or classifier/flatfit.go"
echo "check_bce.sh: (${total} IsInBounds remain elsewhere in matrix+classifier — cold paths, not gated)"
