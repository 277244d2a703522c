#!/bin/sh
# Fused multiply-add gate. Go may fuse x*y + z into one FMA instruction
# on architectures that have it (arm64, ppc64le, riscv64, s390x), and a
# fused result is rounded once instead of twice, so the same program can
# print different costs on two machines. amd64 builds never fuse, which
# is why the suite cannot see it. This script cross-compiles the mdl
# binary and the root test binary for three fusing architectures and
# fails if any function of the repro module contains a fused
# multiply-add. The fix at a flagged line is an explicit float64(...)
# conversion around the product, which the Go spec says forces rounding.
#
#   sh scripts/fma_check.sh
#
# Needs only the Go toolchain: cross-compiling the standard library
# fetches nothing.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM
cd "$ROOT"

GO=${GO:-go}
found=0
for arch in arm64 ppc64le riscv64; do
    GOOS=linux GOARCH=$arch $GO build -o "$WORK/mdl.$arch" ./cmd/mdl
    GOOS=linux GOARCH=$arch $GO test -c -o "$WORK/tests.$arch" .
    for bin in mdl tests; do
        hits=$($GO tool objdump -s '^repro/' "$WORK/$bin.$arch" |
            grep -E '[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[A-Z]*[[:space:]]' || true)
        if [ -n "$hits" ]; then
            echo "fused multiply-add in $bin ($arch):"
            echo "$hits"
            found=1
        fi
    done
done
if [ "$found" -ne 0 ]; then
    echo "fma-check: FAIL (round the product with an explicit float64(...))"
    exit 1
fi
echo "fma-check: ok (arm64, ppc64le, riscv64)"
