// The benchmark is a module of its own so that `go build ./...` and
// `go test ./...` at the repo root never compile or run it, while the
// module path keeps it inside the tree that may import repro/internal.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
