// mdlload is an open-loop load generator for the mdl serve tier. It
// drives a mixed query/assert workload at a fixed arrival rate —
// requests are launched on schedule whether or not earlier ones have
// returned, so a saturated server accumulates queueing delay and sheds
// instead of silently slowing the generator down (coordinated-omission
// free). It records per-class latency quantiles and error/shed rates,
// scrapes the server's commit batch-size histogram, and merges the
// report into a BENCH_<date>.json, keeping whatever else the file holds.
//
// Usage:
//
//	mdlload [flags]
//
//	-url u          base server URL (default http://127.0.0.1:8317)
//	-program n      program name to target (default: the server's single program)
//	-duration d     run length (default 10s)
//	-rate r         request arrivals per second (default 200)
//	-assert-frac f  fraction of requests that are asserts (default 0.1)
//	-timeout d      per-request client timeout (default 5s)
//	-label s        phase label recorded in the report (default "steady")
//	-out f          BENCH json to merge the report into ("" = stdout only)
//
// Exit codes: 0 success, 1 usage or an unreachable server.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdlload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := loadConfig{}
	fs.StringVar(&cfg.BaseURL, "url", "http://127.0.0.1:8317", "base server URL")
	fs.StringVar(&cfg.Program, "program", "", "program name to target")
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "run length")
	fs.Float64Var(&cfg.Rate, "rate", 200, "request arrivals per second (open loop)")
	fs.Float64Var(&cfg.AssertFrac, "assert-frac", 0.1, "fraction of requests that are asserts")
	fs.DurationVar(&cfg.Timeout, "timeout", 5*time.Second, "per-request client timeout")
	fs.StringVar(&cfg.Label, "label", "steady", "phase label recorded in the report")
	out := fs.String("out", "", "BENCH json file to merge the report into (empty = stdout only)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if cfg.Rate <= 0 || cfg.Duration <= 0 || cfg.AssertFrac < 0 || cfg.AssertFrac > 1 {
		fmt.Fprintln(stderr, "mdlload: -rate and -duration must be > 0 and -assert-frac in [0, 1]")
		return 1
	}

	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mdlload:", err)
		return 1
	}
	if err := emitReport(rep, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "mdlload:", err)
		return 1
	}
	fmt.Fprintf(stderr, "mdlload: %s (wal-fsync=%s gomaxprocs=%d): %d sent; query p50=%.1fms p99=%.1fms shed=%d err=%d; assert p50=%.1fms p99=%.1fms shed=%d err=%d; mean commit batch %.2f\n",
		rep.Label, rep.WALFsync, rep.GoMaxProcs, rep.Sent,
		rep.Query.P50Ms, rep.Query.P99Ms, rep.Query.Shed, rep.Query.Errors,
		rep.Assert.P50Ms, rep.Assert.P99Ms, rep.Assert.Shed, rep.Assert.Errors,
		rep.CommitBatchMean)
	return 0
}
