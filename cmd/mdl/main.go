// Command mdl evaluates monotonic-aggregation Datalog programs (Ross &
// Sagiv, PODS 1992) bottom-up and prints their minimal model.
//
// Usage:
//
//	mdl [flags] program.mdl [more.mdl ...]
//
// Flags:
//
//	-check         run the static analyses only and print the classification
//	-naive         use the naive T_P iteration instead of semi-naive
//	-eps ε         numeric convergence tolerance (for ω-limit programs)
//	-max-rounds N  fixpoint round bound per component
//	-max-facts N   derivation budget per solve (0 = unlimited)
//	-timeout d     wall-clock budget for evaluation, e.g. 1s (0 = none)
//	-query pred    print only the tuples of one predicate
//	-stats         print evaluation statistics to stderr, including
//	               per-component and per-rule hot-spot tables
//	-profile       print EXPLAIN ANALYZE to stderr: the compiled operator
//	               tree of every rule annotated with measured row counts,
//	               index probes and build sizes
//	-profile-json f  also write the profile as JSON to file f (the
//	               machine-readable EXPLAIN ANALYZE form; implies -profile)
//	-pprof-addr a  serve net/http/pprof on its own listener at address a
//	               while evaluating (e.g. localhost:6060)
//	-unchecked     skip the static checks (minimal model no longer guaranteed)
//	-wfs-fallback  evaluate negation-recursive components by WFS (§6.3)
//	-explain atom  print the derivation tree of one ground atom, e.g.
//	               -explain 's(a, c)', re-derived from the model
//	-checkpoint f        durably checkpoint the evolving model to file f
//	                     (atomic write-rename; f always holds a complete,
//	                     verifiable snapshot)
//	-checkpoint-every N  rounds between periodic checkpoints (default 1;
//	                     component boundaries always checkpoint)
//	-resume f            restore the model from checkpoint f and continue
//	                     the fixpoint from there
//
// SIGINT (Ctrl-C) cancels the evaluation gracefully: the partial model
// and statistics are printed to stderr before exiting. A breached
// -timeout or -max-facts budget, and detected divergence (an ω-limit
// program such as Example 5.1), behave the same way. With -checkpoint
// set, all of these flush one final checkpoint before exiting, so the
// run can be continued with -resume.
//
// A checkpoint records a fingerprint of the program text; -resume
// refuses a checkpoint written by a different program rather than ever
// computing a wrong model.
//
// Exit codes: 0 success, 1 usage or I/O error, 2 parse error, 3 failed
// static check, 4 evaluation failure, 5 checkpoint or restore failure
// (unwritable sink, corrupt or torn checkpoint file, program
// fingerprint mismatch), 6 write-ahead log failure (mid-log corruption
// or a log that disagrees with the checkpoint watermark; serve only).
//
// The serve subcommand (mdl serve [flags] program.mdl ...) runs the
// long-lived HTTP/JSON query service instead of a batch solve; see
// serve.go and docs/SERVER.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/datalog"
)

// Exit codes; kept distinct so scripts can tell a bad invocation from a
// bad program from a bad evaluation.
const (
	exitOK         = 0
	exitUsage      = 1
	exitParse      = 2
	exitStatic     = 3
	exitEval       = 4
	exitCheckpoint = 5
	exitWAL        = 6
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "serve" {
		return runServe(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("mdl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.Bool("check", false, "run static checks only")
	naive := fs.Bool("naive", false, "use the naive fixpoint strategy")
	eps := fs.Float64("eps", 0, "numeric convergence tolerance")
	maxRounds := fs.Int("max-rounds", 0, "fixpoint round bound per component")
	maxFacts := fs.Int64("max-facts", 0, "derivation budget per solve (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for evaluation, e.g. 1s (0 = none)")
	query := fs.String("query", "", "print only this predicate")
	stats := fs.Bool("stats", false, "print evaluation statistics")
	unchecked := fs.Bool("unchecked", false, "skip static checks")
	wfsFallback := fs.Bool("wfs-fallback", false, "evaluate negation-recursive components by WFS (§6.3)")
	explain := fs.String("explain", "", "print the derivation tree of a ground atom, e.g. 's(a, c)'")
	profile := fs.Bool("profile", false, "print EXPLAIN ANALYZE (per-operator row counts and probe totals) to stderr")
	profileJSON := fs.String("profile-json", "", "write the EXPLAIN ANALYZE profile as JSON to this file (implies -profile)")
	ckptPath := fs.String("checkpoint", "", "durably checkpoint the evolving model to this file")
	ckptEvery := fs.Int("checkpoint-every", 1, "rounds between periodic checkpoints (with -checkpoint)")
	resumePath := fs.String("resume", "", "resume evaluation from a checkpoint file written by -checkpoint")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener) during evaluation")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "mdl:", msg)
		return exitUsage
	}
	// Validate flag values before doing any work.
	if !(*eps >= 0) || math.IsInf(*eps, 1) {
		return usage("-eps must be a finite number ≥ 0")
	}
	if *maxRounds < 0 {
		return usage("-max-rounds must be ≥ 0")
	}
	if *maxFacts < 0 {
		return usage("-max-facts must be ≥ 0")
	}
	if *ckptEvery < 0 {
		return usage("-checkpoint-every must be ≥ 0")
	}
	timeoutSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "timeout" {
			timeoutSet = true
		}
	})
	if *profileJSON != "" {
		*profile = true
	}
	if timeoutSet && *timeout <= 0 {
		return usage("-timeout must be > 0")
	}
	// -check never evaluates, so evaluation-only flags genuinely conflict
	// with it. -resume combined with positional program/fact files does
	// NOT conflict up front: the files are needed to reload the program,
	// and extra or changed fact files are arbitrated by the checkpoint's
	// program fingerprint at restore time (exit 5 on a real mismatch)
	// rather than rejected blindly here.
	if *check && *resumePath != "" {
		return usage("-check does not evaluate; it cannot be combined with -resume")
	}
	if *check && *ckptPath != "" {
		return usage("-check does not evaluate; it cannot be combined with -checkpoint")
	}
	if *check && *stats {
		return usage("-check does not evaluate; it cannot be combined with -stats")
	}
	if *check && *pprofAddr != "" {
		return usage("-check does not evaluate; it cannot be combined with -pprof-addr")
	}
	if *check && *profile {
		return usage("-check does not evaluate; it cannot be combined with -profile")
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mdl [flags] program.mdl ...")
		fs.PrintDefaults()
		return exitUsage
	}
	var src strings.Builder
	for _, f := range fs.Args() {
		b, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, "mdl:", err)
			return exitUsage
		}
		src.Write(b)
		src.WriteByte('\n')
	}

	opts := datalog.Options{
		Epsilon:     *eps,
		MaxRounds:   *maxRounds,
		MaxFacts:    *maxFacts,
		MaxDuration: *timeout,
		SkipChecks:  *unchecked || *check,
		WFSFallback: *wfsFallback,
	}
	if *naive {
		opts.Strategy = datalog.Naive
	}
	p, err := datalog.Load(src.String(), opts)
	if err != nil {
		fmt.Fprintln(stderr, "mdl:", err)
		if errors.Is(err, datalog.ErrParse) {
			return exitParse
		}
		return exitStatic
	}
	if *check {
		cl := p.Classify()
		fmt.Fprintf(stdout, "admissible (monotonic):      %v\n", cl.Admissible)
		if !cl.Admissible {
			fmt.Fprintf(stdout, "  reason: %s\n", cl.Reason)
		}
		fmt.Fprintf(stdout, "r-monotonic (Mumick et al.): %v\n", cl.RMonotonic)
		fmt.Fprintf(stdout, "aggregate stratified:        %v\n", cl.AggregateStratified)
		fmt.Fprintf(stdout, "negation stratified:         %v\n", cl.NegationStratified)
		if !cl.Admissible {
			return exitStatic
		}
		return exitOK
	}
	if *pprofAddr != "" {
		closer, perr := startPprof(*pprofAddr, stderr)
		if perr != nil {
			fmt.Fprintln(stderr, "mdl:", perr)
			return exitUsage
		}
		defer closer.Close()
	}
	var solveOpts []datalog.SolveOption
	if *ckptPath != "" {
		solveOpts = append(solveOpts, datalog.WithCheckpoint(datalog.FileCheckpoint(*ckptPath), *ckptEvery))
	}
	var restored *datalog.Model
	if *resumePath != "" {
		var rerr error
		if restored, _, rerr = p.RestoreFile(*resumePath); rerr != nil {
			fmt.Fprintln(stderr, "mdl:", rerr)
			return exitCheckpoint
		}
	}
	m, st, err := p.Resume(ctx, restored, nil, solveOpts...)
	if err != nil {
		fmt.Fprintln(stderr, "mdl:", err)
		// Limit breaches keep the work done so far: print the partial
		// model and the statistics to stderr before giving up, and —
		// when checkpointing — flush one final checkpoint so the run
		// can continue with -resume. (Skip the flush when the failure
		// was the checkpoint sink itself.)
		if m != nil {
			if *ckptPath != "" && !errors.Is(err, datalog.ErrCheckpoint) {
				if werr := m.WriteSnapshot(*ckptPath, 0); werr != nil {
					fmt.Fprintln(stderr, "mdl: final checkpoint:", werr)
					return exitCheckpoint
				}
				fmt.Fprintf(stderr, "mdl: checkpoint saved; continue with -resume %s\n", *ckptPath)
			}
			fmt.Fprintln(stderr, "partial results (not a fixpoint):")
			fmt.Fprint(stderr, m.String())
		}
		printStats(stderr, st)
		if *profile {
			// The counters cover the work performed up to the breach —
			// on a divergence they show which operator pipeline blew up.
			p.Profile(st).Render(stderr)
		}
		if errors.Is(err, datalog.ErrCheckpoint) {
			return exitCheckpoint
		}
		return exitEval
	}
	if *stats {
		printStats(stderr, st)
	}
	if *profile {
		prof := p.Profile(st)
		prof.Render(stderr)
		if *profileJSON != "" {
			b, jerr := json.MarshalIndent(prof, "", "  ")
			if jerr == nil {
				jerr = os.WriteFile(*profileJSON, append(b, '\n'), 0o644)
			}
			if jerr != nil {
				fmt.Fprintln(stderr, "mdl: profile-json:", jerr)
				return exitUsage
			}
		}
	}
	if *explain != "" {
		pred, args, err := parseAtom(*explain)
		if err != nil {
			fmt.Fprintln(stderr, "mdl:", err)
			return exitUsage
		}
		fmt.Fprint(stdout, m.ExplainTree(pred, 10, args...))
		return exitOK
	}
	if *query != "" {
		for _, row := range m.Facts(*query) {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.String()
			}
			fmt.Fprintf(stdout, "%s(%s).\n", *query, strings.Join(parts, ", "))
		}
		return exitOK
	}
	fmt.Fprint(stdout, m.String())
	return exitOK
}

func printStats(w io.Writer, st datalog.Stats) {
	fmt.Fprintf(w, "components=%d rounds=%d firings=%d derived=%d probes=%d\n",
		st.Components, st.Rounds, st.Firings, st.Derived, st.Probes)
	if len(st.Comps) > 0 {
		fmt.Fprintln(w, "components:")
		for _, cs := range st.Comps {
			flags := ""
			if cs.WFS {
				flags = " wfs"
			} else if !cs.Admissible {
				flags = " non-admissible"
			}
			fmt.Fprintf(w, "  #%-3d %-32s rounds=%-5d firings=%-8d derived=%-8d probes=%-8d time=%s%s\n",
				cs.Index, truncateRule(cs.Preds, 32), cs.Rounds, cs.Firings, cs.Derived, cs.Probes,
				formatNanos(cs.Nanos), flags)
		}
	}
	if len(st.Rules) == 0 {
		return
	}
	// Hot-spot table: rules sorted by cumulative evaluation time.
	rules := append([]datalog.RuleStats(nil), st.Rules...)
	sort.SliceStable(rules, func(i, j int) bool { return rules[i].Nanos > rules[j].Nanos })
	fmt.Fprintln(w, "rule hot spots (by cumulative time):")
	for _, rs := range rules {
		fmt.Fprintf(w, "  %9s %-48s comp=%-3d rounds=%-5d firings=%-8d derived=%-8d probes=%d\n",
			formatNanos(rs.Nanos), truncateRule(rs.Rule, 48), rs.Component,
			rs.Rounds, rs.Firings, rs.Derived, rs.Probes)
	}
}

// formatNanos renders a nanosecond total compactly (µs/ms/s).
func formatNanos(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fms", float64(n)/1e6)
	default:
		return fmt.Sprintf("%.0fµs", float64(n)/1e3)
	}
}

// truncateRule bounds a rule rendering for the fixed-width table.
func truncateRule(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// parseAtom parses a ground atom like "s(a, c)" into a predicate name and
// argument values.
func parseAtom(text string) (string, []datalog.Value, error) {
	open := strings.IndexByte(text, '(')
	if open < 0 {
		return strings.TrimSpace(text), nil, nil
	}
	if !strings.HasSuffix(strings.TrimSpace(text), ")") {
		return "", nil, fmt.Errorf("bad atom %q", text)
	}
	pred := strings.TrimSpace(text[:open])
	inner := strings.TrimSpace(text[open+1 : strings.LastIndexByte(text, ')')])
	var args []datalog.Value
	if inner != "" {
		for _, part := range strings.Split(inner, ",") {
			part = strings.TrimSpace(part)
			if n, err := strconv.ParseFloat(part, 64); err == nil {
				args = append(args, datalog.Num(n))
			} else {
				args = append(args, datalog.Sym(part))
			}
		}
	}
	return pred, args, nil
}
