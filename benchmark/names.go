package main

import "strings"

// endToEndUnits names every end-to-end metric with its unit; BENCHMARK.json
// lists the same names with their regression bounds (a test keeps the
// two in step).
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"solve_p50_ms":      "ms",
	"model_facts_per_s": "facts/s",
	"alloc_mb_per_op":   "MB",
	"query_p50_ms":      "ms",
	"assert_p50_ms":     "ms",
	"queries_per_s":     "1/s",
	"recovery_s":        "s",
}

func isEndToEnd(name string) bool {
	_, ok := endToEndUnits[name]
	return ok
}

// unitOf gives a metric's unit: end-to-end metrics from the table, the
// per-layer ones from the suffix their names carry.
func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	if u, ok := perLayerUnits[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_share"), strings.HasPrefix(name, "core.") && strings.Contains(name, "_per_"), strings.Contains(name, "_over_"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "count"
}

// perLayerUnits holds the per-layer units the name does not give away.
var perLayerUnits = map[string]string{
	"parser.mb_per_s":                   "MB/s",
	"relation.insert_ns_per_row":        "ns",
	"relation.get_ns_per_probe":         "ns",
	"snapshot.bytes_per_fact":           "B",
	"wal.bytes_total":                   "B",
	"wal.bytes_per_fact":                "B",
	"core.solve_more_derived_per_batch": "count",
	"proc.gc_pause_ms_per_op":           "ms",
	"calib.factor":                      "ratio",
	"server.commit_batch_mean":          "count",
}
