package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{ComponentBegin, ComponentEnd, RoundEnd}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(250).String() != "unknown" {
		t.Fatalf("out-of-range kind should render unknown")
	}
}

// TestPrometheusGolden pins the exposition format: family ordering,
// label rendering, histogram buckets, escaping, and float formatting.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	reqs := r.NewCounterVec("mdl_http_requests_total", "HTTP requests by endpoint and status code.", "endpoint", "code")
	lat := r.NewHistogramVec("mdl_http_request_duration_seconds", "HTTP request latency.", []float64{0.005, 0.1}, "endpoint")
	size := r.NewGaugeVec("mdl_program_model_size", "Tuples in the published model.", "program")
	info := r.NewGaugeVec("mdl_build_info", "Build information.", "go_version")

	reqs.With("/v1/query", "200").Add(3)
	reqs.With("/healthz", "200").Inc()
	reqs.With("/v1/query", "404").Inc()
	lat.With("/v1/query").Observe(0.004)
	lat.With("/v1/query").Observe(0.05)
	lat.With("/v1/query").Observe(2)
	size.With("sp").Set(128)
	size.With(`we"ird\name`).Set(1.5)
	info.With("go1.x").Set(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP mdl_build_info Build information.
# TYPE mdl_build_info gauge
mdl_build_info{go_version="go1.x"} 1
# HELP mdl_http_request_duration_seconds HTTP request latency.
# TYPE mdl_http_request_duration_seconds histogram
mdl_http_request_duration_seconds_bucket{endpoint="/v1/query",le="0.005"} 1
mdl_http_request_duration_seconds_bucket{endpoint="/v1/query",le="0.1"} 2
mdl_http_request_duration_seconds_bucket{endpoint="/v1/query",le="+Inf"} 3
mdl_http_request_duration_seconds_sum{endpoint="/v1/query"} 2.054
mdl_http_request_duration_seconds_count{endpoint="/v1/query"} 3
# HELP mdl_http_requests_total HTTP requests by endpoint and status code.
# TYPE mdl_http_requests_total counter
mdl_http_requests_total{endpoint="/healthz",code="200"} 1
mdl_http_requests_total{endpoint="/v1/query",code="200"} 3
mdl_http_requests_total{endpoint="/v1/query",code="404"} 1
# HELP mdl_program_model_size Tuples in the published model.
# TYPE mdl_program_model_size gauge
mdl_program_model_size{program="sp"} 128
mdl_program_model_size{program="we\"ird\\name"} 1.5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrency hammers every metric type from many
// goroutines while a scraper renders, under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounterVec("c_total", "c", "l")
	g := r.NewGaugeVec("g", "g", "l")
	h := r.NewHistogramVec("h", "h", []float64{1, 10}, "l")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w%4))
			for i := 0; i < per; i++ {
				c.With(lbl).Inc()
				g.With(lbl).Add(1)
				h.With(lbl).Observe(float64(i % 20))
				if i%100 == 0 {
					var b strings.Builder
					_ = r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()

	var total int64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += c.With(lbl).Value()
	}
	if total != workers*per {
		t.Fatalf("lost counter increments: got %d want %d", total, workers*per)
	}
	if got := h.With("a").s.count.Load(); got != 2*per {
		t.Fatalf("histogram count %d want %d", got, 2*per)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.NewGaugeVec("g", "g").With()
	g.Set(2.5)
	g.Add(-1)
	if v := g.Value(); v != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", v)
	}
}
