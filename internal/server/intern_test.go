package server

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/val"
)

// TestQueryNeverInterns: /v1/query and /v1/explain resolve the constants
// they are asked about without interning them, so a stream of lookups
// naming symbols, strings and sets no model holds answers "not found" and
// leaves the process-wide intern tables as they were.
func TestQueryNeverInterns(t *testing.T) {
	src := loadExample(t, "shortestpath.mdl")
	_, ts := startServer(t, []ProgramSpec{{Name: "sp", Source: src}}, Config{})
	texts, sets := val.Interned()
	for i := 0; i < 600; i++ {
		var url, body string
		switch i % 4 {
		case 0:
			url, body = "/v1/query", fmt.Sprintf(`{"op":"has","pred":"s","args":["a","fresh-%d"]}`, i)
		case 1:
			url, body = "/v1/query", fmt.Sprintf(`{"op":"cost","pred":"s","args":[{"str":"fresh-%d"},"d"]}`, i)
		case 2:
			url, body = "/v1/query", fmt.Sprintf(`{"op":"facts","pred":"s","args":[null,{"set":["a","fresh-%d"]}]}`, i)
		default:
			url, body = "/v1/explain", fmt.Sprintf(`{"pred":"s","args":["fresh-%d","d"]}`, i)
		}
		code, resp := post(t, ts.URL+url, body)
		if code != http.StatusOK || resp["found"] == true || resp["count"] != nil && resp["count"] != 0.0 {
			t.Fatalf("%s %s: %d %v", url, body, code, resp)
		}
	}
	if t2, s2 := val.Interned(); t2 != texts || s2 != sets {
		t.Fatalf("reads grew the intern tables: texts %d → %d, sets %d → %d", texts, t2, sets, s2)
	}
}
