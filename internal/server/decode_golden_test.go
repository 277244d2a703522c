package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// decodeRecord renders the decoder's verdict on every input of the
// decode corpora: each fact array of factsCorpus, and each value of
// decodeOKCases, decodeBadCases and valueSeeds read as a pattern
// ("value", wildcards allowed) and as a constant ("const"). An accepted
// input shows what it decoded to in its wire encoding; a refused one
// shows only that it was refused, since error texts are not the wire
// format.
func decodeRecord() string {
	var b strings.Builder
	for _, in := range factsCorpus() {
		fmt.Fprintf(&b, "facts %s -> ", strconv.Quote(in))
		if fs, err := decodedFacts([]byte(in)); err != nil {
			b.WriteString("refused\n")
		} else {
			fmt.Fprintf(&b, "ok %s\n", encodeWALPayload(fs))
		}
	}
	var values []string
	for _, c := range decodeOKCases {
		values = append(values, c.in)
	}
	values = append(append(values, decodeBadCases...), valueSeeds...)
	for _, in := range values {
		for _, wild := range []bool{true, false} {
			form := "const"
			if wild {
				form = "value"
			}
			fmt.Fprintf(&b, "%s %s -> ", form, strconv.Quote(in))
			if v, err := decodeValue([]byte(in), wild); err != nil {
				b.WriteString("refused\n")
			} else {
				var enc bytes.Buffer
				encodeValue(&enc, v)
				fmt.Fprintf(&b, "ok %s\n", enc.String())
			}
		}
	}
	return b.String()
}

// TestDecodeGolden: every input of the decode corpora is accepted or
// refused as recorded in testdata/decode.golden, and an accepted one
// decodes to the recorded facts or value.
func TestDecodeGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "decode.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeRecord()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from the recorded verdict:\ngot  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("record has %d lines, the golden %d", len(gl), len(wl))
}
