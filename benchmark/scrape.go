package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads the Prometheus text format (version 0.0.4) as
// `GET /metrics` serves it: comment lines are skipped, label values may
// hold escaped quotes, backslashes and newlines, and a trailing
// timestamp is ignored.
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", \t")
			if rest == "" {
				return s, fmt.Errorf("unterminated labels in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.Labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// promGet returns the value of the first sample with the given name
// whose labels include every want pair, and whether one was found.
func promGet(samples []promSample, name string, want ...string) (float64, bool) {
next:
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(want); i += 2 {
			if s.Labels[want[i]] != want[i+1] {
				continue next
			}
		}
		return s.Value, true
	}
	return 0, false
}

// promSum adds up every sample with the given name.
func promSum(samples []promSample, name string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}
