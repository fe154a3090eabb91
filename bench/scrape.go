package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dbdht/internal/metrics"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /v1/metrics document.
type scrape []promSample

// parseScrape reads the text exposition format (0.0.4) as dhtd writes
// it: `name{l="v",...} value` lines and `#` comments.
func parseScrape(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSampleLine(line string) (promSample, error) {
	s := promSample{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		s.labels = make(map[string]string)
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("bad label in %q", line)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[name] = val.String()
		}
	} else {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.name, rest = line[:i], line[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q", line)
	}
	s.value = v
	return s, nil
}

// matches reports whether the sample carries every given label value.
func (s promSample) matches(labels map[string]string) bool {
	for k, v := range labels {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds up every sample of a series name whose labels match.
func (sc scrape) sum(name string, labels map[string]string) float64 {
	total := 0.0
	for _, s := range sc {
		if s.name == name && s.matches(labels) {
			total += s.value
		}
	}
	return total
}

// histogram rebuilds the per-bucket counts of a histogram family from
// its cumulative `_bucket` series, merging every series whose labels
// match (so several routes can be read as one distribution).
func (sc scrape) histogram(name string, labels map[string]string) metrics.HistogramSnapshot {
	cum := make(map[float64]float64)
	for _, s := range sc {
		if s.name != name+"_bucket" || !s.matches(labels) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		cum[le] += s.value
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	h := metrics.HistogramSnapshot{Counts: make([]uint64, 0, len(bounds))}
	prev := 0.0
	for _, le := range bounds {
		if !math.IsInf(le, 1) {
			h.Bounds = append(h.Bounds, le)
		}
		h.Counts = append(h.Counts, uint64(cum[le]-prev))
		prev = cum[le]
	}
	h.Count = uint64(prev)
	h.Sum = sc.sum(name+"_sum", labels)
	return h
}

// histDelta is the distribution observed between two scrapes.
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	if len(before.Counts) != len(after.Counts) {
		return after // series absent at the first scrape
	}
	d := metrics.HistogramSnapshot{Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts))}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	d.Count = after.Count - before.Count
	d.Sum = after.Sum - before.Sum
	return d
}
