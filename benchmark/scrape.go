package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: canonical series key
// (see seriesKey) to sample value. Histograms appear as their _sum, _count
// and _bucket series, exactly as exposed.
type scrape map[string]float64

// seriesKey builds the canonical key of a series: the metric name followed
// by its labels sorted by label name, so lookups do not depend on the order
// the exporter happened to print labels in. labels are name, value pairs.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm parses the Prometheus text format (0.0.4): comment and blank
// lines are skipped, every other line must be `name[{labels}] value`.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[seriesKey(name, labels...)] = v
	}
	return out, sc.Err()
}

// splitSeries cuts one sample line into metric name, label pairs and the
// remainder (value and optional timestamp).
func splitSeries(line string) (name string, labels []string, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexAny(line, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", nil, "", fmt.Errorf("no value in %q", line)
		}
		return line[:space], nil, line[space+1:], nil
	}
	name = line[:brace]
	i := brace + 1
	for {
		for i < len(line) && (line[i] == ',' || line[i] == ' ') {
			i++
		}
		if i < len(line) && line[i] == '}' {
			return name, labels, line[i+1:], nil
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
			return "", nil, "", fmt.Errorf("malformed labels in %q", line)
		}
		key := line[i : i+eq]
		j := i + eq + 2
		var val strings.Builder
		for ; j < len(line) && line[j] != '"'; j++ {
			if line[j] == '\\' && j+1 < len(line) {
				j++
				if line[j] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(line[j])
		}
		if j >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
		}
		labels = append(labels, key, val.String())
		i = j + 1
	}
}

// value looks a series up and fails when it is absent: a metric a later
// change renamed or dropped must surface as an error, never as a silent 0
// in a layer budget.
func (s scrape) value(name string, labels ...string) (float64, error) {
	v, ok := s[seriesKey(name, labels...)]
	if !ok {
		return 0, fmt.Errorf("series %s is absent from the scrape", seriesKey(name, labels...))
	}
	return v, nil
}

// deltaScrape is after − before over the series of one drive.
type deltaScrape struct{ before, after scrape }

// value is the series' increase over the drive; the series must be present
// on both sides.
func (d deltaScrape) value(name string, labels ...string) (float64, error) {
	b, err := d.before.value(name, labels...)
	if err != nil {
		return 0, fmt.Errorf("before the drive: %w", err)
	}
	a, err := d.after.value(name, labels...)
	if err != nil {
		return 0, fmt.Errorf("after the drive: %w", err)
	}
	return a - b, nil
}

// histDelta is a histogram's sum and count increase over the drive.
func (d deltaScrape) histDelta(name string, labels ...string) (sum, count float64, err error) {
	if sum, err = d.value(name+"_sum", labels...); err != nil {
		return 0, 0, err
	}
	if count, err = d.value(name+"_count", labels...); err != nil {
		return 0, 0, err
	}
	return sum, count, nil
}
