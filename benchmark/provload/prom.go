package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one Prometheus text exposition: each sample's name, labels
// included, mapped to its value.
type series map[string]float64

// parseSeries reads the Prometheus text format. Comment and blank lines
// are skipped; every other line is "name[{labels}] value".
func parseSeries(r io.Reader) (series, error) {
	s := series{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[strings.TrimSpace(line[:i])] = v
	}
	return s, sc.Err()
}

// add sums o into s, series by series.
func (s series) add(o series) {
	for k, v := range o {
		s[k] += v
	}
}

// since returns s minus an earlier scrape: the counts and sums of the
// interval between the two. A series absent earlier counts from zero.
func (s series) since(before series) series {
	d := series{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// mean returns a histogram's mean observation in milliseconds over the
// interval, and 0 when it observed nothing. The histograms' buckets are
// 4× apart, too coarse for quantiles, so only _sum and _count are used.
func (s series) mean(hist string) float64 {
	n := s[hist+"_count"]
	if n == 0 {
		return 0
	}
	return s[hist+"_sum"] / n * 1000
}

// share returns hits/(hits+misses), and 0 when both are zero.
func share(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// per returns a/b, and 0 when b is zero.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
