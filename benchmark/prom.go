package main

import (
	"fmt"
	"strconv"
	"strings"
)

// promSnapshot is one parsed Prometheus text exposition: series text
// (family name plus its rendered label block, exactly as exposed) to value.
// Histogram _bucket/_sum/_count lines are ordinary series here.
type promSnapshot map[string]float64

// parseProm reads text exposition format 0.0.4 as the product's
// obs.Registry.WriteProm emits it: "# ..." comment lines, then
// "name{labels} value" or "name value". Label values may hold spaces and
// escaped quotes, so the value is whatever follows the last space.
func parseProm(text string) (promSnapshot, error) {
	snap := make(promSnapshot)
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		snap[strings.TrimSpace(line[:i])] = v
	}
	return snap, nil
}

// family splits a series into its family name and label block ("" if none).
func family(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// sum adds every series of a family whose label block contains each of the
// given fragments (e.g. `dir="out"`).
func (s promSnapshot) sum(name string, having ...string) float64 {
	total := 0.0
	for series, v := range s {
		fam, labels := family(series)
		if fam != name {
			continue
		}
		match := true
		for _, h := range having {
			if !strings.Contains(labels, h) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// procSnapshots holds one scrape of every process, keyed by process name.
type procSnapshots map[string]promSnapshot

// delta is the growth of a counter family between two scrapes, summed over
// the processes present in both; a process killed in between contributes
// nothing, because its last value can no longer be read.
func delta(before, after procSnapshots, name string, having ...string) float64 {
	total := 0.0
	for proc, a := range after {
		if b, ok := before[proc]; ok {
			total += a.sum(name, having...) - b.sum(name, having...)
		}
	}
	return total
}

// gaugeMax is the largest value a gauge family shows in any process of any
// of the scrapes.
func gaugeMax(scrapes []procSnapshots, name string) float64 {
	max := 0.0
	for _, ps := range scrapes {
		for _, s := range ps {
			for series, v := range s {
				if fam, _ := family(series); fam == name && v > max {
					max = v
				}
			}
		}
	}
	return max
}
