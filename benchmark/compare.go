package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(data, &m)
}

func readSet(path string) (setFile, error) {
	var s setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// verdict judges set B against set A for one metric: unresolved when
// either set's own spread (quartile distance over median) is wider than
// the bound, worse when B's median is worse than A's by more than the
// bound, within otherwise. ratio is B's median over A's.
func verdict(a, b []float64, better string, bound float64) (ratio float64, v string) {
	q1a, q2a, q3a := quartiles(a)
	q1b, q2b, q3b := quartiles(b)
	ratio = q2b / q2a
	worse := ratio - 1
	if better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case (q3a-q1a)/q2a > bound || (q3b-q1b)/q2b > bound:
		return ratio, "unresolved"
	case worse > bound:
		return ratio, "worse"
	}
	return ratio, "within"
}

// maxStealFrac is the share of CPU time the hypervisor may take from a
// set's median run before its timings stop counting as the program's.
const maxStealFrac = 0.05

// machineOf returns the medians of what the box did over a set's runs.
func machineOf(ws *workloadSet) (steal, probeUS float64) {
	var s, p []float64
	for _, r := range ws.Runs {
		s = append(s, r.Machine.StealFrac)
		p = append(p, r.Machine.CPUProbeUS)
	}
	return median(s), median(p)
}

// column collects one metric over a workload's runs in one set. A
// workload without runs, or a run without the metric, is an error: a gap
// must never read as a pass.
func column(path, workload string, ws *workloadSet, metric string) ([]float64, error) {
	if len(ws.Runs) == 0 {
		return nil, fmt.Errorf("%s has no runs of workload %s", path, workload)
	}
	var v []float64
	for _, r := range ws.Runs {
		x, ok := r.Metrics[metric]
		if !ok {
			return nil, fmt.Errorf("%s: workload %s seed %d lacks metric %s", path, workload, r.Seed, metric)
		}
		v = append(v, x)
	}
	return v, nil
}

// compareSets prints one row per workload and end-to-end metric: both
// medians with their quartiles, B's median as a ratio of A's, and the
// verdict against the bound BENCHMARK.json fixes. A timing is also
// unresolved when the box moved under it: more than maxStealFrac of the CPU
// stolen in either set, or the sets' CPU probes apart by more than the
// bound. It returns an error when any row is worse or unresolved, or when a
// set lacks a declared workload or metric, so scripts can gate on it.
func compareSets(pathA, pathB string, w io.Writer) error {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	envA, _ := json.Marshal(a.Env)
	envB, _ := json.Marshal(b.Env)
	fmt.Fprintf(w, "A = %s %s\nB = %s %s\n", pathA, envA, pathB, envB)
	fmt.Fprintf(w, "%-11s %-13s %31s %31s %18s %6s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "bound", "verdict")
	bad := 0
	for _, wl := range man.Workloads {
		name := wl.Name
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the sets", name)
		}
		stealA, probeA := machineOf(wa)
		stealB, probeB := machineOf(wb)
		fmt.Fprintf(w, "%-11s %-13s steal %.3f, cpu probe %.1f us %8s steal %.3f, cpu probe %.1f us\n",
			name, "(machine)", stealA, probeA, "", stealB, probeB)
		for _, m := range man.EndToEnd {
			va, err := column(pathA, name, wa, m.Name)
			if err != nil {
				return err
			}
			vb, err := column(pathB, name, wb, m.Name)
			if err != nil {
				return err
			}
			ratio, v := verdict(va, vb, m.Better, m.Bound)
			if m.Unit == "s" && (stealA > maxStealFrac || stealB > maxStealFrac || math.Abs(probeB/probeA-1) > m.Bound) {
				v = "unresolved"
			}
			q1a, q2a, q3a := quartiles(va)
			q1b, q2b, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-11s %-13s %9.4g [%8.4g, %8.4g] %9.4g [%8.4g, %8.4g] %7.3f of %-7.4g %6.2f  %s\n",
				name, m.Name, q2a, q1a, q3a, q2b, q1b, q3b, ratio, q2a, m.Bound, v)
			if v != "within" {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse or unresolved", bad)
	}
	return nil
}
