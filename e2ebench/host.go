package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pvcsim/internal/core"
)

// fingerprint identifies the host a record was measured on. Wall-clock
// numbers compare only between records with equal fingerprints.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// procStatusKB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status.
func procStatusKB(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb
		}
	}
	return 0
}

// peakRSSMB is the peak resident set of a process in MB.
func peakRSSMB(pid int) float64 { return procStatusKB(pid, "VmHWM") / 1024 }

var worstRow = regexp.MustCompile(`Worst relative error: ([0-9.]+)%`)

// fidelityCheck computes the worst simulated-vs-paper relative error
// from Study.Experiments and checks that it matches the worst row the
// repository's EXPERIMENTS.md states.
func fidelityCheck(o options) (float64, error) {
	exps, err := core.NewStudy().Experiments()
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, e := range exps {
		worst = max(worst, e.RelErr()*100)
	}
	data, err := os.ReadFile(filepath.Join(o.root, "EXPERIMENTS.md"))
	if err != nil {
		return worst, err
	}
	m := worstRow.FindSubmatch(data)
	if m == nil {
		return worst, fmt.Errorf("EXPERIMENTS.md states no worst relative error")
	}
	if got := strconv.FormatFloat(worst, 'f', 1, 64); got != string(m[1]) {
		return worst, fmt.Errorf("worst relative error %s%%, EXPERIMENTS.md says %s%%", got, m[1])
	}
	return worst, nil
}

// readRecords collects the records in a saved benchmark output: every
// stdout line starting with "record ".
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return out, nil
}

// compareFiles prints, per workload and metric, the median of each
// side's records and the relative change. It refuses to compare records
// whose host fingerprints differ.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	fp := oldRecs[0].Fingerprint
	for _, r := range append(oldRecs, newRecs...) {
		if r.Fingerprint != fp {
			return fmt.Errorf("host fingerprints differ (%+v vs %+v): wall-clock numbers do not compare", fp, r.Fingerprint)
		}
	}
	type key struct {
		workload, metric string
		trace            bool
	}
	collect := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name, r.Trace}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	oldVals, newVals := collect(oldRecs), collect(newRecs)
	var keys []key
	for k := range oldVals {
		if _, ok := newVals[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-32s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "change")
	for _, k := range keys {
		o, n := median(oldVals[k]), median(newVals[k])
		change := "-"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", (n-o)/o*100)
		}
		fmt.Fprintf(w, "%-16s %-32s %14.4f %14.4f %9s\n", k.workload, k.metric, o, n, change)
	}
	return nil
}
