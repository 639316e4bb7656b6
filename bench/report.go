package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// runRecord is one run in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// report is the -out file. It makes no performance claim: the benchmark
// only measures, so Claim is always null and comes last.
type report struct {
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"GOMAXPROCS"`
	Go         string      `json:"go"`
	Commit     string      `json:"commit"`
	Runs       []runRecord `json:"runs"`
	Claim      *string     `json:"claim"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in both modes, runs times over consecutive
// seeds, in this one process, and writes the lot to out.
func runAll(p *params, runs int, out string) error {
	rep := report{
		Seed: p.seed, Seconds: p.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: gitCommit(),
	}
	ok := true
	for r := range runs {
		for _, wl := range workloads {
			for _, trace := range []bool{false, true} {
				q := *p
				q.workload, q.seed, q.trace = wl.Name, p.seed+int64(r), trace
				fmt.Printf("== %s seed %d trace %v\n", q.workload, q.seed, trace)
				res, err := run(&q, func(f string, a ...any) { fmt.Printf(f, a...) })
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				printMetrics(res)
				ok = ok && res.Correct
				rep.Runs = append(rep.Runs, runRecord{wl.Name, q.seed, trace, res})
			}
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a workload delivered wrong or missing bytes")
	}
	return nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func loadReport(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range rep.Runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// compareFiles prints, for every (end-to-end metric, workload), both
// medians and quartiles, the bound, and a verdict: worse when b's median
// is worse than a's by more than the bound, unresolved when either
// side's own spread (q3−q1 over median) exceeds the bound, else same.
// It reports whether every pair was same.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	allSame := true
	fmt.Fprintf(w, "%-19s %-19s %12s %23s %12s %23s %6s  %s\n",
		"workload", "metric", "a.median", "a.q1..q3", "b.median", "b.q1..q3", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			va, vb := a[wl.Name][d.Name], b[wl.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := b2 - a2
			if d.Better == "higher" {
				worse = a2 - b2
			}
			verdict := "same"
			switch {
			case ratio(a3-a1, a2) > d.Bound || ratio(b3-b1, b2) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound*a2:
				verdict = "worse"
			}
			allSame = allSame && verdict == "same"
			fmt.Fprintf(w, "%-19s %-19s %12.5g %11.5g..%-10.5g %12.5g %11.5g..%-10.5g %5.0f%%  %s\n",
				wl.Name, d.Name, a2, a1, a3, b2, b1, b3, 100*d.Bound, verdict)
		}
	}
	return allSame, nil
}
