package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestTextRenderParseRoundTrip is a property test over the exposition
// format: a registry populated with random counters, gauges and histograms
// must survive WriteText → ParseText with every value, label set and
// histogram shape intact. This is the contract `dlcmd stats` (and any
// Prometheus scraper) depends on.
func TestTextRenderParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := range 20 {
		r := NewRegistry()
		wantVals := make(map[string]float64)   // "name|k=v,..." → value
		wantHists := make(map[string][]uint64) // same key → raw observations
		histScale := make(map[string]float64)  // key → render scale

		nFams := 1 + rng.Intn(6)
		for f := range nFams {
			name := fmt.Sprintf("rt_fam_%d_total", f)
			var labels []Label
			if rng.Intn(2) == 0 {
				labels = append(labels, L("op", fmt.Sprintf("op%d", rng.Intn(3))))
			}
			if rng.Intn(3) == 0 {
				labels = append(labels, L("node", fmt.Sprintf("%d", rng.Intn(4))))
			}
			key := name + "|" + labelString(labels)
			switch rng.Intn(3) {
			case 0:
				c := r.Counter(name, "round-trip counter", labels...)
				v := uint64(rng.Intn(1 << 20))
				c.Add(v)
				wantVals[key] = float64(v)
			case 1:
				v := float64(rng.Intn(1<<20) - 1<<19)
				r.Func(strings.TrimSuffix(name, "_total"), "round-trip gauge", func() float64 { return v }, labels...)
				wantVals[strings.TrimSuffix(name, "_total")+"|"+labelString(labels)] = v
			default:
				hname := strings.TrimSuffix(name, "_total") + "_seconds"
				scale := 1e-9
				if rng.Intn(2) == 0 {
					hname = strings.TrimSuffix(name, "_total") + "_bytes"
					scale = 1
				}
				hkey := hname + "|" + labelString(labels)
				if _, dup := wantHists[hkey]; dup {
					continue // same family+labels re-registered; skip
				}
				h := r.histogram(hname, "round-trip histogram", scale, labels...)
				n := rng.Intn(200)
				obsvs := make([]uint64, 0, n)
				for range n {
					v := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
					h.Observe(v)
					obsvs = append(obsvs, v)
				}
				wantHists[hkey] = obsvs
				histScale[hkey] = scale
			}
		}

		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatalf("round %d: WriteText: %v", round, err)
		}
		sc, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round %d: ParseText: %v\n%s", round, err, buf.String())
		}

		gotVals := make(map[string]float64)
		for _, s := range sc.Samples {
			gotVals[s.Name+"|"+labelMapString(s.Labels)] += s.Value
		}
		for key, want := range wantVals {
			if got, ok := gotVals[key]; !ok || got != want {
				t.Errorf("round %d: sample %s = %g, want %g (present=%v)", round, key, got, want, ok)
			}
		}

		gotHists := make(map[string]*ScrapedHistogram)
		for _, h := range sc.Histograms {
			gotHists[h.Name+"|"+labelMapString(h.Labels)] = h
		}
		for key, obsvs := range wantHists {
			h, ok := gotHists[key]
			if !ok {
				t.Errorf("round %d: histogram %s missing from scrape", round, key)
				continue
			}
			if h.Count != float64(len(obsvs)) {
				t.Errorf("round %d: histogram %s count = %g, want %d", round, key, h.Count, len(obsvs))
			}
			var sum uint64
			for _, v := range obsvs {
				sum += v
			}
			wantSum := float64(sum) * histScale[key]
			if diff := math.Abs(h.Sum - wantSum); diff > 1e-6*math.Max(1, math.Abs(wantSum)) {
				t.Errorf("round %d: histogram %s sum = %g, want %g", round, key, h.Sum, wantSum)
			}
			// Buckets must be cumulative, non-decreasing, ending at +Inf
			// with the total count.
			var prev float64
			for i, b := range h.Buckets {
				if b.Cum < prev {
					t.Errorf("round %d: histogram %s bucket %d cumulative count decreases (%g < %g)", round, key, i, b.Cum, prev)
				}
				prev = b.Cum
			}
			if len(h.Buckets) == 0 || !math.IsInf(h.Buckets[len(h.Buckets)-1].LE, 1) {
				t.Errorf("round %d: histogram %s missing +Inf bucket", round, key)
			} else if last := h.Buckets[len(h.Buckets)-1].Cum; last != h.Count {
				t.Errorf("round %d: histogram %s +Inf cumulative %g != count %g", round, key, last, h.Count)
			}
			// Every raw observation must land at or below the first bucket
			// bound whose cumulative count covers its rank; cheaper proxy:
			// the parsed p100 bound must be >= the max observation's bucket
			// lower bound in rendered units.
			if len(obsvs) > 0 {
				maxObs := obsvs[0]
				for _, v := range obsvs {
					if v > maxObs {
						maxObs = v
					}
				}
				q100 := h.Quantile(1.0)
				if q100 > 0 && q100*2 < float64(maxObs)*histScale[key]/2 {
					t.Errorf("round %d: histogram %s p100 %g implausibly below max obs %g",
						round, key, q100, float64(maxObs)*histScale[key])
				}
			}
		}
	}
}

func labelString(ls []Label) string {
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Name] = l.Value
	}
	return labelMapString(m)
}

func labelMapString(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + m[k]
	}
	return strings.Join(parts, ",")
}
