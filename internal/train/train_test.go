package train

import (
	"math"
	"testing"
)

func TestMakeClustersShape(t *testing.T) {
	ds := MakeClusters(1000, 8, 5, 0.5, 1)
	if ds.N() != 1000 || ds.Dim != 8 || ds.Classes != 5 {
		t.Fatalf("shape: %d/%d/%d", ds.N(), ds.Dim, ds.Classes)
	}
	// Class-sorted layout.
	prev := 0
	counts := make(map[int]int)
	for i, y := range ds.Y {
		if y < prev {
			t.Fatalf("labels not sorted at %d", i)
		}
		if y < 0 || y >= 5 {
			t.Fatalf("label %d out of range", y)
		}
		prev = y
		counts[y]++
	}
	for c, n := range counts {
		if n != 200 {
			t.Errorf("class %d has %d samples", c, n)
		}
	}
}

func TestSplitStratified(t *testing.T) {
	ds := MakeClusters(600, 4, 3, 0.5, 2)
	tr, te := ds.split(6)
	if tr.N()+te.N() != 600 {
		t.Fatalf("split loses samples: %d + %d", tr.N(), te.N())
	}
	if te.N() != 100 {
		t.Errorf("test size = %d", te.N())
	}
}

func TestSoftmaxLearnsSeparableData(t *testing.T) {
	ds := MakeClusters(2000, 8, 4, 0.3, 3) // well-separated clusters
	tr, te := ds.split(5)
	m := newSoftmax(ds.Dim, ds.Classes)
	fs := FullShuffle{N: tr.N(), Seed: 5}
	for ep := range 10 {
		TrainEpoch(m, tr, fs.EpochOrder(ep), 32, 0.3)
	}
	if acc := TopKAccuracy(m, te, 1); acc < 0.95 {
		t.Errorf("softmax top-1 = %.3f on separable data", acc)
	}
}

func TestMLPLearns(t *testing.T) {
	ds := MakeClusters(2000, 8, 4, 0.4, 4)
	tr, te := ds.split(5)
	m := NewMLP(ds.Dim, 16, ds.Classes, 7)
	fs := FullShuffle{N: tr.N(), Seed: 6}
	for ep := range 12 {
		TrainEpoch(m, tr, fs.EpochOrder(ep), 32, 0.1)
	}
	if acc := TopKAccuracy(m, te, 1); acc < 0.9 {
		t.Errorf("MLP top-1 = %.3f", acc)
	}
}

func TestTopKMonotone(t *testing.T) {
	ds := MakeClusters(500, 6, 8, 1.5, 9)
	m := newSoftmax(ds.Dim, ds.Classes)
	fs := FullShuffle{N: ds.N(), Seed: 1}
	TrainEpoch(m, ds, fs.EpochOrder(0), 16, 0.1)
	t1 := TopKAccuracy(m, ds, 1)
	t5 := TopKAccuracy(m, ds, 5)
	t8 := TopKAccuracy(m, ds, 8)
	if t1 > t5 || t5 > t8 {
		t.Errorf("top-k not monotone: %.3f %.3f %.3f", t1, t5, t8)
	}
	if t8 != 1.0 {
		t.Errorf("top-all = %.3f, want 1.0", t8)
	}
}

func TestStrategiesArePermutations(t *testing.T) {
	const n = 500
	snap := DatasetSnapshot(n, 20)
	for _, st := range []Strategy{
		FullShuffle{N: n, Seed: 2},
		NoShuffle{N: n},
		ChunkWise{Snap: snap, GroupSize: 3, Seed: 2},
	} {
		for ep := range 3 {
			order := st.EpochOrder(ep)
			if len(order) != n {
				t.Fatalf("%s: %d of %d", st.Name(), len(order), n)
			}
			seen := make([]bool, n)
			for _, i := range order {
				if i < 0 || int(i) >= n || seen[i] {
					t.Fatalf("%s epoch %d: invalid or duplicate %d", st.Name(), ep, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestEpochOrdersDiffer(t *testing.T) {
	snap := DatasetSnapshot(400, 10)
	cw := ChunkWise{Snap: snap, GroupSize: 4, Seed: 3}
	a, b := cw.EpochOrder(0), cw.EpochOrder(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Errorf("%d/%d positions identical across epochs", same, len(a))
	}
}

// TestFig13ShuffleEquivalence is the reproduction of Figure 13's claim:
// chunk-wise shuffle matches the full dataset shuffle in both final
// accuracy and convergence, while no-shuffle falls behind.
func TestFig13ShuffleEquivalence(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.Samples = 3000
	cfg.Epochs = 10
	curves := Fig13(cfg)

	full := curves["shuffle-dataset"]
	none := curves["no-shuffle"]
	if full == nil || none == nil {
		t.Fatalf("missing curves: %v", keys(curves))
	}
	fullAcc := FinalAccuracy(full, 3)
	for _, g := range cfg.GroupSizes {
		name := ChunkWise{GroupSize: g}.Name()
		cw := curves[name]
		if cw == nil {
			t.Fatalf("missing curve %s", name)
		}
		cwAcc := FinalAccuracy(cw, 3)
		if math.Abs(cwAcc-fullAcc) > 0.03 {
			t.Errorf("%s converged to %.3f vs full shuffle %.3f; paper: no accuracy loss", name, cwAcc, fullAcc)
		}
		// Convergence speed: early-epoch accuracy comparable (within 10pp).
		if math.Abs(cw[2].Top1-full[2].Top1) > 0.10 {
			t.Errorf("%s epoch-3 accuracy %.3f vs full %.3f; convergence differs", name, cw[2].Top1, full[2].Top1)
		}
	}
	// No-shuffle must be measurably worse — otherwise the comparison is vacuous.
	if FinalAccuracy(none, 3) > fullAcc-0.02 {
		t.Errorf("no-shuffle reached %.3f vs %.3f; ordering does not matter in this config",
			FinalAccuracy(none, 3), fullAcc)
	}
	// Top-5 ≥ top-1 everywhere.
	for name, curve := range curves {
		for _, p := range curve {
			if p.Top5 < p.Top1 {
				t.Errorf("%s epoch %d: top5 %.3f < top1 %.3f", name, p.Epoch, p.Top5, p.Top1)
			}
		}
	}
}

func keys(m map[string][]EpochPoint) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestFig14Shape(t *testing.T) {
	lustre, diesel := PaperIO()
	lp := Fig14(lustre, 3, 100)
	dp := Fig14(diesel, 3, 100)
	if len(lp) != 300 {
		t.Fatalf("%d points", len(lp))
	}
	// Epoch-start spikes.
	if lp[0].DataSeconds <= lp[1].DataSeconds {
		t.Error("no shuffle spike at epoch start")
	}
	if lp[100].DataSeconds <= lp[101].DataSeconds {
		t.Error("no spike at second epoch")
	}
	// Steady state: DIESEL ≈ half of Lustre (paper: "about half").
	r := dp[50].DataSeconds / lp[50].DataSeconds
	if r < 0.4 || r > 0.6 {
		t.Errorf("DIESEL/Lustre steady data time = %.2f, paper ~0.5", r)
	}
}

func TestFig15Shape(t *testing.T) {
	rows := Fig15()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Paper: Lustre totals range 37–66 h.
		if r.LustreHours < 30 || r.LustreHours > 75 {
			t.Errorf("%s Lustre total = %.1f h, paper 37-66 h", r.Model, r.LustreHours)
		}
		// Paper: I/O time cut 51–58%, total 15–27%.
		if r.IOReductionPct < 45 || r.IOReductionPct > 60 {
			t.Errorf("%s IO reduction = %.0f%%, paper 51-58%%", r.Model, r.IOReductionPct)
		}
		if r.TotalReduction < 12 || r.TotalReduction > 30 {
			t.Errorf("%s total reduction = %.0f%%, paper 15-27%%", r.Model, r.TotalReduction)
		}
		if math.Abs(r.NormalizedDiesel-(1-r.TotalReduction/100)) > 1e-9 {
			t.Errorf("%s normalized time inconsistent", r.Model)
		}
	}
	// Smallest model (AlexNet) gains the most; heaviest (ResNet-50) least.
	var alex, res50 Fig15Row
	for _, r := range rows {
		switch r.Model {
		case "AlexNet":
			alex = r
		case "ResNet-50":
			res50 = r
		}
	}
	if alex.TotalReduction <= res50.TotalReduction {
		t.Errorf("AlexNet reduction (%.0f%%) should exceed ResNet-50's (%.0f%%)",
			alex.TotalReduction, res50.TotalReduction)
	}
}

func TestResNet50Savings(t *testing.T) {
	s := ResNet50SavingsSeconds()
	// Paper: ~35,946 s ≈ 10 hours.
	if s < 30000 || s > 42000 {
		t.Errorf("savings = %.0f s, paper ~36,000 s", s)
	}
}

// TestGroupSizeSweep is the quantitative group-size ablation: accuracy
// and batch diversity improve with group size and approach the full
// shuffle, while the cache working set stays bounded by the group size.
func TestGroupSizeSweep(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.Samples = 3000
	cfg.Epochs = 8
	rows := GroupSizeSweep(cfg, []int{1, 5, 30})
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	baseline := rows[0]
	if baseline.GroupSize != 0 {
		t.Fatal("first row should be the full-shuffle baseline")
	}
	// Diversity grows with group size.
	if !(rows[1].BatchDiversity < rows[2].BatchDiversity && rows[2].BatchDiversity < rows[3].BatchDiversity) {
		t.Errorf("diversity not monotone: %.3f %.3f %.3f",
			rows[1].BatchDiversity, rows[2].BatchDiversity, rows[3].BatchDiversity)
	}
	// Largest group matches baseline accuracy within a few points.
	if d := baseline.FinalTop1 - rows[3].FinalTop1; d > 0.04 {
		t.Errorf("g=30 accuracy %.3f trails baseline %.3f by %.3f", rows[3].FinalTop1, baseline.FinalTop1, d)
	}
	// Working set bounded by group size (and far below the baseline's).
	for _, r := range rows[1:] {
		if r.WorkingSetChunks > r.GroupSize {
			t.Errorf("g=%d working set %d exceeds group", r.GroupSize, r.WorkingSetChunks)
		}
	}
	if rows[1].WorkingSetChunks >= baseline.WorkingSetChunks {
		t.Error("chunk-wise working set should be far below the full dataset")
	}
}
