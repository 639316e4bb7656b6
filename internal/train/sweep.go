package train

import (
	"math/rand"

	"diesel/internal/shuffle"
)

// SweepRow is one point of the group-size ablation: how the chunk-wise
// shuffle's group size trades cache footprint against shuffle quality and
// model accuracy. The paper's guidance (§4.3: "hundreds of data chunks in
// each group is sufficient to keep the accuracy") corresponds to the
// curve flattening once diversity approaches the full shuffle's.
type SweepRow struct {
	GroupSize        int     // 0 = full dataset shuffle (baseline)
	FinalTop1        float64 // converged accuracy
	BatchDiversity   float64 // shuffle.BatchClassDiversity of epoch 0
	WorkingSetChunks int     // cache footprint in chunks
}

// GroupSizeSweep trains one model per group size on identical data and
// measures accuracy plus order-quality metrics. GroupSize 0 rows use the
// full dataset shuffle.
func GroupSizeSweep(cfg Fig13Config, groupSizes []int) []SweepRow {
	full := MakeClusters(cfg.Samples, cfg.Dim, cfg.Classes, cfg.Noise, cfg.Seed)
	trainSet, testSet := full.split(6)
	snap := DatasetSnapshot(trainSet.N(), cfg.FilesPerChunk)
	n := trainSet.N()
	label := func(s int32) int { return trainSet.Y[s] }

	rows := make([]SweepRow, 0, len(groupSizes)+1)
	runOne := func(st Strategy, g, ws int) {
		var m Model
		switch cfg.Arch {
		case "mlp":
			m = NewMLP(cfg.Dim, cfg.Hidden, cfg.Classes, cfg.Seed)
		default:
			m = newSoftmax(cfg.Dim, cfg.Classes)
		}
		var curve []EpochPoint
		for ep := range cfg.Epochs {
			TrainEpoch(m, trainSet, st.EpochOrder(ep), cfg.Batch, cfg.LR)
			curve = append(curve, EpochPoint{Epoch: ep + 1, Top1: TopKAccuracy(m, testSet, 1)})
		}
		rows = append(rows, SweepRow{
			GroupSize:        g,
			FinalTop1:        FinalAccuracy(curve, 3),
			BatchDiversity:   shuffle.BatchClassDiversity(st.EpochOrder(0), label, cfg.Classes, cfg.Batch),
			WorkingSetChunks: ws,
		})
	}

	// Baseline: full dataset shuffle; working set = whole dataset.
	totalChunks := (n + cfg.FilesPerChunk - 1) / cfg.FilesPerChunk
	runOne(FullShuffle{N: n, Seed: cfg.Seed * 7}, 0, totalChunks)

	for _, g := range groupSizes {
		plan := shuffle.ChunkWisePlan(snap, cfg.Seed*13, g)
		runOne(ChunkWise{Snap: snap, GroupSize: g, Seed: cfg.Seed * 13}, g, plan.WorkingSetChunks())
	}
	return rows
}

// RandomOrderDiversity returns the batch diversity of a uniform random
// permutation over the same data — the ceiling the sweep converges to.
func RandomOrderDiversity(cfg Fig13Config) float64 {
	full := MakeClusters(cfg.Samples, cfg.Dim, cfg.Classes, cfg.Noise, cfg.Seed)
	trainSet, _ := full.split(6)
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := make([]int32, trainSet.N())
	for i, p := range rng.Perm(trainSet.N()) {
		perm[i] = int32(p)
	}
	return shuffle.BatchClassDiversity(perm, func(s int32) int { return trainSet.Y[s] }, cfg.Classes, cfg.Batch)
}
