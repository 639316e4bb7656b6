package train

import (
	"fmt"
	"math/rand"

	"diesel/internal/chunk"
	"diesel/internal/meta"
	"diesel/internal/shuffle"
)

// DatasetSnapshot builds a metadata snapshot whose file i is sample i,
// packed sequentially into chunks of filesPerChunk files — exactly the
// layout DIESEL produces when a class-sorted dataset is written through
// chunk builders. Because samples are class-sorted, each chunk is nearly
// single-class: the adversarial case for a chunk-locality shuffle.
func DatasetSnapshot(n, filesPerChunk int) *meta.Snapshot {
	if filesPerChunk < 1 {
		filesPerChunk = 1
	}
	b := meta.NewSnapshotBuilder("synthetic", 1)
	for i := range n {
		var id chunk.ID
		ci := i / filesPerChunk
		id[0], id[1], id[2] = byte(ci>>16), byte(ci>>8), byte(ci)
		cidx := b.AddChunk(id, uint64(filesPerChunk), 64)
		b.AddFile(fmt.Sprintf("s/%08d", i), meta.FileMeta{
			ChunkIdx: cidx, Index: uint32(i % filesPerChunk),
			Offset: uint64(i%filesPerChunk) * 100, Length: 100,
		})
	}
	return b.Build()
}

// Strategy produces one sample order per epoch.
type Strategy interface {
	Name() string
	EpochOrder(epoch int) []int32
}

// FullShuffle is the conventional shuffle-over-dataset baseline: a fresh
// uniform permutation of all samples each epoch.
type FullShuffle struct {
	N    int
	Seed int64
}

// Name implements Strategy.
func (s FullShuffle) Name() string { return "shuffle-dataset" }

// EpochOrder implements Strategy.
func (s FullShuffle) EpochOrder(epoch int) []int32 {
	rng := rand.New(rand.NewSource(s.Seed + int64(epoch)))
	perm := rng.Perm(s.N)
	out := make([]int32, s.N)
	for i, p := range perm {
		out[i] = int32(p)
	}
	return out
}

// ChunkWise is DIESEL's chunk-wise shuffle applied through the same code
// path the storage system uses (shuffle.ChunkWisePlan over the snapshot).
type ChunkWise struct {
	Snap      *meta.Snapshot
	GroupSize int
	Seed      int64
}

// Name implements Strategy.
func (s ChunkWise) Name() string { return fmt.Sprintf("chunk-wise-g%d", s.GroupSize) }

// EpochOrder implements Strategy.
func (s ChunkWise) EpochOrder(epoch int) []int32 {
	return shuffle.ChunkWisePlan(s.Snap, s.Seed+int64(epoch), s.GroupSize).Files
}

// NoShuffle replays the dataset in storage order every epoch — the
// degenerate strategy that harms convergence and accuracy, included to
// show that ordering does matter and Figure 13's equivalence is not
// vacuous.
type NoShuffle struct{ N int }

// Name implements Strategy.
func (s NoShuffle) Name() string { return "no-shuffle" }

// EpochOrder implements Strategy.
func (s NoShuffle) EpochOrder(int) []int32 {
	out := make([]int32, s.N)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// EpochPoint is one point of a Figure 13 curve.
type EpochPoint struct {
	Epoch int
	Top1  float64
	Top5  float64
}

// Fig13Config parameterises the shuffle-quality experiment.
type Fig13Config struct {
	Samples, Dim, Classes int
	Noise                 float64
	FilesPerChunk         int
	GroupSizes            []int
	Epochs                int
	Batch                 int
	LR                    float64
	Arch                  string // "softmax" or "mlp"
	Hidden                int    // MLP hidden width
	Seed                  int64
}

// DefaultFig13Config mirrors the paper's setup at laptop scale: a
// class-sorted dataset packed into near-single-class chunks, compared
// across the dataset shuffle, chunk-wise shuffle at two group sizes
// (paper: 100 and 500 for ImageNet-scale, 15 and 30 for CIFAR), and no
// shuffle.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		Samples: 6000, Dim: 16, Classes: 10, Noise: 1.8,
		FilesPerChunk: 50,
		GroupSizes:    []int{15, 30},
		Epochs:        12, Batch: 32, LR: 0.2,
		Arch: "mlp", Hidden: 24,
		Seed: 42,
	}
}

// Fig13 trains one model per strategy on identical data and returns the
// accuracy-per-epoch curves keyed by strategy name.
func Fig13(cfg Fig13Config) map[string][]EpochPoint {
	full := MakeClusters(cfg.Samples, cfg.Dim, cfg.Classes, cfg.Noise, cfg.Seed)
	trainSet, testSet := full.split(6)
	snap := DatasetSnapshot(trainSet.N(), cfg.FilesPerChunk)

	strategies := []Strategy{
		FullShuffle{N: trainSet.N(), Seed: cfg.Seed * 7},
		NoShuffle{N: trainSet.N()},
	}
	for _, g := range cfg.GroupSizes {
		strategies = append(strategies, ChunkWise{Snap: snap, GroupSize: g, Seed: cfg.Seed * 13})
	}

	out := make(map[string][]EpochPoint, len(strategies))
	for _, st := range strategies {
		var m Model
		switch cfg.Arch {
		case "mlp":
			m = NewMLP(cfg.Dim, cfg.Hidden, cfg.Classes, cfg.Seed)
		default:
			m = newSoftmax(cfg.Dim, cfg.Classes)
		}
		curve := make([]EpochPoint, 0, cfg.Epochs)
		for ep := range cfg.Epochs {
			TrainEpoch(m, trainSet, st.EpochOrder(ep), cfg.Batch, cfg.LR)
			curve = append(curve, EpochPoint{
				Epoch: ep + 1,
				Top1:  TopKAccuracy(m, testSet, 1),
				Top5:  TopKAccuracy(m, testSet, 5),
			})
		}
		out[st.Name()] = curve
	}
	return out
}

// FinalAccuracy returns the mean top-1 accuracy over a curve's last k
// epochs — the converged value compared across strategies.
func FinalAccuracy(curve []EpochPoint, k int) float64 {
	if len(curve) == 0 {
		return 0
	}
	if k > len(curve) {
		k = len(curve)
	}
	var s float64
	for _, p := range curve[len(curve)-k:] {
		s += p.Top1
	}
	return s / float64(k)
}
