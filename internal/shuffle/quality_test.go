package shuffle

import (
	"math/rand"
	"testing"
)

// classSorted builds an order and labeler for n samples in k contiguous
// classes.
func classSorted(n, k int) (identity []int32, label func(int32) int) {
	identity = make([]int32, n)
	for i := range identity {
		identity[i] = int32(i)
	}
	return identity, func(s int32) int { return int(s) * k / n }
}

func TestBatchClassDiversityExtremes(t *testing.T) {
	const n, k, batch = 1000, 10, 32
	identity, label := classSorted(n, k)

	// Class-sorted order: every batch is (almost) single-class.
	sorted := BatchClassDiversity(identity, label, k, batch)
	if sorted > 0.25 {
		t.Errorf("sorted order diversity = %.3f; should be near 1/%d", sorted, k)
	}

	// Full random permutation: near-perfect mixing.
	rng := rand.New(rand.NewSource(1))
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	random := BatchClassDiversity(perm, label, k, batch)
	if random < 0.85 {
		t.Errorf("random order diversity = %.3f; should approach 1", random)
	}
	if random <= sorted {
		t.Error("random not better than sorted")
	}
}

// TestChunkWiseDiversityGrowsWithGroupSize is the quantitative version of
// the paper's group-size guidance: bigger groups mix classes better,
// approaching the full shuffle.
func TestChunkWiseDiversityGrowsWithGroupSize(t *testing.T) {
	const nChunks, fpc, k, batch = 100, 20, 10, 32
	snap := buildSnap(nChunks, fpc)
	n := snap.NumFiles()
	label := func(s int32) int { return int(s) * k / n }

	div := func(g int) float64 {
		p := ChunkWisePlan(snap, 5, g)
		return BatchClassDiversity(p.Files, label, k, batch)
	}
	d1, d10, d50 := div(1), div(10), div(50)
	if !(d1 < d10 && d10 < d50) {
		t.Errorf("diversity not increasing with group size: %.3f %.3f %.3f", d1, d10, d50)
	}

	rng := rand.New(rand.NewSource(2))
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	full := BatchClassDiversity(perm, label, k, batch)
	if d50 < 0.9*full {
		t.Errorf("g=50 diversity %.3f far below full shuffle %.3f", d50, full)
	}
}

// meanDisplacement returns the mean absolute distance between each
// sample's position in the order and its storage position, normalised by
// the order length. A uniform random permutation scores ≈ 1/3; identity
// scores 0. It measures how far the order strays from storage order —
// the property that defeats position-correlated bias.
func meanDisplacement(order []int32) float64 {
	n := len(order)
	if n == 0 {
		return 0
	}
	var sum float64
	for pos, s := range order {
		d := float64(pos) - float64(s)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n) / float64(n)
}

func TestMeanDisplacement(t *testing.T) {
	identity, _ := classSorted(1000, 10)
	if d := meanDisplacement(identity); d != 0 {
		t.Errorf("identity displacement = %f", d)
	}
	rng := rand.New(rand.NewSource(3))
	perm := make([]int32, 1000)
	for i, p := range rng.Perm(1000) {
		perm[i] = int32(p)
	}
	if d := meanDisplacement(perm); d < 0.25 || d > 0.42 {
		t.Errorf("random displacement = %f, want ≈1/3", d)
	}
	// Chunk-wise shuffles displace strongly too (chunks are shuffled
	// globally even if files stay group-local).
	snap := buildSnap(50, 20)
	p := ChunkWisePlan(snap, 4, 5)
	if d := meanDisplacement(p.Files); d < 0.2 {
		t.Errorf("chunk-wise displacement = %f; chunk shuffle should move files far", d)
	}
}

func TestQualityEdgeCases(t *testing.T) {
	if BatchClassDiversity(nil, nil, 10, 32) != 0 {
		t.Error("empty order")
	}
	if meanDisplacement(nil) != 0 {
		t.Error("empty displacement")
	}
	one := []int32{0}
	if d := BatchClassDiversity(one, func(int32) int { return 0 }, 5, 32); d != 1 {
		t.Errorf("single sample diversity = %f", d)
	}
}
