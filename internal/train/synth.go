// Package train reproduces the paper's deep-learning-training
// experiments:
//
//   - Figure 13 (shuffle quality): a real model — softmax regression or a
//     small MLP, implemented here with minibatch SGD — is trained on a
//     synthetic classification dataset under three epoch orderings
//     (full dataset shuffle, DIESEL's chunk-wise shuffle at several group
//     sizes, and no shuffle), and top-1/top-5 accuracy per epoch is
//     compared. The paper's claim is statistical: chunk-wise shuffle
//     matches the full shuffle's accuracy and convergence; sequential
//     order does not. A real SGD run tests exactly that claim; GPUs and
//     ResNets change the constants, not the statistics.
//   - Figures 14 and 15 (DLT task time): a pipelined training-loop model
//     with per-model compute times and per-system data access times.
package train

import "math/rand"

// SynthDataset is a labelled classification dataset: n samples of dim
// features in k classes.
type SynthDataset struct {
	X       [][]float32
	Y       []int
	Classes int
	Dim     int
}

// N returns the sample count.
func (d *SynthDataset) N() int { return len(d.Y) }

// MakeClusters draws n samples from k Gaussian clusters in dim
// dimensions, class-sorted (sample i's class is i*k/n) — the same
// class-contiguous layout real datasets are written in, which is the
// hard case for locality-preserving shuffles: without shuffling, SGD
// sees one class at a time and oscillates.
func MakeClusters(n, dim, k int, noise float64, seed int64) *SynthDataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, k)
	for c := range k {
		centers[c] = make([]float64, dim)
		for j := range dim {
			centers[c][j] = rng.NormFloat64() * 2
		}
	}
	d := &SynthDataset{
		X:       make([][]float32, n),
		Y:       make([]int, n),
		Classes: k,
		Dim:     dim,
	}
	for i := range n {
		c := i * k / n
		x := make([]float32, dim)
		for j := range dim {
			x[j] = float32(centers[c][j] + rng.NormFloat64()*noise)
		}
		d.X[i] = x
		d.Y[i] = c
	}
	return d
}

// split carves the dataset into train and test partitions with a
// class-stratified interleave (every testEvery-th sample goes to test).
func (d *SynthDataset) split(testEvery int) (train, test *SynthDataset) {
	train = &SynthDataset{Classes: d.Classes, Dim: d.Dim}
	test = &SynthDataset{Classes: d.Classes, Dim: d.Dim}
	for i := range d.Y {
		if i%testEvery == 0 {
			test.X = append(test.X, d.X[i])
			test.Y = append(test.Y, d.Y[i])
		} else {
			train.X = append(train.X, d.X[i])
			train.Y = append(train.Y, d.Y[i])
		}
	}
	return train, test
}
