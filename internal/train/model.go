package train

import (
	"math"
	"math/rand"
	"sort"
)

// Model is a trainable classifier. TrainBatch applies one minibatch SGD
// step; Scores returns per-class logits for evaluation.
type Model interface {
	TrainBatch(ds *SynthDataset, batch []int32, lr float64)
	Scores(x []float32) []float64
}

// --- softmax regression ---

// Softmax is multinomial logistic regression: a linear layer plus softmax
// cross-entropy, trained with SGD. It is convex, so converged accuracy
// depends only weakly on ordering — its convergence *speed* is what the
// shuffle affects.
type Softmax struct {
	W [][]float64 // [class][dim]
	B []float64
}

// newSoftmax builds a zero-initialised model.
func newSoftmax(dim, classes int) *Softmax {
	w := make([][]float64, classes)
	for c := range w {
		w[c] = make([]float64, dim)
	}
	return &Softmax{W: w, B: make([]float64, classes)}
}

// Scores implements Model.
func (m *Softmax) Scores(x []float32) []float64 {
	out := make([]float64, len(m.W))
	for c := range m.W {
		s := m.B[c]
		wc := m.W[c]
		for j, v := range x {
			s += wc[j] * float64(v)
		}
		out[c] = s
	}
	return out
}

func softmaxInPlace(z []float64) {
	maxZ := z[0]
	for _, v := range z[1:] {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxZ)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
}

// TrainBatch implements Model: one SGD step on the given sample indices.
func (m *Softmax) TrainBatch(ds *SynthDataset, batch []int32, lr float64) {
	if len(batch) == 0 {
		return
	}
	scale := lr / float64(len(batch))
	for _, bi := range batch {
		x := ds.X[bi]
		y := ds.Y[bi]
		p := m.Scores(x)
		softmaxInPlace(p)
		for c := range m.W {
			g := p[c]
			if c == y {
				g -= 1
			}
			if g == 0 {
				continue
			}
			wc := m.W[c]
			gs := g * scale
			for j, v := range x {
				wc[j] -= gs * float64(v)
			}
			m.B[c] -= gs
		}
	}
}

// --- one-hidden-layer MLP ---

// MLP is a one-hidden-layer ReLU network trained with SGD — non-convex,
// so ordering effects (and the absence thereof under chunk-wise shuffle)
// show up in both convergence speed and final accuracy.
type MLP struct {
	W1 [][]float64 // [hidden][dim]
	B1 []float64
	W2 [][]float64 // [class][hidden]
	B2 []float64
}

// NewMLP builds an MLP with Xavier-style random init.
func NewMLP(dim, hidden, classes int, seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{
		W1: make([][]float64, hidden),
		B1: make([]float64, hidden),
		W2: make([][]float64, classes),
		B2: make([]float64, classes),
	}
	s1 := math.Sqrt(2.0 / float64(dim))
	for h := range m.W1 {
		m.W1[h] = make([]float64, dim)
		for j := range m.W1[h] {
			m.W1[h][j] = rng.NormFloat64() * s1
		}
	}
	s2 := math.Sqrt(2.0 / float64(hidden))
	for c := range m.W2 {
		m.W2[c] = make([]float64, hidden)
		for h := range m.W2[c] {
			m.W2[c][h] = rng.NormFloat64() * s2
		}
	}
	return m
}

// forward computes the hidden activations and logits.
func (m *MLP) forward(x []float32) (hidden, logits []float64) {
	hidden = make([]float64, len(m.W1))
	for h := range m.W1 {
		s := m.B1[h]
		wh := m.W1[h]
		for j, v := range x {
			s += wh[j] * float64(v)
		}
		if s < 0 {
			s = 0 // ReLU
		}
		hidden[h] = s
	}
	logits = make([]float64, len(m.W2))
	for c := range m.W2 {
		s := m.B2[c]
		wc := m.W2[c]
		for h, v := range hidden {
			s += wc[h] * v
		}
		logits[c] = s
	}
	return hidden, logits
}

// Scores implements Model.
func (m *MLP) Scores(x []float32) []float64 {
	_, logits := m.forward(x)
	return logits
}

// TrainBatch implements Model: backprop + SGD on the batch.
func (m *MLP) TrainBatch(ds *SynthDataset, batch []int32, lr float64) {
	if len(batch) == 0 {
		return
	}
	scale := lr / float64(len(batch))
	for _, bi := range batch {
		x := ds.X[bi]
		y := ds.Y[bi]
		hidden, logits := m.forward(x)
		softmaxInPlace(logits)
		// Output layer gradient: dL/dz2 = p - onehot(y).
		dHidden := make([]float64, len(hidden))
		for c := range m.W2 {
			g := logits[c]
			if c == y {
				g -= 1
			}
			if g == 0 {
				continue
			}
			wc := m.W2[c]
			gs := g * scale
			for h, hv := range hidden {
				dHidden[h] += g * wc[h]
				wc[h] -= gs * hv
			}
			m.B2[c] -= gs
		}
		// Hidden layer: ReLU gate.
		for h, hv := range hidden {
			if hv <= 0 || dHidden[h] == 0 {
				continue
			}
			gs := dHidden[h] * scale
			wh := m.W1[h]
			for j, v := range x {
				wh[j] -= gs * float64(v)
			}
			m.B1[h] -= gs
		}
	}
}

// --- evaluation ---

// TopKAccuracy returns the fraction of samples whose true class is among
// the model's k highest-scoring classes (top-1 and top-5 in the paper).
func TopKAccuracy(m Model, ds *SynthDataset, k int) float64 {
	if ds.N() == 0 {
		return 0
	}
	correct := 0
	idx := make([]int, ds.Classes)
	for i := range ds.Y {
		scores := m.Scores(ds.X[i])
		for c := range idx {
			idx[c] = c
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		top := min(k, len(idx))
		for _, c := range idx[:top] {
			if c == ds.Y[i] {
				correct++
				break
			}
		}
	}
	return float64(correct) / float64(ds.N())
}

// TrainEpoch runs one epoch over the dataset in the given sample order,
// in minibatches of batchSize.
func TrainEpoch(m Model, ds *SynthDataset, order []int32, batchSize int, lr float64) {
	if batchSize < 1 {
		batchSize = 1
	}
	for lo := 0; lo < len(order); lo += batchSize {
		hi := min(lo+batchSize, len(order))
		m.TrainBatch(ds, order[lo:hi], lr)
	}
}
