package shuffle

// Shuffle-quality metrics. The paper argues (§4.3) that a chunk-wise
// shuffle with a large enough group size is statistically as good as a
// full shuffle for SGD. These metrics quantify "good": how mixed the
// minibatches a given epoch order produces are, independently of any
// particular model.

// BatchClassDiversity returns the mean, over all minibatches of the given
// size, of (distinct labels in batch) / min(batchSize, classes). A
// perfectly mixed order scores near 1; an unshuffled class-sorted order
// scores near 1/min(batchSize, classes) × … (each batch is single-class,
// so the score approaches 1/min(batchSize, classes)).
func BatchClassDiversity(order []int32, label func(int32) int, classes, batchSize int) float64 {
	if len(order) == 0 || batchSize < 1 || classes < 1 {
		return 0
	}
	maxDistinct := min(batchSize, classes)
	var sum float64
	batches := 0
	seen := make(map[int]struct{}, classes)
	for lo := 0; lo < len(order); lo += batchSize {
		hi := min(lo+batchSize, len(order))
		clear(seen)
		for _, s := range order[lo:hi] {
			seen[label(s)] = struct{}{}
		}
		denom := min(hi-lo, maxDistinct)
		sum += float64(len(seen)) / float64(denom)
		batches++
	}
	return sum / float64(batches)
}
