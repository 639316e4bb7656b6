package train

import (
	"errors"
	"io"

	"diesel/internal/epoch"
)

// Batch is one minibatch in epoch order.
type Batch struct {
	Index int      // batch number within the epoch
	Paths []string // file paths, in order
	Data  [][]byte // file contents, parallel to Paths
}

// ErrLoaderClosed is returned by Next after Close.
var ErrLoaderClosed = errors.New("train: loader closed")

// LoaderOption configures an EpochLoader (functional options, matching
// the style of internal/wire and internal/epoch).
type LoaderOption func(*EpochLoader)

// WithBatchSize sets the number of files per batch. Default 32.
func WithBatchSize(n int) LoaderOption {
	return func(l *EpochLoader) { l.batch = n }
}

// EpochLoader streams minibatches of files in epoch order — the role
// PyTorch's DataLoader plays in Figure 1 of the paper — by slicing a
// pipelined epoch.Reader's ordered sample stream into batches. The
// training loop consumes batches while the reader fetches whole chunk
// groups ahead, which is the pipelining §6.6 relies on ("there are
// separate I/O threads to read files while the GPU computes gradients").
// Concurrency, prefetch depth and the tail controls (hedging, reorder
// window, group deadlines, cancellation) belong to the reader: set them
// with the epoch.With* options when building it.
type EpochLoader struct {
	r     *epoch.Reader
	batch int
	index int
}

// NewEpochLoader batches the reader's samples. Close on the loader closes
// the reader too.
func NewEpochLoader(r *epoch.Reader, opts ...LoaderOption) *EpochLoader {
	l := &EpochLoader{r: r}
	for _, fn := range opts {
		fn(l)
	}
	if l.batch < 1 {
		l.batch = 32
	}
	return l
}

// Next returns the next batch in plan order; ok is false when the epoch
// is complete. A reader closed locally surfaces as ErrLoaderClosed; any
// fetch error ends the epoch with that error.
func (l *EpochLoader) Next() (Batch, bool, error) {
	b := Batch{Index: l.index}
	for len(b.Data) < l.batch {
		s, err := l.r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if errors.Is(err, epoch.ErrClosed) && l.r.Err() == nil {
				return Batch{}, false, ErrLoaderClosed
			}
			return Batch{}, false, err
		}
		b.Paths = append(b.Paths, s.Path)
		b.Data = append(b.Data, s.Data)
	}
	if len(b.Data) == 0 {
		return Batch{}, false, nil
	}
	l.index++
	return b, true, nil
}

// Close tears down the underlying reader. Safe to call multiple times.
func (l *EpochLoader) Close() {
	l.r.Close()
}
